import pytest

from treesep.errors import AlphabetError
from treesep.fixtures import blocks_grammar, palindrome_grammar, pq_grammar
from treesep.grammar import parse_grammar
from treesep.obfuscation import kop_member, kop_nta, obf_alphabet
from treesep.trees import leaf_word, parse_tree

from oracles import cyk_member, kop_language, kop_oracle, nta_accepts, nta_eval_set, smallest_trees


def t(text):
    return parse_tree(text)


class TestObfAlphabet:
    def test_extends_terminals(self):
        alphabet = obf_alphabet(pq_grammar())
        assert alphabet.arity("a") == 2
        assert alphabet.arity("c") == 0
        assert alphabet.zero_arity() == ("c", "p", "q")

    def test_fresh_letters_must_be_fresh(self):
        clash = parse_grammar("S -> A B; A -> a; B -> q")
        with pytest.raises(AlphabetError):
            obf_alphabet(clash)


class TestOracle:
    def test_single_leaf_derivation(self):
        assert kop_oracle(t("p"), 9) == {t("p")}

    def test_two_leaf_derivation_smallest_budget(self):
        assert kop_oracle(t("S(p,q)"), 3) == {t("a(p,q)")}

    def test_two_leaf_derivation_budget_five(self):
        expected = {
            t("a(p,q)"),
            t("a(a(p,q),c)"),
            t("a(a(p,c),q)"),
            t("a(a(c,p),q)"),
            t("a(p,a(q,c))"),
            t("a(p,a(c,q))"),
            t("a(c,a(p,q))"),
        }
        assert kop_oracle(t("S(p,q)"), 5) == expected

    def test_budget_respected(self):
        for member in kop_oracle(t("S(p,S(q,p))"), 9):
            assert member.size <= 9


class TestAutomaton:
    def test_pq_examples(self):
        g = pq_grammar()
        assert kop_member(g, t("a(p,q)"))
        assert kop_member(g, t("a(a(p,c),q)"))
        assert not kop_member(g, t("a(q,p)"))

    def test_wrapped_leaf_argument_needs_carrier_states(self):
        # the member a(a(p,c),q) wraps the leaf argument p below padding; an
        # automaton with only bare-leaf and binary-member states has no run
        # for the left subtree, so the carrier states are load-bearing
        g = pq_grammar()
        nta = kop_nta(g)
        assert any(state.startswith("P_") for state in nta.states)
        assert nta_accepts(nta, t("a(a(p,c),q)"))
        left = nta_eval_set(nta, t("a(p,c)"))
        assert left and all(state.startswith("P_") for state in left)

    def test_single_leaf_grammar_rejects_padding(self):
        g = parse_grammar("S -> p")
        assert kop_member(g, t("p"))
        assert not kop_member(g, t("a(p,c)"))
        assert not kop_member(g, t("a(c,p)"))

    def test_pure_fresh_trees_rejected(self):
        g = pq_grammar()
        for text in ("c", "a(c,c)", "a(a(c,c),c)"):
            assert not kop_member(g, text and t(text))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            kop_member(pq_grammar(), t("z"))


class TestAgreement:
    def test_member_agrees_with_oracle_small(self):
        # the full <= 9 node sweep lives in the acceptance suite; this keeps
        # a fast version in the unit tests
        for g in (pq_grammar(), blocks_grammar()):
            alphabet = obf_alphabet(g)
            language = kop_language(g, 7)
            for tree in smallest_trees(alphabet, 7):
                assert kop_member(g, tree) == (tree in language)

    def test_leaf_words_of_members_are_generated(self):
        for g in (pq_grammar(), blocks_grammar(), palindrome_grammar()):
            alphabet = obf_alphabet(g)
            gamma = set(g.terminals)
            for tree in smallest_trees(alphabet, 9):
                if kop_member(g, tree):
                    word = leaf_word(tree, gamma)
                    assert cyk_member(g, word)

    def test_no_terminal_leaf_means_not_member(self):
        g = blocks_grammar()
        for tree in smallest_trees(obf_alphabet(g), 7):
            if not leaf_word(tree, set(g.terminals)):
                assert not kop_member(g, tree)

    def test_closed_under_swapping_wrappers(self):
        # two shapes around the same derivation arguments are both members
        g = blocks_grammar()
        derivation = t("S(p,q)")
        members = sorted(kop_oracle(derivation, 9), key=lambda u: u.size)
        assert len(members) > 3
        for member in members:
            assert kop_member(g, member)
