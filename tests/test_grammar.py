import pytest

from treesep.errors import FormatError
from treesep.grammar import derivations, parse_grammar
from treesep.trees import leaf_word, parse_tree

from fixtures import blocks_grammar, nonpalindrome_grammar, palindrome_grammar, pq_grammar
from oracles import cyk_member, generate_words, is_valid_derivation, words_up_to


def brute_force_language(grammar, max_len):
    """Membership by enumerating derivation trees, independent of CYK."""

    def derives(x, word):
        if len(word) == 1:
            return x in grammar.leaf_index.get(word[0], ())
        return any(
            derives(y, word[:k]) and derives(z, word[k:])
            for y, z in grammar.binary_of.get(x, ())
            for k in range(1, len(word))
        )

    return {w for w in words_up_to(grammar.terminals, max_len)
            if derives(grammar.start, w)}


def is_palindrome(word):
    return tuple(word) == tuple(reversed(word))


class TestParsing:
    def test_simple_grammar(self):
        g = parse_grammar("S -> A B; A -> p; B -> q")
        assert g.start == "S"
        assert generate_words(g, 4) == {("p", "q")}

    def test_non_cnf_rule_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("S -> A B C; A -> p; B -> q; C -> p")

    def test_unit_rule_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("S -> A; A -> p")

    def test_terminal_in_binary_position_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("S -> A p; A -> p")

    def test_start_header(self):
        g = parse_grammar("start: T\nS -> A B\nT -> A A\nA -> p\nB -> q")
        assert g.start == "T"
        assert generate_words(g, 3) == {("p", "p")}

    def test_second_start_header_rejected(self):
        with pytest.raises(FormatError, match=r"^line 3: duplicate header 'start'$"):
            parse_grammar("start: S\nS -> p\nstart: T\nT -> q")

    def test_start_deriving_no_word_rejected(self):
        # B derives nothing, so S -> A B derives nothing either
        with pytest.raises(FormatError, match=r"^start symbol 'S' derives no word$"):
            parse_grammar("S -> A B; A -> p; B -> B B")

    def test_normalization_reports_removals(self):
        g = parse_grammar("S -> A B; S -> A U; A -> p; B -> q; V -> A A")
        # U has no rules (unproductive), V is unreachable
        assert "U" in g.removed and "V" in g.removed
        assert generate_words(g, 4) == {("p", "q")}

    def test_palindrome_fixture_parses_and_generates(self):
        g = palindrome_grammar()
        assert cyk_member(g, ("p", "q", "p"))
        assert ("p", "q", "p") in generate_words(g, 3)


class TestCyk:
    def test_block_language_hand_cases(self):
        g = blocks_grammar()
        assert cyk_member(g, tuple("ppqq"))
        assert not cyk_member(g, tuple("pqq"))

    def test_single_letter_leaf_rule(self):
        g = parse_grammar("S -> p; S -> A B; A -> p; B -> q")
        assert cyk_member(g, ("p",))
        assert not cyk_member(g, ("q",))

    def test_empty_word_unsupported(self):
        with pytest.raises(ValueError):
            cyk_member(pq_grammar(), ())

    def test_agreement_with_derivation_enumeration(self):
        for g in (pq_grammar(), blocks_grammar(), palindrome_grammar()):
            oracle = brute_force_language(g, 6)
            for w in filter(None, words_up_to(g.terminals, 6)):
                assert cyk_member(g, w) == (w in oracle)
                assert cyk_member(g, w) == bool(list(derivations(g, w)))

    def test_generate_words_agreement(self):
        for g in (pq_grammar(), blocks_grammar(), nonpalindrome_grammar()):
            assert generate_words(g, 6) == brute_force_language(g, 6)


class TestDerivations:
    def test_yields_recover_the_word(self):
        g = palindrome_grammar()
        for w in [("p", "p"), ("p", "q", "p"), ("q", "p", "p", "q")]:
            for d in derivations(g, w):
                assert leaf_word(d) == w
                assert is_valid_derivation(g, d)

    def test_pq_has_exactly_one_derivation(self):
        trees = list(derivations(pq_grammar(), ("p", "q")))
        assert trees == [parse_tree("S(p,q)")]

    def test_ambiguous_fixture_counts(self):
        # X -> X X makes bracketings ambiguous: Catalan numbers of trees
        g = parse_grammar("S -> S S; S -> p")
        counts = {n: len(list(derivations(g, ("p",) * n))) for n in range(1, 6)}
        assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}

    def test_no_derivations_outside_language(self):
        assert list(derivations(blocks_grammar(), ("q", "p"))) == []

    def test_invalid_derivation_rejected(self):
        g = pq_grammar()
        assert is_valid_derivation(g, parse_tree("S(p,q)"))
        assert not is_valid_derivation(g, parse_tree("S(q,p)"))
        assert not is_valid_derivation(g, parse_tree("S(S(p,q),q)"))


class TestFixtureLanguages:
    def test_palindromes_exactly(self):
        g = palindrome_grammar()
        got = generate_words(g, 7)
        expected = {w for w in words_up_to(("p", "q"), 7)
                    if len(w) >= 2 and is_palindrome(w)}
        assert got == expected

    def test_nonpalindromes_exactly(self):
        g = nonpalindrome_grammar()
        got = generate_words(g, 7)
        expected = {w for w in words_up_to(("p", "q"), 7) if not is_palindrome(w)}
        assert got == expected

    def test_derivation_shapes(self):
        # right child of every root derivation in the palindrome grammar is a
        # terminal leaf; left child in the non-palindrome grammar
        g, h = palindrome_grammar(), nonpalindrome_grammar()
        for w in sorted(generate_words(g, 6)):
            for d in derivations(g, w):
                assert not d.children[1].children
        for w in sorted(generate_words(h, 6)):
            for d in derivations(h, w):
                assert not d.children[0].children
