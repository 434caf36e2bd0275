import itertools
import random

import pytest

from treesep import rotation
from treesep.errors import AlphabetError, ArityError, ResourceError, RotationSearchExhausted
from treesep.grammar import parse_grammar
from treesep.rotation import comb_dfa, extract_separator, find_rotation_term, is_associative
from treesep.trees import RankedAlphabet, Tree, comb, compose, format_tree, leaf_word, parse_tree
from treesep.walking import dfs_from_dfa, minimal_dbta

from fixtures import (
    SIGMA,
    all_trees_dbta,
    all_words_dfa,
    always_accept_dtwa,
    blocks_grammar,
    height_bounded_dbta,
    leaf_parity_dbta,
    left_leaf_dbta,
    left_leaf_dtwa,
    nonpalindrome_grammar,
    p_initial_grammar,
    p_prefix_dfa,
    palindrome_grammar,
    pq_grammar,
    q_initial_grammar,
    t,
)
from oracles import (
    SEED,
    brute_trees,
    comb_normalize,
    criterion_dfas,
    definitional_l_equivalent,
    definitional_l_equivalent_literal,
    generate_words,
    l_equivalent,
    leaves_left_to_right,
    rotate_at,
    transformation,
    tstar_members,
)

STAR = parse_tree("a(*,*)")


def minimized_fixtures():
    return [
        leaf_parity_dbta().minimize(),
        height_bounded_dbta().minimize(),
        left_leaf_dbta().minimize(),
    ]


class TestTransformation:
    def test_identity_term(self):
        amin = leaf_parity_dbta().minimize()
        table = transformation(amin, t("*"))
        assert table == {(q,): q for q in amin.states}

    def test_consistent_with_concrete_substitution(self):
        rng = random.Random(SEED + 9)
        amin = leaf_parity_dbta().minimize()
        fillers = sorted(brute_trees(SIGMA, 5), key=format_tree)
        for term in [t("a(*,*)"), t("a(a(*,c),*)"), t("a(*,a(p,*))")]:
            table = transformation(amin, term)
            for _ in range(10):
                args = tuple(rng.choice(fillers) for _ in range(term.arity))
                states = tuple(amin.eval(x) for x in args)
                assert table[states] == amin.eval(compose(term, args))

    def test_equal_terms_equal_tables(self):
        amin = height_bounded_dbta().minimize()
        assert transformation(amin, t("a(*,c)")) == transformation(amin, t("a(*,c)"))

    def test_arity_cap(self):
        amin = leaf_parity_dbta().minimize()
        wide = compose(STAR, (STAR, STAR))  # 4 ports, above the ternary cap
        with pytest.raises(ResourceError):
            transformation(amin, wide)


class TestLEquivalence:
    def test_reflexive(self):
        amin = leaf_parity_dbta().minimize()
        for term in (t("*"), t("a(*,c)"), t("a(*,*)")):
            assert l_equivalent(amin, term, term)

    def test_one_state_automaton_equates_everything(self):
        amin = all_trees_dbta().minimize()
        terms = [u for u in brute_trees(SIGMA, 5, ports=1)]
        for x, y in itertools.combinations(terms, 2):
            assert l_equivalent(amin, x, y)

    def test_arity_mismatch(self):
        amin = leaf_parity_dbta().minimize()
        with pytest.raises(ArityError):
            l_equivalent(amin, t("*"), t("a(*,*)"))

    def test_agreement_with_definitional_oracle(self):
        for amin in minimized_fixtures():
            terms = sorted(
                brute_trees(SIGMA, 4, ports=0)
                | brute_trees(SIGMA, 4, ports=1)
                | brute_trees(SIGMA, 4, ports=2),
                key=format_tree,
            )
            for x, y in itertools.combinations(terms, 2):
                if x.arity != y.arity:
                    continue
                assert l_equivalent(amin, x, y) == definitional_l_equivalent(amin, x, y)

    def test_optimized_oracle_matches_literal_enumeration(self):
        # cross-validates the state-deduplicated oracle against the fully
        # literal triple loop at tiny bounds
        amin = left_leaf_dbta().minimize()
        terms = [t("c"), t("p"), t("a(p,q)"), t("*"), t("a(*,c)"), t("a(c,*)")]
        for x, y in itertools.combinations(terms, 2):
            if x.arity != y.arity:
                continue
            assert definitional_l_equivalent(
                amin, x, y, context_nodes=5, filler_nodes=3
            ) == definitional_l_equivalent_literal(
                amin, x, y, context_nodes=5, filler_nodes=3
            )


class TestAssociativity:
    def test_one_state_automaton(self):
        assert is_associative(all_trees_dbta().minimize(), STAR)

    def test_parity_is_insensitive_to_shape(self):
        assert is_associative(leaf_parity_dbta().minimize(), STAR)

    def test_shape_sensitive_fixtures_refuse_plain_pairing(self):
        assert not is_associative(left_leaf_dbta().minimize(), STAR)
        assert not is_associative(height_bounded_dbta().minimize(), STAR)

    def test_needs_binary_term(self):
        with pytest.raises(ArityError):
            is_associative(leaf_parity_dbta().minimize(), t("a(*,c)"))


class TestFindRotationTerm:
    def test_all_trees_smallest_witness(self):
        witness = find_rotation_term(all_trees_dbta(), 9)
        assert witness.term == STAR and witness.found_at_size == 3

    def test_leaf_language_automata_regression(self):
        for dfa in criterion_dfas():
            amin = minimal_dbta(dfs_from_dfa(dfa, SIGMA))
            witness = find_rotation_term(amin, 9)
            assert witness.found_at_size == 3
            assert witness.term == STAR
            assert witness.fingerprint == amin.minimize().fingerprint()

    def test_shape_sensitive_exhausts_small_bounds(self):
        with pytest.raises(RotationSearchExhausted) as err:
            find_rotation_term(height_bounded_dbta(), 3)
        assert err.value.bound == 3
        with pytest.raises(RotationSearchExhausted):
            find_rotation_term(left_leaf_dbta(), 3)

    def test_shape_sensitive_fixtures_have_larger_witnesses(self):
        # measured: both find a size-5 term; for the height-bounded language
        # every composition of the witness overflows the height bound, which
        # makes the two associations vacuously interchangeable
        tall = find_rotation_term(height_bounded_dbta(), 9)
        assert (tall.found_at_size, format_tree(tall.term)) == (5, "a(*,a(*,c))")
        left = find_rotation_term(left_leaf_dbta(), 9)
        assert (left.found_at_size, format_tree(left.term)) == (5, "a(a(*,*),c)")

    def test_missing_fresh_letters(self):
        from treesep.bottomup import Dbta
        from treesep.errors import AlphabetError
        from treesep.trees import RankedAlphabet

        tiny = Dbta(RankedAlphabet({"x": 0}), ("q",), {"q"}, {"x": {(): "q"}})
        with pytest.raises(AlphabetError):
            find_rotation_term(tiny, 5)


class TestTstar:
    def test_arity_one_is_the_identity_only(self):
        assert list(tstar_members(STAR, 1, 10)) == [t("*")]

    def test_arity_two_starts_with_the_term_itself(self):
        members = list(tstar_members(STAR, 2, 10))
        assert members == [STAR]
        other = t("a(a(*,c),*)")
        assert list(tstar_members(other, 2, 10)) == [other]

    def test_counts_follow_bracketings(self):
        for n, count in ((3, 2), (4, 5), (5, 14)):
            assert len(list(tstar_members(STAR, n, 100))) == count

    def test_budget_caps_the_stream(self):
        assert len(list(tstar_members(STAR, 5, 3))) == 3

    def test_instantiated_members_have_n_leaves_in_gamma(self):
        term = t("a(a(*,c),*)")
        for n in range(1, 6):
            for member in tstar_members(term, n, 5):
                assert member.arity == n
                filled = compose(member, tuple(Tree("p") for _ in range(n)))
                assert len(leaf_word(filled, {"p", "q"})) == n


class TestCombDfa:
    def test_two_letter_base_case(self):
        amin = minimal_dbta(dfs_from_dfa(p_prefix_dfa(), SIGMA))
        witness = find_rotation_term(amin, 9)
        k = comb_dfa(amin, witness.term, ("p", "q"))
        for pair in itertools.product(("p", "q"), repeat=2):
            assert k.run(pair) == amin.accepts(compose(witness.term, (Tree(pair[0]), Tree(pair[1]))))

    def test_words_track_combs_exhaustively(self):
        for dfa in criterion_dfas()[:5]:
            amin = minimal_dbta(dfs_from_dfa(dfa, SIGMA))
            witness = find_rotation_term(amin, 9)
            k = comb_dfa(amin, witness.term, ("p", "q"))
            assert len(k.states) <= len(amin.states) + 1
            for length in range(2, 7):
                for word in itertools.product(("p", "q"), repeat=length):
                    assert k.run(word) == amin.accepts(comb(witness.term, word))

    def test_full_claim_over_sampled_members(self):
        for dfa in criterion_dfas()[:3]:
            amin = minimal_dbta(dfs_from_dfa(dfa, SIGMA))
            witness = find_rotation_term(amin, 9)
            k = comb_dfa(amin, witness.term, ("p", "q"))
            for n in range(2, 7):
                members = list(tstar_members(witness.term, n, 3))
                for word in itertools.product(("p", "q"), repeat=n):
                    expected = k.run(word)
                    for member in members:
                        filled = compose(member, tuple(Tree(x) for x in word))
                        assert amin.accepts(filled) == expected


class TestCombNormalize:
    def test_reaches_comb_form_preserving_eval(self):
        amin = leaf_parity_dbta().minimize()
        assert is_associative(amin, STAR)
        letters = ("p", "q", "c", "p", "q", "p")
        for n in range(2, 7):
            for member in tstar_members(STAR, n, 100):
                filled = compose(member, tuple(Tree(x) for x in letters[:n]))
                assert filled.size <= 11
                normal, steps = comb_normalize(filled, "a")
                assert normal == comb(STAR, letters[:n])
                current = filled
                value = amin.eval(current)
                for path, direction in steps:
                    current = rotate_at(current, path, direction)
                    assert leaves_left_to_right(current) == leaves_left_to_right(filled)
                    assert amin.eval(current) == value
                assert current == normal

    def test_transformation_stable_along_rotation_paths(self):
        # the table-level invariant, for port counts within the arity cap
        amin = leaf_parity_dbta().minimize()
        for n in (2, 3):
            for member in tstar_members(STAR, n, 100):
                table = transformation(amin, member)
                normal, steps = comb_normalize(member, "a")
                current = member
                for path, direction in steps:
                    current = rotate_at(current, path, direction)
                    assert transformation(amin, current) == table
                assert transformation(amin, normal) == table


class TestExtractSeparator:
    def test_end_to_end_prefix_separator(self):
        g, h = p_initial_grammar(), q_initial_grammar()
        walker = dfs_from_dfa(p_prefix_dfa(), SIGMA)
        report = extract_separator(walker, g, h, search_bound=9)
        assert report.status == "ok"
        assert report.verified
        assert report.witness.term == STAR
        # the extracted separator must contain L(G) and avoid L(H)
        for word in generate_words(g, 7):
            assert report.separator.run(word)
        for word in generate_words(h, 7):
            assert not report.separator.run(word)

    def test_non_separator_reports_violation(self):
        g = p_initial_grammar()
        report = extract_separator(always_accept_dtwa(), g, g, search_bound=9)
        assert report.status == "ok"
        assert not report.verified
        assert report.verification.violation_h == ("p",)

    def test_fixture_round_trip_sweep(self):
        cases = [
            (p_initial_grammar(), q_initial_grammar(), p_prefix_dfa()),
            (blocks_grammar(), q_initial_grammar(), p_prefix_dfa()),
            (pq_grammar(), q_initial_grammar(), p_prefix_dfa()),
        ]
        for g, h, k0 in cases:
            report = extract_separator(dfs_from_dfa(k0, SIGMA), g, h, search_bound=9)
            assert report.verified, (g.start, h.start)

    def test_exhaustion_is_an_explicit_report(self):
        report = extract_separator(
            left_leaf_dtwa(), p_initial_grammar(), q_initial_grammar(), search_bound=3
        )
        assert report.status == "exhausted"
        assert report.search_bound == 3
        assert not report.verified
        assert report.separator is None

    @pytest.mark.parametrize("letter", ["c", "a"])
    def test_terminal_colliding_with_fresh_pair(self, letter):
        g = parse_grammar(f"start: S\nS -> A B\nA -> p\nB -> {letter}\n")
        with pytest.raises(AlphabetError, match="collide with the terminals"):
            extract_separator(dfs_from_dfa(p_prefix_dfa(), SIGMA), g, g, search_bound=9)

    def test_walker_missing_a_terminal(self, monkeypatch):
        # refused before the walker's automaton is built
        monkeypatch.setattr(rotation, "minimal_dbta", None)
        walker = dfs_from_dfa(all_words_dfa(("p",)), RankedAlphabet({"a": 2, "c": 0, "p": 0}))
        with pytest.raises(AlphabetError, match=r"^alphabet needs letter 'q' with arity 0$"):
            extract_separator(walker, palindrome_grammar(), nonpalindrome_grammar(), search_bound=9)

    def test_report_serializes(self):
        import json

        report = extract_separator(
            dfs_from_dfa(p_prefix_dfa(), SIGMA),
            p_initial_grammar(),
            q_initial_grammar(),
            search_bound=9,
        )
        doc = json.loads(report.to_json())
        assert doc["verified"] is True
        assert doc["witness"]["term"] == "a(*,*)"
