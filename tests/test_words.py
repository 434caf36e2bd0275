import itertools
import random

import pytest

from treesep import words
from treesep.errors import AlphabetError, FormatError
from treesep.grammar import parse_grammar
from treesep.rotation import comb_dfa, find_rotation_term
from treesep.trees import parse_tree
from treesep.walking import dfs_from_dfa, minimal_dbta
from treesep.words import Dfa, SeparatorReport, cfg_dfa_intersection_empty, parse_dfa, verify_separator

from fixtures import (
    all_words_dfa,
    blocks_grammar,
    even_p_dfa,
    leaf_parity_dbta,
    nonpalindrome_grammar,
    obf_sigma,
    p_initial_grammar,
    p_prefix_dfa,
    palindrome_grammar,
    pq_grammar,
    q_initial_grammar,
)
from oracles import (
    SEED,
    criterion_dfas,
    cyk_member,
    dfa_walk,
    generate_words,
    least_table_certified,
    pairwise_intersection_empty,
    random_cnf_grammar,
    random_dfa,
    three_pass_intersection_empty,
    told_apart,
    words_up_to,
)


def contains_factor_qp() -> Dfa:
    delta = {
        ("s", "p"): "s", ("s", "q"): "q1",
        ("q1", "q"): "q1", ("q1", "p"): "hit",
        ("hit", "p"): "hit", ("hit", "q"): "hit",
    }
    return Dfa(("p", "q"), ("s", "q1", "hit"), "s", {"hit"}, delta)


def fixed_length_grammar(doublings: int):
    """All words over {p, q} of length 2 ** doublings, by one doubling rule
    per factor of two."""
    rules = [f"start: X{doublings}", "L -> p", "L -> q", "X1 -> L L"]
    rules += [f"X{i} -> X{i - 1} X{i - 1}" for i in range(2, doublings + 1)]
    return parse_grammar("\n".join(rules))


def length_one_dfa() -> Dfa:
    """Accepts exactly the one-letter words."""
    delta = {(q, a): {"z0": "z1"}.get(q, "z2") for q in ("z0", "z1", "z2") for a in ("p", "q")}
    return Dfa(("p", "q"), ("z0", "z1", "z2"), "z0", {"z1"}, delta)


def threshold_dfa(m: int) -> Dfa:
    """Accepts exactly the words with at least m letters."""
    states = [f"t{i:02d}" for i in range(m + 1)]
    delta = {(states[i], a): states[min(i + 1, m)] for i in range(m + 1) for a in ("p", "q")}
    return Dfa(("p", "q"), states, states[0], {states[m]}, delta)


def empty_dfa() -> Dfa:
    delta = {("s", "p"): "s", ("s", "q"): "s"}
    return Dfa(("p", "q"), ("s",), "s", set(), delta)


class TestDfaBasics:
    def test_run(self):
        k = p_prefix_dfa()
        assert k.run(("p", "q", "q"))
        assert not k.run(("q", "p"))
        assert not k.run(())

    def test_totality_enforced(self):
        with pytest.raises(FormatError):
            Dfa(("p",), ("s",), "s", set(), {})

    def test_stray_key_rejected(self):
        delta = {("s", "p"): "s", ("s", "q"): "s"}
        with pytest.raises(FormatError, match="'q'"):
            Dfa(("p",), ("s",), "s", set(), delta)

    @pytest.mark.parametrize("initial, accepting, target, message", [
        ("nowhere", set(), "s", "initial state 'nowhere' not declared"),
        (["s"], set(), "s", "initial state ['s'] not declared"),
        ("s", {"nowhere"}, "s", "accepting states not declared"),
        ("s", set(), "nowhere", "undeclared target in transition ('s', 'p')"),
        ("s", set(), ["s"], "undeclared target in transition ('s', 'p')"),
    ], ids=["undeclared-initial", "unhashable-initial", "undeclared-accepting", "undeclared-target",
            "unhashable-target"])
    def test_bad_constructor_argument_rejected(self, initial, accepting, target, message):
        with pytest.raises(FormatError) as caught:
            Dfa(("p",), ("s",), initial, accepting, {("s", "p"): target})
        assert str(caught.value) == message

    @pytest.mark.parametrize("alphabet, states, accepting, message", [
        ("pq", ("s",), set(), "alphabet must be a collection, not the string 'pq'"),
        (("p",), "st", set(), "states must be a collection, not the string 'st'"),
        # "st" used to accept both s and t
        (("p",), ("s", "t"), "st", "accepting must be a collection, not the string 'st'"),
        (("p",), (0,), set(), "states member 0 is not a string"),
        # sorting the states raised TypeError inside the constructor
        (("p",), ("s", 0), set(), "states member 0 is not a string"),
        ((0,), ("s",), set(), "alphabet member 0 is not a string"),
        (("p",), ("s",), {b"s"}, "accepting member b's' is not a string"),
    ], ids=["alphabet", "states", "accepting", "int-states", "mixed-states", "int-letter", "bytes-accepting"])
    def test_string_argument_rejected(self, alphabet, states, accepting, message):
        with pytest.raises(FormatError) as caught:
            Dfa(alphabet, states, "s", accepting, {("s", "p"): "s", ("t", "p"): "s"})
        assert str(caught.value) == message

    def test_alphabet_checked(self):
        with pytest.raises(AlphabetError):
            p_prefix_dfa().run(("x",))

    def test_double_complement(self):
        k = even_p_dfa()
        back = k.complement().complement()
        for w in words_up_to(("p", "q"), 8):
            assert back.run(w) == k.run(w)

    def test_text_round_trip(self):
        rng = random.Random(SEED + 5)
        # comb_dfa names its initial state "init"
        comb = comb_dfa(leaf_parity_dbta().minimize(), parse_tree("a(*,*)"), ("p", "q"))
        for k in (p_prefix_dfa(), even_p_dfa(), comb, *(random_dfa(rng) for _ in range(8))):
            text = k.to_text()
            back = parse_dfa(text)
            assert back.to_text() == text
            for w in words_up_to(("p", "q"), 5):
                assert back.run(w) == k.run(w)

    @pytest.mark.parametrize("extra, match", [
        ("q(yes) -> no", r"^line 13: second transition for q\(yes\), first on line 12$"),
        ("z(yes) -> no", r"^transition for \('yes', 'z'\) outside"),
        ("p(nowhere) -> no", r"^transition for \('nowhere', 'p'\) outside"),
        ("p(no,yes) -> no", r"^line 13: expected letter\(state\) -> state$"),
        # every bad line is reported before any repeated key
        ("q(yes) -> no\np(no,yes) -> no", r"^line 14: expected letter\(state\) -> state$"),
        ("q(yes) -> no\np(yes) -> no", r"^line 13: second transition for q\(yes\), first on line 12$"),
    ], ids=["repeated", "stray-letter", "stray-state", "bad-left-side", "bad-line-after-repeat",
            "first-of-two-repeats"])
    def test_bad_line_rejected(self, extra, match):
        with pytest.raises(FormatError, match=match):
            parse_dfa(p_prefix_dfa().to_text() + extra + "\n")

    @pytest.mark.parametrize("header", ["acepting: yes", "sink: no"])
    def test_unknown_header_rejected(self, header):
        # a misspelt accepting: header used to leave no accepting state
        text = p_prefix_dfa().to_text().replace("accepting: yes", header)
        name = header.split(":")[0]
        with pytest.raises(FormatError, match=rf"^line 6: unknown header '{name}'$"):
            parse_dfa(text)

    def test_empty_states_header_rejected(self):
        text = p_prefix_dfa().to_text().replace("states: no start yes", "states:")
        with pytest.raises(FormatError, match=r"^line 4: 'states' lists no state$"):
            parse_dfa(text)

    @pytest.mark.parametrize("edits, extra, message", [
        ([("initial: start\n", "")], "", "dfa: missing 'initial' header"),
        ([("q\n", "q/1\n")], "", "word automaton letters must all have arity 0"),
        # the letters' arities are checked once the file is read, so a
        # missing header is reported first
        ([("q\n", "q/1\n"), ("initial: start\n", "")], "", "dfa: missing 'initial' header"),
    ], ids=["missing-initial", "ranked-letter", "ranked-letter-no-initial"])
    def test_bad_skeleton_rejected(self, edits, extra, message):
        text = p_prefix_dfa().to_text()
        for old, new in edits:
            text = text.replace(old, new, 1)
        with pytest.raises(FormatError) as caught:
            parse_dfa(text + extra)
        assert str(caught.value) == message

    def test_parse_accepts_space_form(self):
        text = "alphabet:\np\nstates: s0 s1\ninitial: s0\naccepting: s1\np s0 -> s1\np s1 -> s1\n"
        k = parse_dfa(text)
        assert k.run(("p",))


class TestMinimize:
    def test_against_brute_force(self):
        rng = random.Random(SEED + 3)
        automata = [p_prefix_dfa(), even_p_dfa(), contains_factor_qp(), empty_dfa(),
                    threshold_dfa(5), length_one_dfa(), *(random_dfa(rng, max_states=6) for _ in range(40))]
        reduced = 0
        for k in automata:
            small = k.minimize()
            for w in words_up_to(k.alphabet, 8):
                assert small.run(w) == k.run(w)
            n = len(small.states)
            for p, q in itertools.combinations(small.states, 2):
                assert told_apart(small, p, q, n)
            assert {dfa_walk(small, small.initial, w) for w in words_up_to(k.alphabet, n)} == set(small.states)
            assert set(small.states) <= set(k.states)
            assert small.minimize().to_text() == small.to_text()
            reduced += n < len(k.states)
        assert reduced >= 10

    def test_states_named_by_least_member(self):
        """Each state of the minimal automaton is the least name, as a
        string, among the reachable states of its Nerode class; the classes
        come from acceptance on every word of at most as many letters as
        there are states.  In the first automaton the first state reached of
        each merged class is not its least name: s9 comes before s10, and s2
        before s11."""
        delta = {("s0", "p"): "s9", ("s0", "q"): "s10", ("s9", "p"): "s2", ("s9", "q"): "s9",
                 ("s10", "p"): "s11", ("s10", "q"): "s10"}
        delta.update({(q, a): q for q in ("s2", "s11") for a in "pq"})
        automata = [Dfa(("p", "q"), ("s0", "s2", "s9", "s10", "s11"), "s0", {"s2", "s11"}, delta)]
        rng = random.Random(SEED + 11)
        for _ in range(60):
            names = [f"s{i}" for i in rng.sample(range(20), rng.randint(1, 8))]
            delta = {(q, a): rng.choice(names[:rng.randint(1, len(names))]) for q in names for a in "pq"}
            accepting = {q for q in names if rng.random() < 0.4}
            automata.append(Dfa(("p", "q"), names, rng.choice(names), accepting, delta))
        merged = 0
        for k in automata:
            words = list(words_up_to(k.alphabet, len(k.states)))
            reach = {dfa_walk(k, k.initial, w) for w in words}
            classes = {}
            for q in reach:
                classes.setdefault(tuple(dfa_walk(k, q, w) in k.accepting for w in words), []).append(q)
            least = {q: min(members) for members in classes.values() for q in members}
            small = k.minimize()
            assert set(small.states) == set(least.values())
            assert small.initial == least[k.initial]
            assert small.delta == {(least[q], a): least[k.delta[(q, a)]] for q in reach for a in k.alphabet}
            merged += len(small.states) < len(reach)
        assert merged >= 10


class TestCfgDfaIntersection:
    def test_blocks_never_contain_factor_qp(self):
        empty, witness = cfg_dfa_intersection_empty(blocks_grammar(), contains_factor_qp())
        assert empty and witness is None

    def test_blocks_meet_all_words_at_pq(self):
        empty, witness = cfg_dfa_intersection_empty(blocks_grammar(), all_words_dfa())
        assert not empty and witness == ("p", "q")

    def test_empty_dfa_gives_empty_intersection(self):
        for grammar in (blocks_grammar(), palindrome_grammar()):
            empty, witness = cfg_dfa_intersection_empty(grammar, empty_dfa())
            assert empty and witness is None

    def test_alphabet_mismatch(self):
        bad = Dfa(("p",), ("s",), "s", {"s"}, {("s", "p"): "s"})
        with pytest.raises(AlphabetError):
            cfg_dfa_intersection_empty(blocks_grammar(), bad)

    def test_agreement_with_brute_force(self):
        grammars = (blocks_grammar(), palindrome_grammar(), p_initial_grammar())
        automata = (p_prefix_dfa(), even_p_dfa(), contains_factor_qp(), empty_dfa())
        for grammar in grammars:
            language = generate_words(grammar, 8)
            for dfa in automata:
                hits = sorted((w for w in language if dfa.run(w)),
                              key=lambda w: (len(w), w))
                empty, witness = cfg_dfa_intersection_empty(grammar, dfa)
                if hits:
                    assert not empty
                    # brute force bounds the length; the witness must match
                    # the (length, lex)-least hit whenever it is in range
                    if len(witness) <= 8:
                        assert witness == hits[0]
                else:
                    # nothing within length 8; only trust the emptiness
                    # verdict when it says nonempty with a longer witness
                    assert empty or len(witness) > 8

    def test_verdict_kept_past_the_witness_bound(self):
        four = fixed_length_grammar(2)
        assert generate_words(four, 5) == set(itertools.product("pq", repeat=4))
        outside = length_one_dfa().complement()
        assert cfg_dfa_intersection_empty(four, outside, max_witness_len=4) == (False, ("p",) * 4)
        assert cfg_dfa_intersection_empty(four, outside, max_witness_len=3) == (False, None)


class TestAgainstThreePass:
    """The fixpoint against the versions it replaced, kept in `oracles`: the
    derivable / min-length / per-length table passes, and the same fixpoint
    before its join was indexed, where every entry met every other."""

    def test_random_grammars(self):
        rng = random.Random(SEED)
        kinds = set()
        for _ in range(120):
            grammar, dfa = random_cnf_grammar(rng), random_dfa(rng)
            for bound in (64, 3, 1):
                got = cfg_dfa_intersection_empty(grammar, dfa, max_witness_len=bound)
                assert got == three_pass_intersection_empty(grammar, dfa, max_witness_len=bound)
                assert got == pairwise_intersection_empty(grammar, dfa, max_witness_len=bound)
                kinds.add("empty" if got[0] else "within" if got[1] is not None else "above")
        assert kinds == {"empty", "within", "above"}

    def test_random_grammar_needs_a_nonterminal_per_terminal(self):
        """One nonterminal can keep only one of two terminals, so the
        generator refuses before it draws, where it used to redraw forever."""
        rng = random.Random(SEED)
        state = rng.getstate()
        with pytest.raises(ValueError, match="1 nonterminals cannot keep all 2 terminals"):
            random_cnf_grammar(rng, nonterminals=1)
        assert rng.getstate() == state

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_threshold_dfas(self, m):
        k = threshold_dfa(m)
        for grammar in (palindrome_grammar(), nonpalindrome_grammar()):
            for dfa in (k, k.complement()):
                got = cfg_dfa_intersection_empty(grammar, dfa)
                assert got == three_pass_intersection_empty(grammar, dfa)
                assert len(got[1]) == (m if dfa is k else 2)

    @pytest.mark.parametrize("m", range(8, 19))
    def test_threshold_dfas_against_pairwise(self, m):
        """The three passes are too slow past m = 10; the all-pairs fixpoint
        takes the longer thresholds, at every bound."""
        k = threshold_dfa(m)
        for grammar in (palindrome_grammar(), nonpalindrome_grammar()):
            for dfa in (k, k.complement()):
                for bound in (64, 3, 1):
                    got = cfg_dfa_intersection_empty(grammar, dfa, max_witness_len=bound)
                    assert got == pairwise_intersection_empty(grammar, dfa, max_witness_len=bound)


class TestLeastTableCertificate:
    """`least_table_certified` accepts the tables the product builds and
    rejects each way a table can fail to be the least one."""

    def test_seeded_pairs(self):
        """At least 200 pairs of up to 32 states; `tests/conftest.py` runs the
        check on every table built here."""
        rng = random.Random(SEED + 13)
        pairs = [(random_cnf_grammar(rng), random_dfa(rng, max_states=32)) for _ in range(150)]
        for m in range(1, 33, 2):
            for grammar in (palindrome_grammar(), nonpalindrome_grammar()):
                pairs += [(grammar, threshold_dfa(m)), (grammar, threshold_dfa(m).complement())]
        assert len(pairs) >= 200 and max(len(dfa.states) for _, dfa in pairs) == 32
        sizes = set()
        for i, (grammar, dfa) in enumerate(pairs):
            bound = (64, 3)[i % 2]
            table = words._least_table(grammar, dfa, bound)
            assert least_table_certified(grammar, dfa, table, bound)
            sizes.add(len(table))
        assert len(sizes) > 50

    def test_broken_tables_rejected(self):
        grammar, dfa = palindrome_grammar(), threshold_dfa(6)
        table = words._least_table(grammar, dfa, 4)
        assert least_table_certified(grammar, dfa, table, 4)
        long = next(key for key, (length, _) in table.items() if 2 < length <= 4)
        above = next(key for key, (length, _) in table.items() if length > 4)
        length, word = table[long]
        spare = next(key for key in itertools.product(dfa.states, grammar.nonterminals, dfa.states)
                     if key not in table)
        edits = [
            (long, None),  # a derivable triple left out
            (long, (length, tuple(reversed(word)))),  # another word of that length, unless a palindrome
            (long, (length + 2, word + ("p", "p"))),  # not the least length
            (above, (table[above][0] + 1, None)),
            (long, (length, None)),  # no word within the bound
            (above, (table[above][0], ("p",) * table[above][0])),  # a word above the bound
            (spare, (5, None)),  # a triple nothing derives
            (long, (0, ())),
        ]
        rejected = 0
        for key, pair in edits:
            broken = {k: v for k, v in table.items() if k != key}
            if pair is not None:
                broken[key] = pair
            rejected += broken != table
            assert broken == table or not least_table_certified(grammar, dfa, broken, 4)
        assert rejected >= 7


class TestVerifySeparator:
    def test_violation_longer_than_the_witness_bound(self):
        # every word of G has 128 letters, above the default bound of 64
        g = fixed_length_grammar(7)
        report = verify_separator(length_one_dfa(), g, g)
        assert not report.separates
        assert report.violation_g is None and report.violation_h is None

    def test_grammars_over_different_terminals_rejected(self):
        h = parse_grammar("S -> A A; A -> p")
        with pytest.raises(AlphabetError, match=r"^the two grammars use different terminal alphabets$"):
            verify_separator(p_prefix_dfa(), p_initial_grammar(), h)

    def test_prefix_language_separates(self):
        report = verify_separator(p_prefix_dfa(), p_initial_grammar(), q_initial_grammar())
        assert report.separates
        assert report.violation_g is None and report.violation_h is None

    def test_all_words_fails_with_h_witness(self):
        report = verify_separator(all_words_dfa(), p_initial_grammar(), q_initial_grammar())
        assert not report.separates
        assert report.violation_h == ("q",)  # shortest word of the q-initial grammar

    def test_complement_of_h_cover_separates(self):
        # palindromes vs non-palindromes: no regular separator exists in
        # general, but within length-bounded checks the exactness shows up as
        # concrete violations for natural candidates
        report = verify_separator(even_p_dfa(), palindrome_grammar(), nonpalindrome_grammar())
        assert not report.separates
        g_lang = generate_words(palindrome_grammar(), 8)
        if report.violation_g is not None and len(report.violation_g) <= 8:
            assert report.violation_g in g_lang
            assert not even_p_dfa().run(report.violation_g)

    def test_exactness_cross_check(self):
        # separation verdicts agree with exhaustive enumeration up to length 8
        report = verify_separator(p_prefix_dfa(), p_initial_grammar(), q_initial_grammar())
        assert report.separates
        for w in generate_words(p_initial_grammar(), 8):
            assert p_prefix_dfa().run(w)
        for w in generate_words(q_initial_grammar(), 8):
            assert not p_prefix_dfa().run(w)
        for w in generate_words(q_initial_grammar(), 8):
            assert cyk_member(q_initial_grammar(), w)


def unreduced_report(dfa, grammar_g, grammar_h):
    """The separator report from the product on `dfa` as given."""
    ok_g, missed = cfg_dfa_intersection_empty(grammar_g, dfa.complement())
    ok_h, overlap = cfg_dfa_intersection_empty(grammar_h, dfa)
    return SeparatorReport(ok_g and ok_h, violation_g=missed, violation_h=overlap)


class TestVerifyOnQuotient:
    """`verify_separator` checks the minimal automaton; its report must be
    the one the unreduced automaton gives."""

    SMALL_PAIRS = [(p_initial_grammar, q_initial_grammar), (blocks_grammar, q_initial_grammar),
                   (pq_grammar, q_initial_grammar), (q_initial_grammar, p_initial_grammar)]

    @pytest.mark.parametrize("index", range(20))
    def test_comb_dfas(self, index):
        amin = minimal_dbta(dfs_from_dfa(criterion_dfas()[index], obf_sigma()))
        k = comb_dfa(amin, find_rotation_term(amin, 9).term, ("p", "q"))
        for g, h in [*self.SMALL_PAIRS, (palindrome_grammar, nonpalindrome_grammar)]:
            assert verify_separator(k, g(), h()) == unreduced_report(k, g(), h())

    def test_comb_dfa_is_reduced(self):
        amin = minimal_dbta(dfs_from_dfa(criterion_dfas()[18], obf_sigma()))
        k = comb_dfa(amin, find_rotation_term(amin, 9).term, ("p", "q"))
        assert (len(k.states), len(k.minimize().states)) == (57, 4)

    def test_random_automata(self):
        rng = random.Random(SEED + 4)
        outcomes = set()
        for _ in range(60):
            k = random_dfa(rng, max_states=6)
            g, h = random_cnf_grammar(rng), random_cnf_grammar(rng)
            report = verify_separator(k, g, h)
            assert report == unreduced_report(k, g, h)
            outcomes.add((report.separates, report.violation_g is None, report.violation_h is None))
        assert len(outcomes) >= 3
