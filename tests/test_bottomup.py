import itertools
import random

import pytest

from treesep import fmt
from treesep.bottomup import Dbta, Nta, parse_dbta, parse_nta
from treesep.errors import AlphabetError, ArityError, FormatError, TransitionError
from treesep.obfuscation import kop_nta
from treesep.trees import RankedAlphabet, compose, enumerate_terms

from fixtures import SIGMA, height_bounded_dbta, leaf_parity_dbta, left_leaf_dbta, p_initial_grammar, t
from oracles import (
    SEED,
    brute_trees,
    eval_columns,
    nta_accepts,
    random_dbta,
    random_dbtas,
    random_nta,
    round_robin_product,
    round_robin_reachable,
    smallest_trees,
)


def reference_eval(dbta, tree):
    """Independent bottom-up evaluation straight off the tables."""
    kids = tuple(reference_eval(dbta, c) for c in tree.children)
    if dbta.sink is not None and dbta.sink in kids:
        return dbta.sink
    table = dbta.transitions[tree.label]
    return table.get(kids, dbta.sink) if dbta.sink is not None else table[kids]


class TestEval:
    def test_one_state_automaton(self):
        one = Dbta(SIGMA, ("q",), {"q"},
                   {letter: {("q",) * ar: "q"} for letter, ar in SIGMA.items()})
        for tree in (t("c"), t("a(p,q)"), t("a(a(p,c),q)")):
            assert one.eval(tree) == "q"
            assert one.accepts(tree)

    def test_parity_hand_simulation(self):
        parity = leaf_parity_dbta()
        # p -> odd, q -> even, a(q,p) -> odd, a(p, .) -> even
        assert parity.eval(t("a(p,a(q,p))")) == "even"
        assert parity.accepts(t("a(p,a(q,p))"))
        assert parity.eval(t("a(p,q)")) == "odd"

    def test_eval_matches_reference_on_all_small_trees(self):
        rng = random.Random(SEED)
        automata = [leaf_parity_dbta(), height_bounded_dbta(), left_leaf_dbta()]
        automata += [random_dbta(rng, SIGMA) for _ in range(3)]
        for dbta in automata:
            for tree in smallest_trees(SIGMA, 7):
                state = dbta.eval(tree)
                assert state == reference_eval(dbta, tree)
                assert dbta.accepts(tree) == (state in dbta.accepting)

    def test_letter_outside_alphabet(self):
        with pytest.raises(AlphabetError):
            leaf_parity_dbta().eval(t("b"))

    def test_missing_entry_without_sink(self):
        dbta = Dbta(SIGMA, ("q0",), {"q0"}, {"c": {(): "q0"}})
        with pytest.raises(TransitionError):
            dbta.eval(t("p"))

    def test_sink_absorbs(self):
        tall = height_bounded_dbta(limit=1)
        assert tall.eval(t("a(a(p,q),c)")) == "tall"
        assert not tall.accepts(t("a(a(p,q),c)"))
        assert tall.accepts(t("a(p,q)"))


class TestEvalTerm:
    """`oracles.eval_columns`, the name-level reference the oracles step
    terms with, against `Dbta.eval`."""

    def test_identity_port(self):
        parity = leaf_parity_dbta()
        assert eval_columns(parity, t("*"), [("odd",)])[0] == "odd"

    def test_ground_term_is_plain_eval(self):
        parity = leaf_parity_dbta()
        assert eval_columns(parity, t("a(p,q)"), [])[0] == parity.eval(t("a(p,q)"))

    @pytest.mark.parametrize("columns", [[], [["odd"]], [["odd"], ["even"], ["odd"]]],
                             ids=["none", "too-few", "too-many"])
    def test_column_count_must_match_ports(self, columns):
        with pytest.raises(ArityError):
            eval_columns(leaf_parity_dbta(), t("a(*,*)"), columns)

    def test_columns_of_unequal_length(self):
        with pytest.raises(ArityError):
            eval_columns(leaf_parity_dbta(), t("a(*,*)"), [["odd"], ["even", "odd"]])

    def test_bare_port_returns_a_new_list(self):
        column = ["odd", "even"]
        got = eval_columns(leaf_parity_dbta(), t("*"), [column])
        assert got == column and got is not column

    def test_substitution_oracle(self):
        rng = random.Random(SEED + 1)
        two_binary = RankedAlphabet({"a": 2, "b": 2, "p": 0, "q": 0})
        other = random.Random(SEED + 2)
        cases = [
            (SIGMA, [leaf_parity_dbta(), height_bounded_dbta(), random_dbta(rng, SIGMA)]),
            # two letters of one arity: each letter's steps are its own
            (two_binary, [random_dbta(other, two_binary) for _ in range(3)]),
        ]
        for alphabet, automata in cases:
            terms = [u for u in brute_trees(alphabet, 5, ports=2)]
            fillers = sorted(brute_trees(alphabet, 4), key=lambda x: (x.size, str(x)))
            for dbta in automata:
                for term in rng.sample(terms, min(25, len(terms))):
                    for _ in range(6):
                        args = (rng.choice(fillers), rng.choice(fillers))
                        via_states = eval_columns(dbta, term, [(dbta.eval(s),) for s in args])[0]
                        assert via_states == dbta.eval(compose(term, args))


class TestDeterminize:
    def test_functional_relation_is_isomorphic_on_reachable_part(self):
        parity = leaf_parity_dbta()
        relation = {
            letter: {key: frozenset({value}) for key, value in table.items()}
            for letter, table in parity.transitions.items()
        }
        nta = Nta(SIGMA, parity.states, parity.accepting, relation)
        det = nta.determinize()
        for tree in smallest_trees(SIGMA, 7):
            assert det.accepts(tree) == parity.accepts(tree)
        reachable = [q for q in round_robin_reachable(det) if q != det.sink]
        assert len(reachable) == 2

    def test_empty_relation_letterwise_gives_sink(self):
        nta = Nta(SIGMA, ("n0",), {"n0"},
                  {"c": {(): frozenset({"n0"})}, "a": {}, "p": {}, "q": {}})
        det = nta.determinize()
        assert det.eval(t("p")) == det.sink
        assert det.accepts(t("c"))
        assert not det.accepts(t("a(c,c)"))

    def test_language_preserved_on_random_ntas(self):
        rng = random.Random(SEED + 2)
        for _ in range(6):
            nta = random_nta(rng, SIGMA)
            det = nta.determinize()
            for tree in smallest_trees(SIGMA, 7):
                assert det.accepts(tree) == nta_accepts(nta, tree)


class TestMinimize:
    def test_already_minimal_keeps_state_count(self):
        parity = leaf_parity_dbta()
        assert len(parity.minimize().states) == 2

    def test_duplicate_states_merge(self):
        # two copies of "even" behave identically and must merge
        transitions = {
            "p": {(): "odd"},
            "q": {(): "even1"},
            "c": {(): "even2"},
            "a": {},
        }
        for x, px in (("even1", 0), ("even2", 0), ("odd", 1)):
            for y, py in (("even1", 0), ("even2", 0), ("odd", 1)):
                transitions["a"][(x, y)] = "odd" if (px + py) % 2 else "even1"
        dup = Dbta(SIGMA, ("even1", "even2", "odd"), {"even1", "even2"}, transitions)
        small = dup.minimize()
        assert len(small.states) == 2
        for tree in smallest_trees(SIGMA, 6):
            assert small.accepts(tree) == dup.accepts(tree)

    def test_language_preserved_and_not_larger(self):
        rng = random.Random(SEED + 3)
        automata = [leaf_parity_dbta(), height_bounded_dbta(), left_leaf_dbta()]
        automata += [random_dbta(rng, SIGMA, n_states=4) for _ in range(4)]
        for dbta in automata:
            small = dbta.minimize()
            assert len(small.states) <= len(dbta.states)
            for tree in smallest_trees(SIGMA, 7):
                assert small.accepts(tree) == dbta.accepts(tree)

    def test_minimized_states_are_context_distinguishable(self):
        rng = random.Random(SEED + 4)
        automata = [leaf_parity_dbta(), height_bounded_dbta(), left_leaf_dbta()]
        automata += [random_dbta(rng, SIGMA, n_states=6) for _ in range(3)]
        for dbta in automata:
            small = dbta.minimize()
            contexts = list(enumerate_terms(SIGMA, 1, 7))
            for q1, q2 in itertools.combinations(small.states, 2):
                assert any(
                    (eval_columns(small, ctx, [(q1,)])[0] in small.accepting)
                    != (eval_columns(small, ctx, [(q2,)])[0] in small.accepting)
                    for ctx in contexts
                ), f"{q1} and {q2} look equivalent"

    def test_determinize_then_minimize_idempotent(self):
        rng = random.Random(SEED + 5)
        for nta in (random_nta(rng, SIGMA), random_nta(rng, SIGMA)):
            once = nta.determinize().minimize()
            twice = once.minimize()
            assert len(once.states) == len(twice.states)
            assert once.to_text() == twice.minimize().to_text()


class TestBoolean:
    def test_self_difference_empty(self):
        a = leaf_parity_dbta()
        empty, witness = round_robin_product(a, a, "andnot").is_empty()
        assert empty and witness is None


class TestEmptiness:
    def test_witness_is_accepted_and_minimal(self):
        from treesep.trees import format_tree

        rng = random.Random(SEED + 6)
        for _ in range(8):
            dbta = random_dbta(rng, SIGMA)
            empty, witness = dbta.is_empty()
            accepted = [u for u in smallest_trees(SIGMA, 5) if dbta.accepts(u)]
            if empty:
                assert witness is None and not accepted
            else:
                assert dbta.accepts(witness)
                if accepted:
                    # any accepted tree within the sweep bounds the minimum, so
                    # the witness must be the (size, sexpr)-least accepted tree
                    best = min(accepted, key=lambda u: (u.size, format_tree(u)))
                    assert witness == best

    def test_even_parity_witness_is_single_leaf(self):
        empty, witness = leaf_parity_dbta().is_empty()
        assert not empty
        assert witness == t("c")  # smallest accepted tree, lex-least among size 1


class TestTextFormat:
    def test_dbta_round_trip(self):
        # random total automata and determinized random NTAs (d{i}, sink
        # dempty), a product (x|y) and minimized automata (m{k})
        product = round_robin_product(leaf_parity_dbta(), left_leaf_dbta(), "and")
        for dbta in (leaf_parity_dbta(), height_bounded_dbta().minimize(), product,
                     product.minimize(), *random_dbtas(SIGMA, 4)):
            text = dbta.to_text()
            back = parse_dbta(text)
            assert back.to_text() == text
            for tree in smallest_trees(SIGMA, 5):
                assert back.accepts(tree) == dbta.accepts(tree)

    def test_nta_round_trip(self):
        rng = random.Random(SEED + 7)
        for n_states in (3, 1, 2, 4, 4):
            nta = random_nta(rng, SIGMA, n_states)
            back = parse_nta(nta.to_text())
            assert back.to_text() == nta.to_text()
            for tree in smallest_trees(SIGMA, 5):
                assert nta_accepts(back, tree) == nta_accepts(nta, tree)

    @pytest.mark.parametrize("parse, text, match", [
        # the file's own p() -> odd is line 13
        (parse_dbta, leaf_parity_dbta().to_text() + "p() -> even\n",
         r"^line 15: second transition for p\(\), first on line 13$"),
        # an NTA lists all targets of a key in its one set
        (parse_nta, kop_nta(p_initial_grammar()).to_text() + "c() -> {P_A}\n",
         r"^line 54: second transition for c\(\), first on line 51$"),
        (parse_dbta, leaf_parity_dbta().to_text().replace("p/0\n", "p/0\np/1\n"),
         r"^line 5: letter 'p' listed twice$"),
        (parse_dbta, height_bounded_dbta().to_text().replace("sink: tall", "sink: tall h0"),
         r"^line 8: 'sink' names one state"),
        # a digit that int() does not take
        (parse_dbta, leaf_parity_dbta().to_text().replace("a/2", "a/\u00b2"),
         r"^line 2: bad arity"),
        # each format takes only its own headers
        (parse_dbta, leaf_parity_dbta().to_text().replace("accepting: even", "initial: even"),
         r"^line 7: unknown header 'initial'$"),
        (parse_dbta, leaf_parity_dbta().to_text().replace("accepting:", "acepting:"),
         r"^line 7: unknown header 'acepting'$"),
        (parse_nta, kop_nta(p_initial_grammar()).to_text().replace("accepting:", "sink: C\naccepting:"),
         r"^line 7: unknown header 'sink'$"),
        (parse_dbta, leaf_parity_dbta().to_text().replace("states: even odd", "states:"),
         r"^line 6: 'states' lists no state$"),
    ], ids=["repeated-dbta-key", "repeated-nta-key", "repeated-letter", "two-token-sink",
            "superscript-arity", "dbta-initial", "dbta-misspelt", "nta-sink", "empty-states"])
    def test_bad_file_rejected(self, parse, text, match):
        with pytest.raises(FormatError, match=match):
            parse(text)

    @pytest.mark.parametrize("transitions, sink, forms, error, match", [
        ({"a": {("even",): {"even"}}}, None, "dbta nta", ArityError, r"^'a' transition keyed by 1 states, arity is 2$"),
        ({"a": {("even", "nowhere"): {"even"}}}, None, "dbta nta", FormatError,
         r"^undeclared state in transition a\('even', 'nowhere'\) -> "),
        ({"c": {(): {"nowhere"}}}, None, "dbta nta", FormatError, r"^undeclared state in transition c\(\) -> "),
        ({"a": {("even", "odd"): {"even"}}}, "odd", "dbta", FormatError,
         "^transitions touching the sink must yield the sink$"),
        # an NTA drops an empty target set only after checking its entry
        ({"a": {("even",): set()}}, None, "nta", ArityError, r"^'a' transition keyed by 1 states, arity is 2$"),
    ], ids=["arity", "undeclared-key", "undeclared-target", "sink-escapes", "empty-set-arity"])
    def test_bad_table_rejected(self, transitions, sink, forms, error, match):
        """The public constructors, and the parsers that build through them,
        check every entry; only tables built from just-declared states skip
        the checks.  Each case patches the NTA form of the leaf-parity
        table; its DBTA form takes the one state of each target set."""
        sets = {letter: {key: {value} for key, value in rows.items()}
                for letter, rows in leaf_parity_dbta().transitions.items()}
        for letter, rows in transitions.items():
            sets[letter].update(rows)
        states, headers = ("even", "odd"), {"states": ("even", "odd"), "accepting": ["even"]}
        builds = []
        if "dbta" in forms:
            table = {letter: {key: min(values) for key, values in rows.items()} for letter, rows in sets.items()}
            dbta_text = fmt.write(SIGMA.items(), {**headers, "sink": sink},
                                  [f"{letter}({','.join(key)}) -> {value}"
                                   for letter, rows in table.items() for key, value in rows.items()])
            builds += [lambda: Dbta(SIGMA, states, {"even"}, table, sink=sink), lambda: parse_dbta(dbta_text)]
        if "nta" in forms:
            nta_text = fmt.write(SIGMA.items(), headers,
                                 [f"{letter}({','.join(key)}) -> {{{','.join(sorted(values))}}}"
                                  for letter, rows in sets.items() for key, values in rows.items()])
            builds += [lambda: Nta(SIGMA, states, {"even"}, sets), lambda: parse_nta(nta_text)]
        for build in builds:
            with pytest.raises(error, match=match):
                build()

    def test_fingerprint_stability(self):
        assert leaf_parity_dbta().fingerprint() == leaf_parity_dbta().fingerprint()
        assert leaf_parity_dbta().fingerprint() != left_leaf_dbta().fingerprint()
