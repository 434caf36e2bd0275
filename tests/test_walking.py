import itertools
import random

import pytest

from treesep.errors import AlphabetError, ArityError, FormatError
from treesep.trees import Tree
from treesep.walking import (
    ACCEPT,
    ESCAPE,
    LOOP,
    PARENT,
    REJECT,
    STAY,
    Dtwa,
    dfs_from_dfa,
    minimal_dbta,
    parse_dtwa,
    to_dbta,
)

from fixtures import SIGMA, all_words_dfa, always_accept_dtwa, even_p_dfa, p_prefix_dfa, stay_loop_dtwa, t
from oracles import (
    SEED,
    behavior_compose,
    behavior_of_leaf,
    bounded_run,
    criterion_dfas,
    leaves_left_to_right,
    moore_minimize,
    random_dfa,
    random_dtwa,
    read_slot_classes,
    round_robin_to_dbta,
    run_inside_host,
    smallest_trees,
)


def escape_dtwa():
    """Moves to the parent immediately; escapes at the root on any tree."""
    delta = {
        (letter, tag, "out"): ("out", PARENT)
        for letter, _ in SIGMA.items()
        for tag in range(SIGMA.maxarity + 1)
    }
    return Dtwa(SIGMA, ("out",), "out", delta)


def behavior_of_tree(dtwa, tree):
    if not tree.children:
        return behavior_of_leaf(dtwa, tree.label)
    children = [behavior_of_tree(dtwa, c) for c in tree.children]
    return behavior_compose(dtwa, tree.label, children)


class TestRun:
    def test_always_accept_in_zero_moves(self):
        w = always_accept_dtwa()
        for tree in (t("c"), t("a(p,q)"), t("a(a(p,c),q)")):
            outcome = w.run(tree)
            assert outcome.kind == ACCEPT and outcome.steps == 0

    def test_stay_loop_detected_after_one_step(self):
        w = stay_loop_dtwa()
        for tree in (t("c"), t("a(p,q)")):
            outcome = w.run(tree)
            assert outcome.kind == LOOP and outcome.steps == 1

    def test_escape_at_root(self):
        outcome = escape_dtwa().run(t("a(p,q)"))
        assert outcome.kind == ESCAPE and outcome.steps == 1
        assert escape_dtwa().run(t("a(p,q)")).kind != ACCEPT

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            always_accept_dtwa().run(t("z"))

    def test_totality_validated(self):
        with pytest.raises(FormatError):
            Dtwa(SIGMA, ("q",), "q", {("a", 0, "q"): ACCEPT})

    def test_stray_key_rejected(self):
        delta = dict(always_accept_dtwa().delta)
        delta[("a", 0, "elsewhere")] = ACCEPT
        with pytest.raises(FormatError, match="'elsewhere'"):
            Dtwa(SIGMA, ("go",), "go", delta)

    def test_child_moves_bounded_by_arity(self):
        delta = {
            (letter, tag, "q"): ACCEPT
            for letter, _ in SIGMA.items()
            for tag in range(SIGMA.maxarity + 1)
        }
        delta[("c", 0, "q")] = ("q", 1)  # child move on an arity-0 letter
        with pytest.raises(FormatError):
            Dtwa(SIGMA, ("q",), "q", delta)

    @pytest.mark.parametrize("changes, message", [
        # the first missing slot in (letter, tag, state) order
        ({("c", 0, "q"): None, ("a", 2, "q"): None, ("a", 1, "r"): None},
         "missing action for letter 'a', tag 1, state 'r'; the transition map must be total"),
        ({("p", 1, "q"): ("nowhere", PARENT)}, "undeclared state 'nowhere' in action for ('p', 1, 'q')"),
        ({("a", 0, "r"): ("q", 3)}, "move 3 out of range for letter 'a' of arity 2"),
        ({("c", 2, "q"): ("q", -2)}, "move -2 out of range for letter 'c' of arity 0"),
        ({("a", 3, "q"): ACCEPT}, "action for ('a', 3, 'q') outside the letters, tags and states"),
        # a fault at an earlier slot is reported first, whatever its kind
        ({("a", 0, "q"): ("nowhere", STAY), ("a", 0, "r"): None},
         "undeclared state 'nowhere' in action for ('a', 0, 'q')"),
        ({("a", 0, "q"): None, ("a", 0, "r"): ("q", 3)},
         "missing action for letter 'a', tag 0, state 'q'; the transition map must be total"),
        # stray keys are looked for once every slot has passed
        ({("z", 0, "q"): ACCEPT, ("q", 2, "r"): ("q", 1)}, "move 1 out of range for letter 'q' of arity 0"),
    ], ids=["missing", "undeclared-target", "move-past-arity", "move-below-parent", "stray-key",
            "target-before-missing", "missing-before-move", "move-before-stray"])
    def test_constructor_reports_first_fault(self, changes, message):
        delta = {(letter, tag, q): (q, STAY) for letter, _ in SIGMA.items()
                 for tag in range(SIGMA.maxarity + 1) for q in ("q", "r")}
        for key, act in changes.items():
            if act is None:
                del delta[key]
            else:
                delta[key] = act
        with pytest.raises(FormatError) as caught:
            Dtwa(SIGMA, ("q", "r"), "q", delta)
        assert str(caught.value) == message

    def test_agrees_with_step_bounded_simulator(self):
        fixtures = [always_accept_dtwa(), stay_loop_dtwa(), escape_dtwa()]
        fixtures += [dfs_from_dfa(k, SIGMA) for k in (even_p_dfa(), p_prefix_dfa())]
        for w in fixtures:
            for tree in smallest_trees(SIGMA, 9):
                assert w.run(tree).kind == bounded_run(w, tree)

    def test_trace_is_collected(self):
        w = dfs_from_dfa(even_p_dfa(), SIGMA)
        outcome = w.run(t("a(p,q)"), collect_trace=True)
        assert outcome.trace[0] == (w.initial, (), 0)
        assert len(outcome.trace) == outcome.steps + 1

    def test_deep_left_comb(self):
        # The depth-first walker visits each non-root node once going down
        # and once coming up, so the run takes exactly 2 * (nodes - 1) moves.
        dfa = even_p_dfa()
        w = dfs_from_dfa(dfa, SIGMA)
        rng = random.Random(SEED)
        word = [rng.choice("pq") for _ in range(4096)]
        for first in "pq":
            word[0] = first
            tree = Tree(first)
            for letter in word[1:]:
                tree = Tree("a", (tree, Tree(letter)))
            outcome = w.run(tree)
            assert outcome.kind == (ACCEPT if dfa.run(word) else REJECT)
            assert outcome.steps == 2 * (2 * len(word) - 2) == 16380


class TestDfsFromDfa:
    def test_all_words_dfa_accepts_everything(self):
        w = dfs_from_dfa(all_words_dfa(), SIGMA)
        for tree in smallest_trees(SIGMA, 9):
            assert w.run(tree).kind == ACCEPT

    def test_even_p_examples_match_leaf_word_oracle(self):
        k = even_p_dfa()
        w = dfs_from_dfa(k, SIGMA)
        for text in ("a(p,a(q,p))", "a(p,a(q,a(p,c)))"):
            tree = t(text)
            word = tuple(x for x in leaves_left_to_right(tree) if x in {"p", "q"})
            assert (w.run(tree).kind == ACCEPT) == k.run(word)
        # concrete values, from the oracle: both leaf words are p q p
        assert w.run(t("a(p,a(q,p))")).kind == ACCEPT
        assert w.run(t("a(p,a(q,a(p,c)))")).kind == ACCEPT

    def test_exhaustive_leaf_word_agreement(self):
        rng = random.Random(SEED + 8)
        gamma = {"p", "q"}
        for k in [random_dfa(rng) for _ in range(6)]:
            w = dfs_from_dfa(k, SIGMA)
            for tree in smallest_trees(SIGMA, 9):
                word = tuple(x for x in leaves_left_to_right(tree) if x in gamma)
                outcome = w.run(tree)
                assert outcome.kind in (ACCEPT, REJECT), "dfs must never loop or escape"
                assert (outcome.kind == ACCEPT) == k.run(word)

    def test_word_alphabet_must_be_leaf_letters(self):
        bad = random_dfa(random.Random(0), alphabet=("p", "a"))
        with pytest.raises(AlphabetError):
            dfs_from_dfa(bad, SIGMA)


class TestBehaviors:
    def test_all_reject_leaf(self):
        delta = {
            (letter, tag, "q"): REJECT
            for letter, _ in SIGMA.items()
            for tag in range(SIGMA.maxarity + 1)
        }
        w = Dtwa(SIGMA, ("q",), "q", delta)
        reject_leaf = behavior_of_leaf(w, "c")
        assert set(reject_leaf.values()) == {("reject",)}
        composed = behavior_compose(w, "a", (reject_leaf, reject_leaf))
        assert set(composed.values()) == {("reject",)}

    def test_arity_checked(self):
        w = always_accept_dtwa()
        with pytest.raises(ArityError):
            behavior_of_leaf(w, "a")
        with pytest.raises(ArityError):
            behavior_compose(w, "a", (behavior_of_leaf(w, "c"),))

    def test_deterministic_and_congruent(self):
        w = dfs_from_dfa(even_p_dfa(), SIGMA)
        first = behavior_of_tree(w, t("a(p,c)"))
        second = behavior_of_tree(w, t("a(p,c)"))
        assert first == second
        # equal child behaviors give equal compositions even for distinct trees
        left = behavior_of_tree(w, t("a(p,c)"))
        right = behavior_of_tree(w, t("a(c,p)"))
        if left == right:
            assert behavior_compose(w, "a", (left, left)) == behavior_compose(w, "a", (right, right))

    def test_matches_direct_run_inside_host(self):
        fixtures = [
            dfs_from_dfa(even_p_dfa(), SIGMA),
            dfs_from_dfa(p_prefix_dfa(), SIGMA),
            stay_loop_dtwa(),
        ]
        for w in fixtures:
            for subtree in smallest_trees(SIGMA, 7):
                behavior = behavior_of_tree(w, subtree)
                for tag in range(SIGMA.maxarity + 1):
                    for q in w.states:
                        assert behavior[(tag, q)] == run_inside_host(w, subtree, tag, q), (
                            f"disagreement at tag {tag}, state {q} on {subtree!r}"
                        )


class TestToDbta:
    def test_always_accept_single_behavior(self):
        dbta = to_dbta(always_accept_dtwa())
        assert len(dbta.states) == 1
        for tree in smallest_trees(SIGMA, 6):
            assert dbta.accepts(tree)

    def test_stay_loop_accepts_nothing(self):
        dbta = to_dbta(stay_loop_dtwa())
        empty, witness = dbta.is_empty()
        assert empty and witness is None

    def test_exhaustive_agreement_with_runs(self):
        automata = [dfs_from_dfa(k, SIGMA) for k in (even_p_dfa(), p_prefix_dfa())]
        automata += [stay_loop_dtwa(), escape_dtwa()]
        for w in automata:
            dbta = to_dbta(w)
            for tree in smallest_trees(SIGMA, 9):
                assert dbta.accepts(tree) == (w.run(tree).kind == ACCEPT)

    def test_minimized_behavior_counts_regression(self):
        # measured on the fixtures; the count is bounded by
        # |word automaton states| * (maxarity + 2)
        measured = {}
        for name, k in (("even_p", even_p_dfa()), ("p_prefix", p_prefix_dfa())):
            small = minimal_dbta(dfs_from_dfa(k, SIGMA))
            measured[name] = len(small.states)
            assert len(small.states) <= len(k.states) * (SIGMA.maxarity + 2)
        assert measured == {"even_p": 2, "p_prefix": 3}


class TestMinimalDbta:
    """`minimal_dbta` against the staged `to_dbta(w).minimize()`, text for
    text, so state names and fingerprints agree too.  Both come from
    `_classes`, so the random walkers are also checked against the
    round-robin closure and Moore refinement of `tests/oracles.py`."""

    @pytest.mark.parametrize("index", range(20))
    def test_criterion_walkers(self, index):
        w = dfs_from_dfa(criterion_dfas()[index], SIGMA)
        assert minimal_dbta(w).to_text() == to_dbta(w).minimize().to_text()

    def test_random_word_automata(self):
        # up to 3 states keeps every walker under 250 behaviours
        rng = random.Random(SEED + 11)
        for _ in range(40):
            w = dfs_from_dfa(random_dfa(rng, max_states=3), SIGMA)
            assert minimal_dbta(w).to_text() == to_dbta(w).minimize().to_text()

    def test_random_walkers(self):
        rng = random.Random(SEED + 12)
        finer = 0
        for i in range(60):
            w = random_dtwa(rng, SIGMA, n_states=rng.randint(2, 4))
            small = minimal_dbta(w)
            assert small.to_text() == to_dbta(w).minimize().to_text()
            assert small.to_text() == moore_minimize(round_robin_to_dbta(w)).to_text()
            if i < 10:
                finer += read_slot_classes(w)[1] > len(small.states)
        # read-slot classes are often finer than the minimal automaton, so
        # these walkers exercise `minimize` on the class automaton
        assert finer >= 5

    def test_fixture_walkers(self):
        for w in (always_accept_dtwa(), stay_loop_dtwa(), escape_dtwa()):
            assert minimal_dbta(w).to_text() == to_dbta(w).minimize().to_text()


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(SEED + 9)
        randoms = [random_dtwa(rng, SIGMA, n_states=rng.randint(1, 4)) for _ in range(6)]
        for w in (dfs_from_dfa(even_p_dfa(), SIGMA), stay_loop_dtwa(), *randoms):
            text = w.to_text()
            back = parse_dtwa(text)
            assert back.to_text() == text
            for tree in smallest_trees(SIGMA, 5):
                assert back.run(tree).kind == w.run(tree).kind

    def test_bad_action_rejected(self):
        w = stay_loop_dtwa()
        text = w.to_text().replace("spin stay", "spin hop", 1)
        with pytest.raises(FormatError):
            parse_dtwa(text)

    @pytest.mark.parametrize("extra, match", [
        ("a[root] spin -> accept", r"^line 20: second transition for a\[root\] spin, first on line 8$"),
        ("a[9] spin -> accept", r"^action for \('a', 9, 'spin'\) outside"),
        ("z[1] spin -> accept", r"^action for \('z', 1, 'spin'\) outside"),
        # a digit that int() does not take
        ("a[root] spin -> spin child \u00b2", r"^line 20: bad action"),
    ], ids=["repeated", "stray-tag", "stray-letter", "superscript-child"])
    def test_bad_line_rejected(self, extra, match):
        with pytest.raises(FormatError, match=match):
            parse_dtwa(stay_loop_dtwa().to_text() + extra + "\n")

    def test_unknown_header_rejected(self):
        text = stay_loop_dtwa().to_text().replace("initial: spin", "initial: spin\naccepting: spin")
        with pytest.raises(FormatError, match=r"^line 8: unknown header 'accepting'$"):
            parse_dtwa(text)

    def test_child_zero_rejected(self):
        # "child 0" would otherwise read as a stay move
        text = stay_loop_dtwa().to_text().replace("spin stay", "spin child 0", 1)
        with pytest.raises(FormatError, match=r"^line 8: "):
            parse_dtwa(text)
