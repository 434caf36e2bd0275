"""The integer-table tree side against the dict-level oracles.

`Dbta.eval`, `Dbta.minimize`, `Dbta.is_empty`, `is_associative`, `comb_dfa`
and the walker behaviour composition run on integer tables; each must give
exactly what the plain dict-and-tree-walk routes in `oracles` give.  A built
automaton's tables are read over the reachable states its construction
found, a parsed one's are saturated anew: both routes must agree, and both
must raise the same error at a missing entry.
"""

import itertools
import random
import sys
import threading
import tracemalloc

import pytest

from treesep.bottomup import Dbta, Nta, parse_dbta
from treesep.errors import TransitionError
from treesep.obfuscation import kop_nta
from treesep.rotation import comb_dfa, is_associative
from treesep.trees import RankedAlphabet, enumerate_terms
from treesep.walking import dfs_from_dfa, minimal_dbta, to_dbta
from treesep.words import Dfa

from fixtures import (
    ALPHABETS,
    GRAMMARS,
    all_trees_dbta,
    height_bounded_dbta,
    leaf_parity_dbta,
    left_leaf_dbta,
    obf_sigma,
    t,
)
from oracles import (
    SEED,
    behavior_compose,
    behavior_of_leaf,
    criterion_dfas,
    dict_behavior_compose,
    eval_columns,
    moore_minimize,
    random_dbtas,
    random_dtwa,
    random_nta,
    random_tree,
    recursive_eval,
    round_robin_complement,
    round_robin_is_empty,
    round_robin_product,
    round_robin_reachable,
    round_robin_to_dbta,
    step,
    tree_walk_is_associative,
)

PAIR = RankedAlphabet({"a": 2, "c": 0})
# #18 (869 behaviors) alone takes about a minute in the oracles.
CRITERION = [i for i in range(20) if i != 18]
# The oracles step every tuple of behaviours: a two-state ternary walker can
# have over a hundred, so ternary walkers get one state.
WALKER_STATES = {"obf": (1, 3), "ternary": (1, 1)}


def criterion_dbta(index):
    return to_dbta(dfs_from_dfa(criterion_dfas()[index], obf_sigma()))


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestRandomAutomata:
    def test_minimize(self, alphabet):
        for dbta in random_dbtas(alphabet, 20):
            assert dbta.minimize().to_text() == moore_minimize(dbta).to_text()

    def test_is_empty(self, alphabet):
        for dbta in random_dbtas(alphabet, 20):
            for automaton in (dbta, round_robin_complement(dbta)):
                assert automaton.is_empty() == round_robin_is_empty(automaton)
            # one accepting state at a time: every state's own least witness
            for q in dbta.states:
                if q != dbta.sink:
                    single = Dbta(alphabet, dbta.states, {q}, dbta.transitions, sink=dbta.sink)
                    assert single.is_empty() == round_robin_is_empty(single)

    def test_built_tables_pass_constructor_checks(self, alphabet):
        # determinize (half of random_dbtas) and minimize build without the
        # per-entry checks
        for dbta in random_dbtas(alphabet, 20):
            flipped = round_robin_complement(dbta)
            union = round_robin_product(dbta, flipped, "or")
            for built in (dbta, flipped, union, dbta.minimize(), union.minimize()):
                assert_passes_checks(built)

    def test_behavior_compose(self, alphabet):
        rng = random.Random(SEED)
        for _ in range(12):
            dtwa = random_dtwa(rng, alphabet, n_states=rng.randint(1, 4))
            for _ in range(20):
                tree = random_tree(rng, alphabet, depth=4)
                assert compiled_behavior(dtwa, tree) == oracle_behavior(dtwa, tree)


def assert_routes_agree(built):
    """`minimize` and `is_empty` read the table of a built automaton over
    the reachable states its construction passed; on the same text re-read
    by `parse_dbta` they saturate the table anew.  Both routes must give
    what the oracles give."""
    assert sorted(built._tables()[0]) == sorted(round_robin_reachable(built))
    parsed = parse_dbta(built.to_text())
    assert parsed._table_cache is None
    small = built.minimize().to_text()
    assert small == parsed.minimize().to_text() == moore_minimize(built).to_text()
    assert built.is_empty() == parsed.is_empty() == round_robin_is_empty(built)


def total_nta(rng, alphabet, n_states):
    """A random NTA with a target at every key, so no tuple of nonempty
    subsets lacks an entry and its subset construction never reaches the
    empty subset."""
    nta = random_nta(rng, alphabet, n_states)
    states = nta.states
    transitions = {
        letter: {key: nta.transitions[letter].get(key) or {rng.choice(states)}
                 for key in itertools.product(states, repeat=ar)}
        for letter, ar in alphabet.items()
    }
    return Nta(alphabet, states, nta.accepting, transitions)


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestReadRoute:
    def test_to_dbta_and_quotient_of_quotient(self, alphabet):
        rng = random.Random(SEED + 21)
        for _ in range(8):
            dbta = to_dbta(random_dtwa(rng, alphabet, n_states=rng.randint(1, 3)))
            assert_routes_agree(dbta)
            amin = dbta.minimize()
            assert_routes_agree(amin)
            assert_routes_agree(amin.minimize())

    def test_product_and_complement(self, alphabet):
        automata = random_dbtas(alphabet, 4)
        ops = itertools.cycle(("and", "or", "andnot"))
        for left, right, op in zip(automata, automata[1:] + automata[:1], ops):
            # the round-robin twins are built through the checked
            # constructor; their quotients take the read route
            assert_routes_agree(round_robin_complement(left).minimize())
            assert_routes_agree(round_robin_product(left, right, op).minimize())

    def test_determinize_with_and_without_reachable_sink(self, alphabet):
        rng = random.Random(SEED + 22)
        partial = [random_nta(rng, alphabet, n_states=rng.randint(1, 3)).determinize() for _ in range(8)]
        total = [total_nta(rng, alphabet, n_states=rng.randint(1, 3)).determinize() for _ in range(4)]
        assert any("dempty" in det._tables()[0] for det in partial)
        assert not any("dempty" in det._tables()[0] for det in total)
        for det in partial + total:
            assert det.sink == "dempty" and "dempty" in det.states
            assert_routes_agree(det)


@pytest.mark.parametrize("name", ALPHABETS)
def test_factored_tables_against_name_level_oracles(name):
    """`to_dbta` keeps its rows over read-slot classes, each behaviour
    reading them at its class.  Every reader of that table must give what
    the oracles read off the behaviour-level automaton they build by name."""
    alphabet = ALPHABETS[name]
    rng = random.Random(SEED + 24)
    trees = [random_tree(rng, alphabet, depth=4) for _ in range(10)]
    terms = list(itertools.islice(enumerate_terms(alphabet, 2, 5), 6))
    factored = 0
    for _ in range(100):
        dtwa = random_dtwa(rng, alphabet, n_states=rng.randint(*WALKER_STATES[name]))
        built, want = to_dbta(dtwa), round_robin_to_dbta(dtwa)
        reach, proj, m = built._tables()[:3]
        factored += m < len(reach)
        for tree in trees:
            assert built.eval(tree) == recursive_eval(want, tree)
        assert built.is_empty() == round_robin_is_empty(want)
        for term in terms:
            states, flat = built._pair_table(term)
            made = {(x, y): states[target] for (x, y), target in zip(itertools.product(states, repeat=2), flat)}
            assert made == pair_states(want, term)
        assert built.minimize().to_text() == moore_minimize(want).to_text()
        assert built._named is None
        assert built.transitions == want.transitions
    assert factored >= 80


def test_to_dbta_holds_the_class_table():
    """#18 has 869 behaviours in 56 read-slot classes: its table holds the
    56 ** 2 + 3 class entries and one row coordinate per behaviour, not one
    entry per pair of behaviours."""
    built = criterion_dbta(18)
    reach, proj, m, rows, _ = built._tables()
    assert (len(reach), m) == (869, 56)
    entries = sum(len(flat) for _, flat in rows.values())
    assert entries == 3139
    assert entries + len(proj) == 4008


def test_eval_reads_factored_rows_in_place():
    """`eval` reads `to_dbta`'s class-level rows as they are: a second
    evaluation of a three-node tree on #18 allocates no per-call copy of
    its 3,139 entries."""
    built = criterion_dbta(18)
    tree = t("a(p,q)")
    want = built.eval(tree)
    tracemalloc.start()
    try:
        assert built.eval(tree) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_threads_name_one_built_table():
    """Eight threads read `transitions` of a built automaton whose named
    view does not exist yet; each gets the entries the oracles build."""
    dtwa = dfs_from_dfa(criterion_dfas()[3], obf_sigma())
    behaviours = round_robin_to_dbta(dtwa)
    for dbta, want in ((to_dbta(dtwa), behaviours), (to_dbta(dtwa).minimize(), moore_minimize(behaviours))):
        assert dbta._named is None
        got = []
        start = threading.Barrier(8)

        def read(dbta=dbta):
            start.wait(timeout=60)
            got.append(dbta.transitions)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want.transitions] * 8


def test_pipeline_leaves_built_tables_unnamed():
    """Evaluation, minimisation, emptiness and term tables read only the
    integer table of a built automaton, so none of them names its entries."""
    dtwa = dfs_from_dfa(criterion_dfas()[3], obf_sigma())
    built = to_dbta(dtwa)
    for dbta in (built, built.minimize(), minimal_dbta(dtwa)):
        dbta.eval(t("a(a(p,q),c)"))
        dbta.minimize()
        dbta.is_empty()
        dbta._pair_table(t("a(*,a(c,*))"))
        assert dbta._named is None


def assert_passes_checks(dbta):
    rebuilt = Dbta(dbta.alphabet, dbta.states, dbta.accepting, dbta.transitions, sink=dbta.sink)
    assert (rebuilt.states, rebuilt.accepting, rebuilt.sink) == (dbta.states, dbta.accepting, dbta.sink)
    assert rebuilt.transitions == dbta.transitions


def compiled_behavior(dtwa, tree):
    if not tree.children:
        return behavior_of_leaf(dtwa, tree.label)
    return behavior_compose(dtwa, tree.label, [compiled_behavior(dtwa, c) for c in tree.children])


def oracle_behavior(dtwa, tree):
    return dict_behavior_compose(dtwa, tree.label, [oracle_behavior(dtwa, c) for c in tree.children])


def test_associativity_on_random_automata():
    for dbta in random_dbtas(obf_sigma(), 20):
        amin = dbta.minimize()
        for term in enumerate_terms(amin.alphabet, 2, 5):
            assert is_associative(amin, term) == tree_walk_is_associative(amin, term)


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_kop_minimize(grammar):
    dbta = kop_nta(grammar()).determinize()
    assert dbta.minimize().to_text() == moore_minimize(dbta).to_text()
    assert_passes_checks(dbta)
    assert_passes_checks(dbta.minimize())


@pytest.mark.parametrize("index", CRITERION)
def test_criterion_walkers(index):
    dbta = criterion_dbta(index)
    amin = dbta.minimize()
    assert amin.to_text() == moore_minimize(dbta).to_text()
    assert_passes_checks(dbta)
    assert_passes_checks(amin)
    assert dbta.is_empty() == round_robin_is_empty(dbta)
    flipped = round_robin_complement(dbta)
    assert flipped.is_empty() == round_robin_is_empty(flipped)
    # The search's own candidates.  The oracle's tables have |Q|^3 entries
    # per term, so #19's 24 states get the terms up to 5 nodes only.
    for term in enumerate_terms(PAIR, 2, 7 if len(amin.states) <= 12 else 5):
        assert is_associative(amin, term) == tree_walk_is_associative(amin, term)


@pytest.mark.parametrize(
    "fixture", [all_trees_dbta, leaf_parity_dbta, height_bounded_dbta, left_leaf_dbta]
)
def test_associativity_on_rotation_fixtures(fixture):
    amin = fixture().minimize()
    for term in enumerate_terms(amin.alphabet, 2, 7):
        assert is_associative(amin, term) == tree_walk_is_associative(amin, term)


def pair_states(amin, term):
    """{(x, y): state} of a binary term over all pairs of `amin.states`,
    by the name-level `eval_columns`."""
    pairs = list(itertools.product(amin.states, repeat=2))
    return dict(zip(pairs, eval_columns(amin, term, [[x for x, _ in pairs], [y for _, y in pairs]])))


def test_term_tables_against_name_level_references():
    """`comb_dfa` and `is_associative` read the integer table over the
    reachable states; on minimized automata, where those are all the states,
    they must equal references stepped on state names."""
    gamma = ("p", "q")
    for dbta in random_dbtas(obf_sigma(), 40):
        amin = dbta.minimize()
        for term in enumerate_terms(PAIR, 2, 7):
            made = pair_states(amin, term)
            associative = all(made[(made[(x, y)], z)] == made[(x, made[(y, z)])]
                              for x, y, z in itertools.product(amin.states, repeat=3))
            assert is_associative(amin, term) == associative
            initial = "init"
            while initial in amin.states:
                initial = "_" + initial
            delta = {}
            for sigma in gamma:
                leaf = delta[(initial, sigma)] = step(amin, sigma, ())
                delta.update({(q, sigma): made[(q, leaf)] for q in amin.states})
            want = Dfa(gamma, [*amin.states, initial], initial, amin.accepting, delta)
            assert comb_dfa(amin, term, gamma).to_text() == want.to_text()


PARTIAL_TEXT = """
alphabet:
a/2
c
p
q
states: x y
c -> x
q -> x
p -> y
a(x,x) -> x
a(x,y) -> y
a(y,x) -> x
"""


@pytest.mark.parametrize("text, evaluates, bad_tree, term, message", [
    (PARTIAL_TEXT, {"a(c,p)": "y"}, "a(p,p)", "a(*,*)", "no transition for a('y', 'y') and no sink"),
    # no entry at all: no state is reachable, so the pair table has no pairs
    ("alphabet:\na/2\nc\np\nq\nstates: x\n", {}, "c", "a(a(*,c),*)", "no transition for c() and no sink"),
], ids=["partial", "no-entry"])
def test_missing_entry_without_a_sink(text, evaluates, bad_tree, term, message):
    """A tree that avoids the missing entry evaluates; every entry point
    that reaches it raises the same error."""
    dbta = parse_dbta(text)
    term = t(term)
    for tree, state in evaluates.items():
        assert dbta.eval(t(tree)) == state
    for call in (lambda: dbta.eval(t(bad_tree)), dbta.minimize, dbta.is_empty,
                 lambda: is_associative(dbta, term), lambda: comb_dfa(dbta, term, ("p", "q"))):
        with pytest.raises(TransitionError) as caught:
            call()
        assert str(caught.value) == message
