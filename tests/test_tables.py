"""The integer-table tree side against the dict-level oracles.

`Dbta.minimize`, `Dbta.is_empty`, `is_associative` and the walker behaviour
composition run on integer tables; each must give exactly what the plain
dict-and-tree-walk routes in `oracles` give.  A built automaton's tables are
read over the reachable states its construction found, a parsed one's are
saturated anew: both routes must agree.
"""

import itertools
import random

import pytest

from treesep.bottomup import Dbta, Nta, parse_dbta
from treesep.obfuscation import kop_nta
from treesep.rotation import is_associative
from treesep.trees import RankedAlphabet, enumerate_terms
from treesep.walking import dfs_from_dfa, to_dbta

from fixtures import (
    ALPHABETS,
    GRAMMARS,
    all_trees_dbta,
    height_bounded_dbta,
    leaf_parity_dbta,
    left_leaf_dbta,
    obf_sigma,
)
from oracles import (
    SEED,
    behavior_compose,
    behavior_of_leaf,
    criterion_dfas,
    dict_behavior_compose,
    moore_minimize,
    random_dbtas,
    random_dtwa,
    random_nta,
    random_tree,
    round_robin_complement,
    round_robin_is_empty,
    round_robin_product,
    round_robin_reachable,
    tree_walk_is_associative,
)

PAIR = RankedAlphabet({"a": 2, "c": 0})
# #18 (869 behaviors) alone takes about a minute in the oracles.
CRITERION = [i for i in range(20) if i != 18]


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
    assert sorted(built._reach) == sorted(round_robin_reachable(built))
    parsed = parse_dbta(built.to_text())
    assert parsed._reach is None
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
        assert any("dempty" in det._reach for det in partial)
        assert not any("dempty" in det._reach for det in total)
        for det in partial + total:
            assert det.sink == "dempty" and "dempty" in det.states
            assert_routes_agree(det)


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
