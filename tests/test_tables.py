"""The integer-table tree side against the dict-level oracles.

`Dbta.minimize`, `Dbta.is_empty`, `is_associative` and the walker behaviour
composition run on integer tables; each must give exactly what the plain
dict-and-tree-walk routes in `oracles` give.
"""

import random

import pytest

from treesep.fixtures import (
    all_trees_dbta,
    blocks_grammar,
    height_bounded_dbta,
    leaf_parity_dbta,
    left_leaf_dbta,
    nonpalindrome_grammar,
    obf_sigma,
    p_initial_grammar,
    palindrome_grammar,
    pq_grammar,
    q_initial_grammar,
)
from treesep.bottomup import Dbta
from treesep.obfuscation import kop_nta
from treesep.rotation import is_associative
from treesep.trees import RankedAlphabet, Tree, enumerate_terms
from treesep.walking import behavior_compose, behavior_of_leaf, dfs_from_dfa, to_dbta

from oracles import (
    SEED,
    criterion_dfas,
    dict_behavior_compose,
    moore_minimize,
    random_dbtas,
    random_dtwa,
    round_robin_is_empty,
    tree_walk_is_associative,
)

TERNARY = RankedAlphabet({"f": 3, "g": 1, "p": 0, "q": 0})
ALPHABETS = {"obf": obf_sigma(), "ternary": TERNARY}
PAIR = RankedAlphabet({"a": 2, "c": 0})
GRAMMARS = [pq_grammar, blocks_grammar, palindrome_grammar, nonpalindrome_grammar,
            p_initial_grammar, q_initial_grammar]
# #18 (869 behaviors) alone takes about a minute in the oracles.
CRITERION = [i for i in range(20) if i != 18]


def criterion_dbta(index):
    return to_dbta(dfs_from_dfa(criterion_dfas()[index], obf_sigma()))


def random_tree(rng, alphabet, depth):
    letters = [name for name, ar in alphabet.items() if ar > 0 and depth > 0]
    if not letters or rng.random() < 0.3:
        return Tree(rng.choice(alphabet.zero_arity()))
    letter = rng.choice(letters)
    return Tree(letter, [random_tree(rng, alphabet, depth - 1)
                         for _ in range(alphabet.arity(letter))])


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestRandomAutomata:
    def test_minimize(self, alphabet):
        for dbta in random_dbtas(alphabet, 20):
            assert dbta.minimize().to_text() == moore_minimize(dbta).to_text()

    def test_is_empty(self, alphabet):
        for dbta in random_dbtas(alphabet, 20):
            for automaton in (dbta, dbta.complement()):
                assert automaton.is_empty() == round_robin_is_empty(automaton)
            # one accepting state at a time: every state's own least witness
            for q in dbta.states:
                if q != dbta.sink:
                    single = Dbta(alphabet, dbta.states, {q}, dbta.transitions, sink=dbta.sink)
                    assert single.is_empty() == round_robin_is_empty(single)

    def test_behavior_compose(self, alphabet):
        rng = random.Random(SEED)
        for _ in range(12):
            dtwa = random_dtwa(rng, alphabet, n_states=rng.randint(1, 4))
            for _ in range(20):
                tree = random_tree(rng, alphabet, depth=4)
                assert compiled_behavior(dtwa, tree) == oracle_behavior(dtwa, tree)


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


@pytest.mark.parametrize("index", CRITERION)
def test_criterion_walkers(index):
    dbta = criterion_dbta(index)
    amin = dbta.minimize()
    assert amin.to_text() == moore_minimize(dbta).to_text()
    assert dbta.is_empty() == round_robin_is_empty(dbta)
    flipped = dbta.complement()
    assert flipped.is_empty() == round_robin_is_empty(flipped)
    # The search's own candidates.  The oracle walks eval_term |Q|^3 times
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
