"""The saturation engine against the plain round-robin closure.

Every construction built on `saturate` must give byte-identical text (and
hence fingerprints and state names) to the loop that recomputes each letter
over a snapshot of all known states until nothing grows.
"""

import random

import pytest

from treesep.fixtures import (
    always_accept_dtwa,
    blocks_grammar,
    nonpalindrome_grammar,
    obf_sigma,
    p_initial_grammar,
    palindrome_grammar,
    pq_grammar,
    q_initial_grammar,
    stay_loop_dtwa,
)
from treesep.bottomup import Nta
from treesep.obfuscation import kop_nta
from treesep.trees import RankedAlphabet
from treesep.walking import dfs_from_dfa, to_dbta

from oracles import (
    SEED,
    criterion_dfas,
    random_dfa,
    random_dtwa,
    random_nta,
    round_robin_determinize,
    round_robin_to_dbta,
)

TERNARY = RankedAlphabet({"f": 3, "g": 1, "p": 0, "q": 0})
ALPHABETS = {"obf": obf_sigma(), "ternary": TERNARY}


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestAgainstRoundRobin:
    def test_determinize(self, alphabet):
        rng = random.Random(SEED)
        for _ in range(20):
            nta = random_nta(rng, alphabet, n_states=rng.randint(1, 4))
            assert nta.determinize().to_text() == round_robin_determinize(nta).to_text()
        # Nta.determinize indexes each letter's rows by their first child;
        # 4-6 states give subsets wide enough to skip most rows
        rng = random.Random(SEED + 23)
        for _ in range(6):
            nta = random_nta(rng, alphabet, n_states=rng.randint(4, 6))
            assert nta.determinize().to_text() == round_robin_determinize(nta).to_text()

    def test_to_dbta(self, alphabet):
        rng = random.Random(SEED)
        walkers = [always_accept_dtwa(alphabet), stay_loop_dtwa(alphabet)]
        walkers += [dfs_from_dfa(random_dfa(rng, max_states=2), alphabet) for _ in range(4)]
        walkers += [random_dtwa(rng, alphabet, n_states=rng.randint(1, 3)) for _ in range(6)]
        if alphabet.maxarity == 2:
            # over the ternary alphabet some 4-state walkers reach hundreds of
            # behaviours, i.e. tens of millions of table entries
            more = random.Random(SEED + 13)
            walkers += [random_dtwa(more, alphabet, n_states=more.randint(2, 4)) for _ in range(40)]
        for dtwa in walkers:
            assert to_dbta(dtwa).to_text() == round_robin_to_dbta(dtwa).to_text()


@pytest.mark.parametrize(
    "grammar",
    [pq_grammar, blocks_grammar, palindrome_grammar, nonpalindrome_grammar,
     p_initial_grammar, q_initial_grammar],
)
def test_kop_determinize(grammar):
    nta = kop_nta(grammar())
    assert nta.determinize().to_text() == round_robin_determinize(nta).to_text()


def test_determinize_few_rows_large_subsets():
    states = [f"n{i}" for i in range(8)]
    transitions = {
        "c": {(): frozenset(states)},
        "p": {(): frozenset(states[::2])},
        "q": {(): frozenset(states[1:4])},
        "a": {("n0", "n1"): frozenset({"n5"}), ("n7", "n3"): frozenset({"n0", "n6"}),
              ("n2", "n2"): frozenset({"n1", "n3", "n4"}), ("n5", "n6"): frozenset({"n7"})},
    }
    nta = Nta(obf_sigma(), states, {"n5", "n7"}, transitions)
    det = nta.determinize()
    assert det.to_text() == round_robin_determinize(nta).to_text()
    assert len(det.states) == 16  # 15 subsets and the sink


@pytest.mark.parametrize("index", [i for i in range(20) if i != 18])
def test_criterion_walkers_to_dbta(index):
    # #18 (869 behaviors) alone takes about a minute per construction.
    dtwa = dfs_from_dfa(criterion_dfas()[index], obf_sigma())
    assert to_dbta(dtwa).to_text() == round_robin_to_dbta(dtwa).to_text()
