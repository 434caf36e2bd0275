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
from treesep.obfuscation import kop_nta
from treesep.trees import RankedAlphabet
from treesep.walking import dfs_from_dfa, to_dbta

from oracles import (
    SEED,
    criterion_dfas,
    random_dbtas,
    random_dfa,
    random_dtwa,
    random_nta,
    round_robin_complement,
    round_robin_determinize,
    round_robin_product,
    round_robin_reachable,
    round_robin_to_dbta,
)

TERNARY = RankedAlphabet({"f": 3, "g": 1, "p": 0, "q": 0})
ALPHABETS = {"obf": obf_sigma(), "ternary": TERNARY}


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestAgainstRoundRobin:
    def test_reachable_order(self, alphabet):
        for dbta in random_dbtas(alphabet, 15):
            assert dbta.reachable() == round_robin_reachable(dbta)

    def test_complement(self, alphabet):
        for dbta in random_dbtas(alphabet, 15):
            assert dbta.complement().to_text() == round_robin_complement(dbta).to_text()

    def test_product(self, alphabet):
        automata = random_dbtas(alphabet, 6)
        for left, right in zip(automata, automata[1:] + automata[:1]):
            for op in ("and", "or", "andnot"):
                got = left.product(right, op).to_text()
                assert got == round_robin_product(left, right, op).to_text()

    def test_determinize(self, alphabet):
        rng = random.Random(SEED)
        for _ in range(20):
            nta = random_nta(rng, alphabet, n_states=rng.randint(1, 4))
            assert nta.determinize().to_text() == round_robin_determinize(nta).to_text()

    def test_to_dbta(self, alphabet):
        rng = random.Random(SEED)
        walkers = [always_accept_dtwa(alphabet), stay_loop_dtwa(alphabet)]
        walkers += [dfs_from_dfa(random_dfa(rng, max_states=2), alphabet) for _ in range(4)]
        walkers += [random_dtwa(rng, alphabet, n_states=rng.randint(1, 3)) for _ in range(6)]
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


@pytest.mark.parametrize("index", [i for i in range(20) if i != 18])
def test_criterion_walkers_to_dbta(index):
    # #18 (869 behaviors) alone takes about a minute per construction.
    dtwa = dfs_from_dfa(criterion_dfas()[index], obf_sigma())
    assert to_dbta(dtwa).to_text() == round_robin_to_dbta(dtwa).to_text()
