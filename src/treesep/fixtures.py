"""The benchmark's inputs: the palindrome and non-palindrome grammar texts
and the alphabet `obf_sigma`, and nothing else.

`perfbench/run.py` reads these three names, so they stay in the package
until the benchmark has its own copies (ROADMAP.md, item 1).  The tests'
grammars and automata, these two among them, are in `tests/fixtures.py`.

The palindrome / non-palindrome pair is shaped so that every derivation of
the first grammar has a terminal right child at the root and every
derivation of the second has a terminal left child at the root; both
generate only words of length at least two, where those shapes are possible.
"""

from __future__ import annotations

from .trees import RankedAlphabet

PALINDROME_TEXT = """
start: S
S -> A A
S -> B B
S -> Pa A
S -> Qb B
Pa -> A N
Qb -> B N
N -> p
N -> q
N -> A A
N -> B B
N -> A Na
N -> B Nb
Na -> N A
Nb -> N B
A -> p
B -> q
"""

NONPALINDROME_TEXT = """
start: S
S -> A Rp
S -> B Rq
Rp -> q
Rp -> D B
Rp -> S A
Rq -> p
Rq -> D A
Rq -> S B
D -> p
D -> q
D -> A D
D -> B D
A -> p
B -> q
"""


def obf_sigma() -> RankedAlphabet:
    """The working alphabet {a/2, c/0, p/0, q/0} used across the fixtures."""
    return RankedAlphabet({"a": 2, "c": 0, "p": 0, "q": 0})
