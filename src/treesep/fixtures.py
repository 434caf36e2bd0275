"""Ready-made grammars, word automata, and small tree automata.

The palindrome / non-palindrome pair is shaped so that every derivation of
the first grammar has a terminal right child at the root and every
derivation of the second has a terminal left child at the root; both
generate only words of length at least two, where those shapes are possible.
"""

from __future__ import annotations

from functools import lru_cache

from .bottomup import Dbta
from .grammar import CnfGrammar, parse_grammar
from .trees import RankedAlphabet
from .walking import ACCEPT, REJECT, STAY, Dtwa
from .words import Dfa

PQ_TEXT = """
start: S
S -> A B
A -> p
B -> q
"""

# p^n q^n for n >= 1
BLOCKS_TEXT = """
start: S
S -> A B
S -> A T
T -> S B
A -> p
B -> q
"""

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

P_INITIAL_TEXT = """
start: S
S -> p
S -> A D
D -> p
D -> q
D -> A D
D -> B D
A -> p
B -> q
"""

Q_INITIAL_TEXT = """
start: S
S -> q
S -> B D
D -> p
D -> q
D -> A D
D -> B D
A -> p
B -> q
"""


@lru_cache(maxsize=None)
def pq_grammar() -> CnfGrammar:
    """L = {pq}."""
    return parse_grammar(PQ_TEXT)


@lru_cache(maxsize=None)
def blocks_grammar() -> CnfGrammar:
    """L = {p^n q^n : n >= 1}."""
    return parse_grammar(BLOCKS_TEXT)


@lru_cache(maxsize=None)
def palindrome_grammar() -> CnfGrammar:
    """Palindromes over {p, q} of length >= 2; root derivations end in a leaf."""
    return parse_grammar(PALINDROME_TEXT)


@lru_cache(maxsize=None)
def nonpalindrome_grammar() -> CnfGrammar:
    """Non-palindromes over {p, q}; root derivations start with a leaf."""
    return parse_grammar(NONPALINDROME_TEXT)


@lru_cache(maxsize=None)
def p_initial_grammar() -> CnfGrammar:
    return parse_grammar(P_INITIAL_TEXT)


@lru_cache(maxsize=None)
def q_initial_grammar() -> CnfGrammar:
    return parse_grammar(Q_INITIAL_TEXT)


def obf_sigma() -> RankedAlphabet:
    """The working alphabet {a/2, c/0, p/0, q/0} used across the fixtures."""
    return RankedAlphabet({"a": 2, "c": 0, "p": 0, "q": 0})


def p_prefix_dfa() -> Dfa:
    """Words over {p, q} starting with p."""
    delta = {
        ("start", "p"): "yes",
        ("start", "q"): "no",
        ("yes", "p"): "yes",
        ("yes", "q"): "yes",
        ("no", "p"): "no",
        ("no", "q"): "no",
    }
    return Dfa(("p", "q"), ("start", "yes", "no"), "start", {"yes"}, delta)


def even_p_dfa() -> Dfa:
    """Words over {p, q} with an even number of p."""
    delta = {
        ("even", "p"): "odd",
        ("even", "q"): "even",
        ("odd", "p"): "even",
        ("odd", "q"): "odd",
    }
    return Dfa(("p", "q"), ("even", "odd"), "even", {"even"}, delta)


def all_words_dfa(alphabet=("p", "q")) -> Dfa:
    delta = {("all", letter): "all" for letter in alphabet}
    return Dfa(alphabet, ("all",), "all", {"all"}, delta)


def leaf_parity_dbta() -> Dbta:
    """Trees with an even number of p-leaves."""
    alphabet = obf_sigma()
    transitions = {
        "p": {(): "odd"},
        "q": {(): "even"},
        "c": {(): "even"},
        "a": {
            ("even", "even"): "even",
            ("even", "odd"): "odd",
            ("odd", "even"): "odd",
            ("odd", "odd"): "even",
        },
    }
    return Dbta(alphabet, ("even", "odd"), {"even"}, transitions)


def height_bounded_dbta(limit: int = 2) -> Dbta:
    """Trees of height at most `limit` (a single leaf has height 0).

    Deliberately shape-sensitive: re-associating changes heights.
    """
    alphabet = obf_sigma()
    names = [f"h{i}" for i in range(limit + 1)]
    sink = "tall"
    transitions = {letter: {(): "h0"} for letter in ("p", "q", "c")}
    table = {}
    for i in range(limit + 1):
        for j in range(limit + 1):
            top = max(i, j) + 1
            if top <= limit:
                table[(f"h{i}", f"h{j}")] = f"h{top}"
    transitions["a"] = table
    return Dbta(alphabet, names + [sink], set(names), transitions, sink=sink)


def left_leaf_dbta() -> Dbta:
    """Trees whose root is binary and whose root's left child is a leaf."""
    alphabet = obf_sigma()
    transitions = {letter: {(): "leaf"} for letter in ("p", "q", "c")}
    table = {}
    for left in ("leaf", "good", "deep"):
        for right in ("leaf", "good", "deep"):
            table[(left, right)] = "good" if left == "leaf" else "deep"
    transitions["a"] = table
    return Dbta(alphabet, ("leaf", "good", "deep"), {"good"}, transitions)


def all_trees_dbta(alphabet=None) -> Dbta:
    alphabet = alphabet or obf_sigma()
    transitions = {letter: {("ok",) * ar: "ok"} for letter, ar in alphabet.items()}
    return Dbta(alphabet, ("ok",), {"ok"}, transitions)


def always_accept_dtwa(alphabet=None) -> Dtwa:
    alphabet = alphabet or obf_sigma()
    delta = {
        (letter, tag, "go"): ACCEPT
        for letter, _ in alphabet.items()
        for tag in range(alphabet.maxarity + 1)
    }
    return Dtwa(alphabet, ("go",), "go", delta)


def stay_loop_dtwa(alphabet=None) -> Dtwa:
    """Walks in place forever; accepts nothing, every run loops."""
    alphabet = alphabet or obf_sigma()
    delta = {
        (letter, tag, "spin"): ("spin", STAY)
        for letter, _ in alphabet.items()
        for tag in range(alphabet.maxarity + 1)
    }
    return Dtwa(alphabet, ("spin",), "spin", delta)


def left_leaf_dtwa(alphabet=None) -> Dtwa:
    """Accepts trees whose root is binary and whose first child is a leaf.

    Shape-sensitive on purpose: the language of this walker has no small
    re-association-invariant term, so searches against it exhaust.
    """
    alphabet = alphabet or obf_sigma()
    delta = {}
    for letter, ar in alphabet.items():
        for tag in range(alphabet.maxarity + 1):
            for state in ("start", "check"):
                delta[(letter, tag, state)] = REJECT
        if ar >= 1:
            delta[(letter, 0, "start")] = ("check", 1)
        for tag in range(1, alphabet.maxarity + 1):
            if ar == 0:
                delta[(letter, tag, "check")] = ACCEPT
    return Dtwa(alphabet, ("start", "check"), "start", delta)
