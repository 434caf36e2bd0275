"""Ready-made inputs the test files share.

These are grammars, word automata, small tree automata and walkers, the
alphabets the tests range over, and `t`, the tests' short name for
`parse_tree`.  Each is written once, here.  `oracles.py` recomputes
expected values by a second route; nothing here computes an expected value.
The palindrome and non-palindrome texts and `obf_sigma` are imported from
`treesep.fixtures`, where the benchmark reads them.
"""

from __future__ import annotations

from functools import lru_cache

from treesep.bottomup import Dbta
from treesep.fixtures import NONPALINDROME_TEXT, PALINDROME_TEXT, obf_sigma
from treesep.grammar import CnfGrammar, parse_grammar
from treesep.trees import RankedAlphabet, parse_tree
from treesep.walking import ACCEPT, PARENT, REJECT, ROOT_TAG, STAY, Dtwa
from treesep.words import Dfa

t = parse_tree

SIGMA = obf_sigma()
TERNARY = RankedAlphabet({"f": 3, "g": 1, "p": 0, "q": 0})
ALPHABETS = {"obf": SIGMA, "ternary": TERNARY}

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


GRAMMARS = [pq_grammar, blocks_grammar, palindrome_grammar, nonpalindrome_grammar,
            p_initial_grammar, q_initial_grammar]


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


def return_stay_dtwa(alphabet=None) -> Dtwa:
    """Depth-first traversal that stays in place once after each return
    from a child, so it stays at every inner node at the tag that node has,
    not the tag of the child it came back from.  `d` walks down, `u{i}` is
    back from child i and `s{i}`, one stay later, goes on to child i + 1 or
    leaves.  It visits every node and accepts every tree."""
    alphabet = alphabet or obf_sigma()
    top = alphabet.maxarity
    delta = {}
    for letter, ar in alphabet.items():
        for tag in range(top + 1):
            leave = ACCEPT if tag == ROOT_TAG else (f"u{tag}", PARENT)
            delta[(letter, tag, "d")] = ("d", 1) if ar else leave
            for i in range(1, top + 1):
                delta[(letter, tag, f"u{i}")] = (f"s{i}", STAY)
                delta[(letter, tag, f"s{i}")] = ("d", i + 1) if i < ar else leave
    return Dtwa(alphabet, ["d"] + [f"{x}{i}" for x in "us" for i in range(1, top + 1)], "d", delta)


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
