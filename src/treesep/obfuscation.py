"""Grammar obfuscation: derivations with nonterminal nodes replaced by
arbitrary binary terms over two fresh letters.

For a derivation d the obfuscated set is defined by
``obf(leaf s) = {s}`` and
``obf(X(t1,t2)) = {s(s1,s2) : s a binary term over the fresh pair,
s1 in obf(t1), s2 in obf(t2)}``.  The language of a grammar is the union
over all derivations.  Note the set only depends on the derivation's shape
and leaf labels, never on which nonterminals appear.
"""

from __future__ import annotations

from functools import lru_cache

from .bottomup import Dbta, Nta
from .errors import AlphabetError
from .grammar import CnfGrammar
from .trees import RankedAlphabet, Tree

FRESH_PAIR = ("a", "c")


def obf_alphabet(grammar: CnfGrammar) -> RankedAlphabet:
    """Grammar terminals as arity-0 letters plus the fresh binary/leaf pair."""
    binary, pad = FRESH_PAIR
    if binary in grammar.terminals or pad in grammar.terminals:
        raise AlphabetError(f"fresh letters {FRESH_PAIR} collide with the terminals")
    letters = {t: 0 for t in grammar.terminals}
    letters[binary] = 2
    letters[pad] = 0
    return RankedAlphabet(letters)


def kop_nta(grammar: CnfGrammar) -> Nta:
    """Nondeterministic tree automaton recognising the obfuscation.

    States: C for pure fresh-letter trees; per nonterminal X a leaf-member
    state L_X (exactly the letters with a leaf rule from X), a padded-leaf
    carrier P_X (a leaf member wrapped at least once, usable inside a larger
    member but never a member itself), and a binary-member state B_X (closed
    under padding, since wrapping a binary member yields another member).
    Without the P_X carriers the automaton would miss members whose leaf
    argument sits below padding, e.g. the tree obtained by wrapping the left
    argument of a two-leaf derivation.
    """
    binary, pad = FRESH_PAIR
    alphabet = obf_alphabet(grammar)
    c_state = "C"

    def l(x):
        return f"L_{x}"

    def p(x):
        return f"P_{x}"

    def b(x):
        return f"B_{x}"

    states = {c_state}
    for x in grammar.nonterminals:
        states |= {l(x), p(x), b(x)}
    transitions = {pad: {(): frozenset({c_state})}}
    for sigma in grammar.terminals:
        targets = {l(x) for x in grammar.leaf_index.get(sigma, ())}
        if targets:
            transitions[sigma] = {(): frozenset(targets)}
    table = {}

    def add(key, value):
        table.setdefault(key, set()).add(value)

    add((c_state, c_state), c_state)
    for x in grammar.nonterminals:
        add((l(x), c_state), p(x))
        add((c_state, l(x)), p(x))
        add((p(x), c_state), p(x))
        add((c_state, p(x)), p(x))
        add((b(x), c_state), b(x))
        add((c_state, b(x)), b(x))
    for x, y, z in grammar.binary_rules:
        for left in (l(y), p(y), b(y)):
            for right in (l(z), p(z), b(z)):
                add((left, right), b(x))
    transitions[binary] = {key: frozenset(values) for key, values in table.items()}
    accepting = {l(grammar.start), b(grammar.start)}
    return Nta(alphabet, states, accepting, transitions)


@lru_cache(maxsize=32)
def kop_dbta(grammar: CnfGrammar) -> Dbta:
    """Determinization of the obfuscation automaton, memoized per grammar."""
    return kop_nta(grammar).determinize()


def kop_member(grammar: CnfGrammar, tree: Tree) -> bool:
    """Is the tree in the obfuscation of the grammar?

    The automaton is over `obf_alphabet(grammar)`, so building it rejects
    colliding fresh letters and its `eval` rejects trees outside that
    alphabet.
    """
    return kop_dbta(grammar).accepts(tree)
