"""Interchangeability of terms, re-association search, and separator extraction.

Two equal-arity terms are interchangeable for a language L when wrapping
either of them, filled with any subtrees, in any unary context gives the
same L-membership.  On a minimized reachable bottom-up automaton this holds
exactly when the two terms induce the same state transformation: distinct
minimized states are context-distinguishable and every reachable state is
realized by a concrete subtree.  That identification makes the search for a
re-association-invariant binary term a finite, exact procedure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .bottomup import Dbta
from .errors import AlphabetError, ArityError, ResourceError, RotationSearchExhausted
from .grammar import CnfGrammar
from .trees import (
    PORT,
    RankedAlphabet,
    Tree,
    compose,
    enumerate_terms,
    format_tree,
    rotate_at,
)
from .walking import Dtwa, to_dbta
from .words import Dfa, SeparatorReport, verify_separator

TUPLE_ARITY_CAP = 3  # ternary tables decide associativity; |Q|**3 is the budget


@dataclass(frozen=True)
class RotationWitness:
    """Binary term whose two ternary re-associations transform states equally."""

    term: Tree
    found_at_size: int
    fingerprint: str  # of the minimized automaton the term was verified against


def transformation(amin: Dbta, term: Tree, max_arity: int = TUPLE_ARITY_CAP) -> dict:
    """Full table of the state transformation induced by a term.

    Keyed by tuples over the automaton's states; `amin` should be minimized
    and reachable so that every tuple is realized by actual subtrees.
    """
    n = term.arity
    if n > max_arity:
        raise ResourceError(f"transformation tables capped at arity {max_arity}, term has {n} ports")
    return {
        key: amin.eval_term(term, key)
        for key in itertools.product(amin.states, repeat=n)
    }


def l_equivalent(amin: Dbta, t: Tree, u: Tree) -> bool:
    """Interchangeability of two equal-arity terms, decided by table equality."""
    if t.arity != u.arity:
        raise ArityError(f"terms have arities {t.arity} and {u.arity}")
    return transformation(amin, t) == transformation(amin, u)


def is_associative(amin: Dbta, term: Tree) -> bool:
    """Do t(t(x,y),z) and t(x,t(y,z)) transform states identically?

    Decided on the table B of `term` over pairs of states: the two
    re-associations agree exactly when B[B[x][y]][z] == B[x][B[y][z]] for
    all states x, y, z.
    """
    if term.arity != 2:
        raise ArityError(f"need a binary term, got arity {term.arity}")
    amin.alphabet.validate(term, ports=True)
    n = len(amin.states)
    flat = _pair_table(amin, term)
    rows = [flat[x * n:(x + 1) * n] for x in range(n)]
    return all(rows[bx[y]] == [bx[v] for v in rows[y]] for bx in rows for y in range(n))


def _pair_table(amin: Dbta, term: Tree) -> list:
    """Indices into `amin.states` of the state `term` makes of each pair of
    port states, row-major over the pairs.  Steps only the child-state tuples
    `eval_term` would step on some pair."""
    states = amin.states
    n = len(states)
    index = {q: i for i, q in enumerate(states)}
    ports = iter(([x for x in range(n) for _ in range(n)], list(range(n)) * n))
    known = {}  # letter -> {tuple of child indices: target index}

    def step(letter, key):
        seen = known.setdefault(letter, {})
        if key not in seen:
            seen[key] = index[amin.step(letter, tuple(states[i] for i in key))]
        return seen[key]

    def value(node):
        if node.label == PORT:
            return next(ports)
        if not node.children:
            return [step(node.label, ())] * (n * n)
        columns = zip(*[value(c) for c in node.children])
        return [step(node.label, key) for key in columns]

    return value(term)


def find_rotation_term(
    dbta: Dbta, max_size: int, binary_letter: str = "a", pad_letter: str = "c"
) -> RotationWitness:
    """Smallest binary term over the fresh pair whose re-associations agree.

    Minimizes the automaton, then tries candidates by node count with
    lexicographic tie-break, so found witnesses are reproducible.  Raises
    RotationSearchExhausted past the bound; for languages of deterministic
    tree-walking automata a witness exists at some finite size.
    """
    for name, want in ((binary_letter, 2), (pad_letter, 0)):
        if name not in dbta.alphabet or dbta.alphabet.arity(name) != want:
            raise AlphabetError(f"alphabet needs letter {name!r} with arity {want}")
    amin = dbta.minimize()
    fingerprint = amin.fingerprint()
    pair_alphabet = RankedAlphabet({binary_letter: 2, pad_letter: 0})
    for term in enumerate_terms(pair_alphabet, 2, max_size):
        if is_associative(amin, term):
            return RotationWitness(term, term.size, fingerprint)
    raise RotationSearchExhausted(max_size)


def tstar_members(term: Tree, arity: int, budget: int):
    """Members of the closure of {*} under t-composition, with `arity` ports.

    Yields at most `budget` members.  All n-port members have equal node
    count, so the order is by s-expression text.
    """
    if term.arity != 2:
        raise ArityError(f"need a binary term, got arity {term.arity}")
    if arity < 1:
        raise ValueError("closure members have at least one port")
    memo = {1: [Tree(PORT)]}

    def members(n):
        if n not in memo:
            out = []
            for i in range(1, n):
                for left in members(i):
                    for right in members(n - i):
                        out.append(compose(term, (left, right)))
            memo[n] = out
        return memo[n]

    yield from sorted(members(arity), key=format_tree)[:budget]


def comb_dfa(dbta: Dbta, term: Tree, gamma) -> Dfa:
    """Word automaton tracking the tree automaton along left combs of `term`.

    States are the tree automaton's states plus a fresh initial state; the
    first letter maps to the state of its one-node tree, and each further
    letter extends the comb by one composition step.  For an associative
    term, a word is accepted iff every closure member with that many ports,
    instantiated with the word's letters, is in the tree language.
    """
    gamma = tuple(sorted(set(gamma)))
    zero = set(dbta.alphabet.zero_arity())
    if not set(gamma) <= zero:
        raise AlphabetError("word letters must be arity-0 tree letters")
    if term.arity != 2:
        raise ArityError(f"need a binary term, got arity {term.arity}")
    dbta.alphabet.validate(term, ports=True)
    initial = "init"
    while initial in dbta.states:
        initial = "_" + initial
    leaf_state = {sigma: dbta.eval(Tree(sigma)) for sigma in gamma}
    delta = {}
    for sigma in gamma:
        delta[(initial, sigma)] = leaf_state[sigma]
        for q in dbta.states:
            delta[(q, sigma)] = dbta.eval_term(term, (q, leaf_state[sigma]))
    states = list(dbta.states) + [initial]
    return Dfa(gamma, states, initial, dbta.accepting, delta)


@dataclass
class ExtractReport:
    """Result of the separator-extraction pipeline."""

    status: str  # "ok" or "exhausted"
    search_bound: int
    witness: RotationWitness | None = None
    separator: Dfa | None = None
    verification: SeparatorReport | None = None

    @property
    def verified(self) -> bool:
        return self.status == "ok" and bool(self.verification)

    def to_json(self) -> str:
        doc = {"status": self.status, "search_bound": self.search_bound}
        if self.witness is not None:
            doc["witness"] = {
                "term": format_tree(self.witness.term),
                "found_at_size": self.witness.found_at_size,
                "fingerprint": self.witness.fingerprint,
            }
        if self.separator is not None:
            doc["separator"] = self.separator.to_text()
        if self.verification is not None:
            doc["verified"] = self.verification.separates
            doc["violations"] = {
                "missed_word": _word_or_none(self.verification.violation_g),
                "overlap_word": _word_or_none(self.verification.violation_h),
            }
        return json.dumps(doc, indent=2, sort_keys=True)


def _word_or_none(word):
    return None if word is None else " ".join(word)


def extract_separator(
    dtwa: Dtwa, grammar_g: CnfGrammar, grammar_h: CnfGrammar, search_bound: int
) -> ExtractReport:
    """Full pipeline from a walking automaton to a verified word separator.

    Converts to a bottom-up automaton, minimizes, searches for a
    re-association witness, reads off the comb word automaton, and checks the
    separation of the two grammars exactly.  If the walking automaton truly
    separates the two obfuscations, the produced word automaton verifies.
    """
    if set(grammar_g.terminals) != set(grammar_h.terminals):
        raise AlphabetError("the two grammars use different terminal alphabets")
    amin = to_dbta(dtwa).minimize()
    try:
        witness = find_rotation_term(amin, search_bound)
    except RotationSearchExhausted:
        return ExtractReport(status="exhausted", search_bound=search_bound)
    separator = comb_dfa(amin, witness.term, grammar_g.terminals)
    verification = verify_separator(separator, grammar_g, grammar_h)
    return ExtractReport(
        status="ok",
        search_bound=search_bound,
        witness=witness,
        separator=separator,
        verification=verification,
    )


def comb_normalize(tree: Tree, letter: str):
    """Left-normalize a tree built from one binary letter via single rotations.

    Returns (normal form, steps), each step a (path, "left") rotation whose
    pivot node and right child both carry `letter`.  On closure members of a
    pure binary term this reaches the left-comb form; every step preserves
    the leaf sequence.
    """
    steps = []
    current = tree

    def find(node, path):
        if node.label == letter and len(node.children) == 2:
            right = node.children[1]
            if right.label == letter and len(right.children) == 2:
                return path
        for i, child in enumerate(node.children, start=1):
            hit = find(child, path + (i,))
            if hit is not None:
                return hit
        return None

    while True:
        path = find(current, ())
        if path is None:
            return current, steps
        current = rotate_at(current, path, "left")
        steps.append((path, "left"))
