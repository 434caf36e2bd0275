"""Re-association search, comb word automata, and separator extraction.

Two equal-arity terms are interchangeable for a language L when wrapping
either of them, filled with any subtrees, in any unary context gives the
same L-membership.  On a minimized reachable bottom-up automaton this holds
exactly when the two terms induce the same state transformation: distinct
minimized states are context-distinguishable and every reachable state is
realized by a concrete subtree.  That identification makes the search for a
re-association-invariant binary term a finite, exact procedure; the comb word
automaton of the term found is the separator `extract_separator` verifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bottomup import Dbta
from .errors import AlphabetError, RotationSearchExhausted
from .grammar import CnfGrammar
from .obfuscation import FRESH_PAIR, obf_alphabet
from .trees import RankedAlphabet, Tree, enumerate_terms, format_tree
from .walking import Dtwa, minimal_dbta
from .words import Dfa, SeparatorReport, verify_separator


@dataclass(frozen=True)
class RotationWitness:
    """Binary term whose two ternary re-associations transform states equally."""

    term: Tree
    found_at_size: int
    fingerprint: str  # of `dbta.minimize()`, the automaton the term was verified against


def is_associative(amin: Dbta, term: Tree) -> bool:
    """Do t(t(x,y),z) and t(x,t(y,z)) transform states identically?

    Decided on the table B of `term` over pairs of reachable states
    (`Dbta._pair_table`): the two re-associations agree exactly when
    B[B[x][y]][z] == B[x][B[y][z]] for all reachable states x, y, z.
    """
    reach, flat = amin._pair_table(term)
    n = len(reach)
    rows = [flat[x * n:(x + 1) * n] for x in range(n)]
    return all(rows[bx[y]] == [bx[v] for v in rows[y]] for bx in rows for y in range(n))


def find_rotation_term(dbta: Dbta, max_size: int) -> RotationWitness:
    """Smallest binary term over the fresh pair whose re-associations agree.

    Minimizes the automaton, then tries candidates by node count with
    lexicographic tie-break, so found witnesses are reproducible.  Raises
    RotationSearchExhausted past the bound; for languages of deterministic
    tree-walking automata a witness exists at some finite size.
    """
    binary, pad = FRESH_PAIR
    for name, want in ((binary, 2), (pad, 0)):
        if name not in dbta.alphabet or dbta.alphabet.arity(name) != want:
            raise AlphabetError(f"alphabet needs letter {name!r} with arity {want}")
    amin = dbta.minimize()
    fingerprint = amin.fingerprint()
    pair_alphabet = RankedAlphabet({binary: 2, pad: 0})
    for term in enumerate_terms(pair_alphabet, 2, max_size):
        if is_associative(amin, term):
            return RotationWitness(term, term.size, fingerprint)
    raise RotationSearchExhausted(max_size)


def comb_dfa(dbta: Dbta, term: Tree, gamma) -> Dfa:
    """Word automaton tracking the tree automaton along left combs of `term`.

    States are the tree automaton's reachable states plus a fresh initial
    state; the first letter maps to the state of its one-node tree, and each
    further letter extends the comb by one composition step.  For an
    associative term, a word is accepted iff every closure member with that
    many ports, instantiated with the word's letters, is in the tree language.
    """
    gamma = tuple(sorted(set(gamma)))
    zero = set(dbta.alphabet.zero_arity())
    if not set(gamma) <= zero:
        raise AlphabetError("word letters must be arity-0 tree letters")
    reach, flat = dbta._pair_table(term)
    initial = "init"
    while initial in reach:
        initial = "_" + initial
    delta = {}
    for sigma in gamma:
        leaf = delta[(initial, sigma)] = dbta.eval(Tree(sigma))
        column = flat[reach.index(leaf)::len(reach)]  # the term on each (q, leaf)
        delta.update({(q, sigma): reach[target] for q, target in zip(reach, column)})
    return Dfa(gamma, [*reach, initial], initial, dbta.accepting & set(reach), delta)


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
            doc["violations"] = self.verification.violations()
        return json.dumps(doc, indent=2, sort_keys=True)


def extract_separator(
    dtwa: Dtwa, grammar_g: CnfGrammar, grammar_h: CnfGrammar, search_bound: int
) -> ExtractReport:
    """Full pipeline from a walking automaton to a verified word separator.

    Builds the walker's minimal bottom-up automaton, searches for a
    re-association witness, reads off the comb word automaton, and checks the
    separation of the two grammars exactly.  If the walking automaton truly
    separates the two obfuscations, the produced word automaton verifies.
    """
    for letter, ar in obf_alphabet(grammar_g).items():  # raises if a terminal is a fresh letter
        if letter not in dtwa.alphabet or dtwa.alphabet.arity(letter) != ar:
            raise AlphabetError(f"alphabet needs letter {letter!r} with arity {ar}")
    if set(grammar_g.terminals) != set(grammar_h.terminals):
        raise AlphabetError("the two grammars use different terminal alphabets")
    amin = minimal_dbta(dtwa)
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
