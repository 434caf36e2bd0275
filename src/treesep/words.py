"""Deterministic word automata and exact separator verification.

Separation of a context-free language by a regular language is decidable, so
`verify_separator` gives an exact verdict via product-grammar emptiness
rather than bounded sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fmt
from .errors import AlphabetError, FormatError


class Dfa:
    """Total deterministic word automaton over arity-0 letters.

    Words are tuples of letter names.
    """

    def __init__(self, alphabet, states, initial, accepting, delta):
        self.alphabet = tuple(sorted(set(alphabet)))
        self.states = tuple(sorted(set(states)))
        state_set = set(self.states)
        if initial not in state_set:
            raise FormatError(f"initial state {initial!r} not declared")
        self.initial = initial
        self.accepting = frozenset(accepting)
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        self.delta = dict(delta)
        for q in self.states:
            for letter in self.alphabet:
                if (q, letter) not in self.delta:
                    raise FormatError(f"missing transition ({q!r}, {letter!r}); word automata are total")
                if self.delta[(q, letter)] not in state_set:
                    raise FormatError(f"undeclared target in transition ({q!r}, {letter!r})")

    def final_state(self, word) -> str:
        q = self.initial
        for letter in word:
            if letter not in set(self.alphabet):
                raise AlphabetError(f"letter {letter!r} not in alphabet")
            q = self.delta[(q, letter)]
        return q

    def run(self, word) -> bool:
        return self.final_state(word) in self.accepting

    def complement(self) -> "Dfa":
        return Dfa(self.alphabet, self.states, self.initial,
                   set(self.states) - set(self.accepting), self.delta)

    def product(self, other: "Dfa", op: str) -> "Dfa":
        if op not in ("and", "or", "andnot"):
            raise ValueError(f"unknown op {op!r}")
        if self.alphabet != other.alphabet:
            raise AlphabetError("product needs a shared alphabet")
        pairs = [(self.initial, other.initial)]
        seen = {pairs[0]}
        delta = {}
        i = 0
        while i < len(pairs):
            a, b = pairs[i]
            i += 1
            for letter in self.alphabet:
                target = (self.delta[(a, letter)], other.delta[(b, letter)])
                if target not in seen:
                    seen.add(target)
                    pairs.append(target)
                delta[(f"{a}|{b}", letter)] = f"{target[0]}|{target[1]}"
        accepting = set()
        for a, b in pairs:
            in_a, in_b = a in self.accepting, b in other.accepting
            keep = (in_a and in_b) if op == "and" else (in_a or in_b) if op == "or" else (in_a and not in_b)
            if keep:
                accepting.add(f"{a}|{b}")
        names = [f"{a}|{b}" for a, b in pairs]
        return Dfa(self.alphabet, names, f"{self.initial}|{other.initial}", accepting, delta)

    def is_empty(self):
        """(True, None) or (False, witness); the witness is the shortest word,
        lexicographically least among the shortest."""
        if self.initial in self.accepting:
            return False, ()
        best = {self.initial: ()}
        for _ in range(len(self.states)):
            nxt = {}
            for q, word in best.items():
                for letter in self.alphabet:
                    target = self.delta[(q, letter)]
                    cand = word + (letter,)
                    if target not in nxt or cand < nxt[target]:
                        nxt[target] = cand
            hits = [w for q, w in nxt.items() if q in self.accepting]
            if hits:
                return False, min(hits)
            best = nxt
        return True, None

    def to_text(self) -> str:
        lines = ["alphabet:"]
        lines += list(self.alphabet)
        lines.append(f"states: {' '.join(self.states)}")
        lines.append(f"initial: {self.initial}")
        lines.append(f"accepting: {' '.join(sorted(self.accepting))}")
        for (q, letter) in sorted(self.delta, key=lambda k: (k[1], k[0])):
            lines.append(f"{letter}({q}) -> {self.delta[(q, letter)]}")
        return "\n".join(lines) + "\n"


def parse_dfa(text: str) -> Dfa:
    letters, headers, lines = fmt.split_document(text)
    alphabet_obj = fmt.parse_alphabet(letters, "dfa")
    if any(ar != 0 for _, ar in alphabet_obj.items()):
        raise FormatError("word automaton letters must all have arity 0")
    states = fmt.header_tokens(headers, "states")
    if not states:
        raise FormatError("dfa: missing 'states' header")
    initial = fmt.require_header(headers, "initial", "dfa").strip()
    accepting = fmt.header_tokens(headers, "accepting")
    delta = {}
    for lineno, line in lines:
        lhs, rhs = fmt.split_transition(lineno, line)
        if "(" not in lhs and " " in lhs:
            letter, _, src = lhs.partition(" ")
            key = (src.strip(),)
        else:
            letter, key = fmt.parse_application(lineno, lhs)
        if len(key) != 1:
            raise FormatError(f"line {lineno}: expected letter(state) -> state")
        delta[(key[0], letter)] = rhs
    return Dfa(alphabet_obj.zero_arity(), states, initial, accepting, delta)


def _product_triples(grammar, dfa: Dfa):
    """Derivable triples (p, X, q): X derives some word driving the DFA p -> q."""
    if set(dfa.alphabet) != set(grammar.terminals):
        raise AlphabetError("grammar terminals and word-automaton alphabet differ")
    derivable = set()
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            derivable.add((p, x, dfa.delta[(p, sigma)]))
    changed = True
    while changed:
        changed = False
        for x, y, z in grammar.binary_rules:
            for (p, y2, r) in list(derivable):
                if y2 != y:
                    continue
                for (r2, z2, q) in list(derivable):
                    if r2 != r or z2 != z:
                        continue
                    if (p, x, q) not in derivable:
                        derivable.add((p, x, q))
                        changed = True
    return derivable


def cfg_dfa_intersection_empty(grammar, dfa: Dfa, max_witness_len: int = 64):
    """Exact emptiness of L(G) with L(K), plus a shortest witness when nonempty.

    Returns (empty, witness).  The witness is length-minimal and
    lexicographically least among words of that length.  It is None when the
    intersection is empty, and also when it is not but its shortest word is
    longer than `max_witness_len`: the verdict is decided either way.
    """
    derivable = _product_triples(grammar, dfa)
    goals = {(dfa.initial, grammar.start, f) for f in dfa.accepting}
    hits = goals & derivable
    if not hits:
        return True, None

    minlen = {}
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            key = (p, x, dfa.delta[(p, sigma)])
            minlen[key] = 1
    changed = True
    while changed:
        changed = False
        for x, y, z in grammar.binary_rules:
            for (p, y2, r), ly in list(minlen.items()):
                if y2 != y:
                    continue
                for (r2, z2, q), lz in list(minlen.items()):
                    if r2 != r or z2 != z:
                        continue
                    cand = ly + lz
                    key = (p, x, q)
                    if cand < minlen.get(key, float("inf")):
                        minlen[key] = cand
                        changed = True
    target_len = min(minlen[t] for t in hits)
    if target_len > max_witness_len:
        return False, None

    # best[(triple, length)] = lexicographically least word of exactly that length
    best = {}
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            key = ((p, x, dfa.delta[(p, sigma)]), 1)
            word = (sigma,)
            if key not in best or word < best[key]:
                best[key] = word
    for length in range(2, target_len + 1):
        for x, y, z in grammar.binary_rules:
            for p in dfa.states:
                for r in dfa.states:
                    for q in dfa.states:
                        acc = None
                        for split in range(1, length):
                            left = best.get(((p, y, r), split))
                            right = best.get(((r, z, q), length - split))
                            if left is None or right is None:
                                continue
                            cand = left + right
                            if acc is None or cand < acc:
                                acc = cand
                        if acc is not None:
                            key = ((p, x, q), length)
                            if key not in best or acc < best[key]:
                                best[key] = acc
    witness = min(best[(t, target_len)] for t in hits if (t, target_len) in best)
    return False, witness


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


def verify_separator(dfa: Dfa, grammar_g, grammar_h) -> SeparatorReport:
    """K separates G from H iff K contains L(G) and is disjoint from L(H)."""
    if set(grammar_g.terminals) != set(grammar_h.terminals):
        raise AlphabetError("the two grammars use different terminal alphabets")
    ok_g, missed = cfg_dfa_intersection_empty(grammar_g, dfa.complement())
    ok_h, overlap = cfg_dfa_intersection_empty(grammar_h, dfa)
    return SeparatorReport(ok_g and ok_h, violation_g=missed, violation_h=overlap)
