"""Chomsky-normal-form grammars, CYK membership, and derivation trees.

Derivations follow the tree convention used throughout the package: binary
nodes carry nonterminals, leaves carry terminals, and the leaf step X -> s
is implicit in the leaf (no unary nodes).  The empty word is excluded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from . import fmt
from .errors import FormatError
from .trees import _NAME, Tree


@dataclass(frozen=True)
class CnfGrammar:
    terminals: tuple
    nonterminals: tuple
    leaf_rules: tuple  # pairs (X, sigma)
    binary_rules: tuple  # triples (X, Y, Z)
    start: str
    removed: tuple = field(default=(), compare=False)

    @cached_property
    def leaf_index(self):
        """terminal -> set of nonterminals with a leaf rule for it."""
        out = {}
        for x, sigma in self.leaf_rules:
            out.setdefault(sigma, set()).add(x)
        return out

    @cached_property
    def binary_index(self):
        """(Y, Z) -> set of nonterminals X with X -> Y Z."""
        out = {}
        for x, y, z in self.binary_rules:
            out.setdefault((y, z), set()).add(x)
        return out

    @cached_property
    def binary_of(self):
        """nonterminal -> sorted (Y, Z) right-hand sides."""
        out = {}
        for x, y, z in self.binary_rules:
            out.setdefault(x, set()).add((y, z))
        return {x: tuple(sorted(v)) for x, v in out.items()}


def parse_grammar(text: str) -> CnfGrammar:
    """Parse and normalize a grammar.

    Lines are `X -> Y Z` or `X -> sigma`, separated by newlines or `;`;
    blanks and `#` comments are skipped as in the automaton formats.  The
    start symbol is the first rule's left side unless a `start:` header is
    given; a second `start:` header, or a start symbol that has no rules or
    derives no word, raises FormatError.  Unproductive and unreachable
    symbols are removed and reported via the `removed` field.
    """
    start = None
    raw_rules = []
    for lineno, line in fmt.logical_lines(text):
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.match(rf"^start\s*:\s*({_NAME.pattern})$", chunk)
            if m:
                if start is not None:
                    raise FormatError(f"line {lineno}: duplicate header 'start'")
                start = m.group(1)
                continue
            if "->" not in chunk:
                raise FormatError(f"line {lineno}: expected a rule, got {chunk!r}")
            lhs, _, rhs = chunk.partition("->")
            lhs = lhs.strip()
            rhs_tokens = rhs.split()
            if not _NAME.fullmatch(lhs) or not all(_NAME.fullmatch(t) for t in rhs_tokens):
                raise FormatError(f"line {lineno}: bad symbol in rule {chunk!r}")
            if len(rhs_tokens) not in (1, 2):
                raise FormatError(f"line {lineno}: rule {chunk!r} is not in Chomsky normal form")
            raw_rules.append((lineno, lhs, tuple(rhs_tokens)))
    if not raw_rules:
        raise FormatError("grammar has no rules")
    lhs_symbols = {lhs for _, lhs, _ in raw_rules}
    if start is None:
        start = raw_rules[0][1]
    if start not in lhs_symbols:
        raise FormatError(f"start symbol {start!r} has no rules")

    leaf_rules = set()
    binary_rules = set()
    terminals = set()
    for lineno, lhs, rhs in raw_rules:
        if len(rhs) == 1:
            sym = rhs[0]
            if sym in lhs_symbols:
                raise FormatError(
                    f"line {lineno}: unit rule {lhs} -> {sym} is not in Chomsky normal form"
                )
            leaf_rules.add((lhs, sym))
            terminals.add(sym)
        else:
            binary_rules.add((lhs, rhs[0], rhs[1]))
    for lineno, lhs, rhs in raw_rules:
        if len(rhs) == 2 and (rhs[0] in terminals or rhs[1] in terminals):
            raise FormatError(
                f"line {lineno}: terminal on the right of binary rule "
                f"{lhs} -> {rhs[0]} {rhs[1]}; not in Chomsky normal form"
            )

    mentioned = lhs_symbols | {y for _, y, _ in binary_rules} | {z for _, _, z in binary_rules}
    productive = {x for x, _ in leaf_rules}
    changed = True
    while changed:
        changed = False
        for x, y, z in binary_rules:
            if x not in productive and y in productive and z in productive:
                productive.add(x)
                changed = True
    if start not in productive:
        raise FormatError(f"start symbol {start!r} derives no word")
    reachable = {start}
    changed = True
    while changed:
        changed = False
        for x, y, z in binary_rules:
            if x in reachable and y in productive and z in productive:
                if y not in reachable or z not in reachable:
                    reachable |= {y, z}
                    changed = True
    keep = productive & reachable
    removed = tuple(sorted(mentioned - keep))
    leaf_kept = tuple(sorted((x, s) for x, s in leaf_rules if x in keep))
    binary_kept = tuple(
        sorted((x, y, z) for x, y, z in binary_rules if x in keep and y in keep and z in keep)
    )
    terminals_kept = tuple(sorted({s for _, s in leaf_kept}))
    return CnfGrammar(
        terminals=terminals_kept,
        nonterminals=tuple(sorted(keep)),
        leaf_rules=leaf_kept,
        binary_rules=binary_kept,
        start=start,
        removed=removed,
    )


def cyk_table(grammar: CnfGrammar, word) -> dict:
    """CYK chart: (i, j) -> set of nonterminals deriving word[i:j]."""
    word = tuple(word)
    if not word:
        raise ValueError("the empty word is outside CNF; membership undefined")
    n = len(word)
    table = {}
    for i, sigma in enumerate(word):
        table[(i, i + 1)] = set(grammar.leaf_index.get(sigma, ()))
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            cell = set()
            for k in range(i + 1, j):
                for y in table[(i, k)]:
                    for z in table[(k, j)]:
                        cell |= grammar.binary_index.get((y, z), set())
            table[(i, j)] = cell
    return table


def derivations(grammar: CnfGrammar, word):
    """All derivation trees of `word`, duplicate-free.

    Distinct rule choices that produce the same labelled tree (possible when
    leaf steps collapse) are yielded once.
    """
    word = tuple(word)
    table = cyk_table(grammar, word)

    def expand(x, i, j):
        seen = set()
        if j - i == 1:
            if x in grammar.leaf_index.get(word[i], ()):
                yield Tree(word[i])
            return
        for k in range(i + 1, j):
            for y, z in grammar.binary_of.get(x, ()):
                if y not in table[(i, k)] or z not in table[(k, j)]:
                    continue
                for left in expand(y, i, k):
                    for right in expand(z, k, j):
                        node = Tree(x, (left, right))
                        if node not in seen:
                            seen.add(node)
                            yield node

    yield from expand(grammar.start, 0, len(word))
