"""Deterministic and nondeterministic bottom-up tree automata.

Transition tables may be partial.  With a rejecting sink, every missing
entry, and every entry with the sink among its inputs, resolves to the sink;
without one, the first use that reaches a missing entry raises
TransitionError.  Every algorithm on a `Dbta` reads one integer table,
`Dbta._tables`, dense over the values of a projection that gives each
reachable state one row coordinate, at every child position.  A parsed
automaton builds it once from its checked entries, over the identity; a
built one holds nothing else, and names its entries only when
`transitions` is read.  Emptiness is searched on the quotient's table.

Reachable states, subset constructions and the walker's read-slot classes
are all one closure: start from nothing and apply every letter to every
tuple of known states until no new state appears.  `saturate` is that
closure, evaluated semi-naively: a letter's pass only combines tuples
holding a state found since the letter's previous pass, in lexicographic
order of discovery index.  Discovery order is exactly that of the plain
round-robin loop (each round, each letter in alphabet order, over a snapshot
of all known states), so the state names callers derive from it do not
depend on the evaluation strategy.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from . import fmt
from .errors import ArityError, FormatError, TransitionError
from .trees import PORT, Tree, parse_tree, postorder


def _read_at(flat, m, columns, base=0):
    """The entries of `flat`, dense over m values per position from offset
    `base`, at each tuple of row coordinates in `itertools.product(*columns)`,
    in order; each distinct prefix is read once, so it costs its output."""
    if len(columns) < 2:
        return [flat[base + c] for c in columns[0]] if columns else [flat[base]]
    size = m ** (len(columns) - 1)
    tails = {c: _read_at(flat, m, columns[1:], base + c * size) for c in set(columns[0])}
    return list(itertools.chain.from_iterable(map(tails.__getitem__, columns[0])))


def _no_transition(letter, key) -> TransitionError:
    return TransitionError(f"no transition for {letter}{key} and no sink")


def _fresh_tuples(values, n, old, ar):
    """Tuples over values[:n] of length `ar` with an entry at index >= `old`,
    in lexicographic order of index; all of them when `old` is None, i.e. on
    a letter's first pass."""
    if old is None:
        return itertools.product(values[:n], repeat=ar)
    if ar == 0 or old == n:
        return ()

    def blocks():
        # one block per prefix of the first ar - 1 indices; the last index
        # only has to be fresh when the prefix is not
        for head in itertools.product(range(n), repeat=ar - 1):
            start = 0 if head and max(head) >= old else old
            yield itertools.product(*[[values[i]] for i in head], values[start:n])

    return itertools.chain.from_iterable(blocks())


def saturate(alphabet, step):
    """Close the empty state set under `step`; returns the states in
    discovery order.

    `step(letter, child_states)` gives the state a letter makes of a tuple of
    known states, or None for no transition; it is called once per tuple, so
    a caller that needs the table records it there.
    """
    order = []
    known = set()
    seen = {letter: None for letter, _ in alphabet.items()}  # states known at each letter's last pass
    while any(n != len(order) for n in seen.values()):
        for letter, ar in alphabet.items():
            n, old = len(order), seen[letter]
            seen[letter] = n
            for children in _fresh_tuples(order, n, old, ar):
                target = step(letter, children)
                if target is not None and target not in known:
                    known.add(target)
                    order.append(target)
    return order


def _checked(alphabet, states, transitions, targets, sink=None) -> dict:
    """`transitions` with a row for every letter, after checking each entry
    in turn: its key is a tuple of hashable states, of the letter's arity and
    declared, and `targets(value)` a set of declared states, a TypeError
    marking a bad target; with a sink, an entry whose key holds the sink
    yields the sink."""
    out = {letter: {} for letter, _ in alphabet.items()}
    for letter, table in transitions.items():
        ar = alphabet.arity(letter)
        rows = out[letter]
        for key, value in table.items():
            try:
                members = set(key) if isinstance(key, tuple) else None
            except TypeError:  # an unhashable member is no state
                members = None
            if members is None:
                raise FormatError(f"{letter!r} transition keyed by {key!r}, not a tuple of states")
            if len(key) != ar:
                raise ArityError(f"{letter!r} transition keyed by {len(key)} states, arity is {ar}")
            try:
                declared = members <= states and targets(value) <= states
            except TypeError:
                raise FormatError(f"bad target {value!r} in transition {letter}{key}") from None
            if not declared:
                raise FormatError(f"undeclared state in transition {letter}{key} -> {value}")
            if sink is not None and sink in key and value != sink:
                raise FormatError("transitions touching the sink must yield the sink")
            rows[key] = value
    return out


class Dbta:
    """Deterministic bottom-up tree automaton.

    `transitions` maps each letter to a dict from child-state tuples to the
    resulting state.  `sink`, when set, must be a declared non-accepting
    state; it absorbs every missing entry.  Without a sink the table may
    still be partial: a use that reaches a missing entry raises
    TransitionError, and a tree that avoids them evaluates.
    """

    def __init__(self, alphabet, states, accepting, transitions, sink=None):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(fmt.collection("states", states))))
        state_set = set(self.states)
        self.accepting = frozenset(fmt.collection("accepting", accepting))
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        self.sink = sink
        if sink is not None:
            if sink not in self.states:
                raise FormatError(f"sink {sink!r} not declared")
            if sink in self.accepting:
                raise FormatError("sink must be non-accepting")
        self._named = _checked(alphabet, state_set, transitions, lambda value: {value}, sink)
        self._table_cache = None

    @classmethod
    def _trusted(cls, alphabet, reach, proj, accepting, rows, sink=None) -> "Dbta":
        """A Dbta that holds only the integer table a construction built,
        without `__init__`'s per-entry checks: `proj` and `rows` are as in
        `_tables`, total, and `reach` lists once each exactly the states some
        tree evaluates to, the sink among them if there is one."""
        dbta = cls.__new__(cls)
        dbta.alphabet = alphabet
        dbta.states = tuple(sorted(reach))
        dbta.accepting = frozenset(accepting)
        dbta.sink = sink
        dbta._named = None
        dbta._table_cache = reach, proj, max(proj, default=-1) + 1, rows, None
        return dbta

    @property
    def transitions(self) -> dict:
        """Each letter's entries as a dict from child-state tuples to the
        resulting state: a parsed automaton's checked table; a built one's
        is named on first read, its rows spread over all tuples of states."""
        if self._named is None:
            reach, proj, m, rows, _ = self._table_cache
            self._named = {letter: dict(zip(itertools.product(reach, repeat=ar),
                                            _read_at([reach[t] for t in flat], m, [proj] * ar)))
                           for letter, (ar, flat) in rows.items()}
        return self._named

    def eval(self, tree: Tree) -> str:
        """State reached bottom-up; total and deterministic on conforming trees.

        One post-order pass over `_tables` in row coordinates: a binary node
        pops its children's, reads entry ``left * m + right`` and pushes its
        target's.  On a bad node, and before a missing entry is reported,
        `validate` on the whole tree raises the error an up-front check would
        have raised first; a tree that avoids every missing entry evaluates.
        """
        reach, proj, m, rows, _ = self._tables()
        values = []
        for node in postorder(tree):
            ar, table = rows.get(node.label, (-1, None))
            if ar != len(node.children):
                self.alphabet.validate(tree)
            if ar == 2:
                right = values.pop()
                code = values.pop() * m + right
            elif ar:
                code = sum(v * m ** k for k, v in enumerate(reversed(values[-ar:])))
                del values[-ar:]
            else:
                code = 0
            target = table[code]
            if target is None:
                # only a parsed table has gaps, and its coordinates are the state indices
                self.alphabet.validate(tree)
                raise _no_transition(node.label, tuple(reach[code // m ** i % m] for i in reversed(range(ar))))
            values.append(proj[target])
        return reach[target]

    def accepts(self, tree: Tree) -> bool:
        return self.eval(tree) in self.accepting

    def _tables(self):
        """The one integer table, built on first use: (reach, proj, m, rows,
        gap).  State `reach[i]` has row coordinate `proj[i]` below m; they are
        numbered in order of first state, so m == len(reach) only for the
        identity.  `rows[letter]` is (arity, flat), `flat` listing row-major
        the index in `reach` of the target at each tuple of coordinates, None
        at a missing entry when there is no sink; `gap` is the first one
        saturation met, as (letter, key), or None, and `minimize` raises it.
        Only `__init__`'s automaton builds it, over the identity, saturating
        `reach` in `states` order."""
        if self._table_cache is None:
            named, sink, gaps = self._named, self.sink, []

            def lookup(letter, key):
                target = named[letter].get(key, sink)
                if target is None:
                    gaps.append((letter, key))
                return target

            reach = sorted(saturate(self.alphabet, lookup))
            index = {q: i for i, q in enumerate(reach)}
            index[None] = None
            rows = {letter: (ar, [index[named[letter].get(key, sink)] for key in itertools.product(reach, repeat=ar)])
                    for letter, ar in self.alphabet.items()}
            self._table_cache = reach, list(range(len(reach))), len(reach), rows, gaps[0] if gaps else None
        return self._table_cache

    def _pair_table(self, term: Tree):
        """(reach, flat) of a binary `term`: `flat` gives the index in the
        reachable states `reach` of the state the term makes of each pair of
        them, row-major over the pairs.  The term must have two ports and
        fit the alphabet.  One post-order pass, each node reading one entry
        per pair; the first node and pair to reach a missing entry raise
        TransitionError, and so does a missing entry when no state is
        reachable."""
        if term.arity != 2:
            raise ArityError(f"need a binary term, got arity {term.arity}")
        self.alphabet.validate(term, ports=True)
        reach, proj, m, rows, gap = self._tables()
        n = len(reach)
        if not n and gap:
            raise _no_transition(*gap)
        ports = iter([[x for x in range(n) for _ in range(n)], list(range(n)) * n])
        values = []
        for node in postorder(term):
            if node.label == PORT:
                values.append(next(ports))
                continue
            kids = values[len(values) - len(node.children):]
            del values[len(values) - len(kids):]
            flat = rows[node.label][1]
            codes = [proj[x] for x in kids[0]] if kids else [0] * (n * n)
            for kid in kids[1:]:
                codes = [code * m + proj[x] for code, x in zip(codes, kid)]
            values.append([flat[code] for code in codes])
            if None in values[-1]:
                j = values[-1].index(None)
                raise _no_transition(node.label, tuple(reach[kid[j]] for kid in kids))
        return reach, values[0]

    def is_empty(self):
        """(True, None) if the language is empty, else (False, witness tree).

        The witness is the least accepted tree by node count, then by
        s-expression text, exact whenever no label is a prefix of another,
        read off `_least_trees` of the quotient, which accepts the same trees.
        """
        best, witness = _least_trees(self.minimize())
        return (True, None) if witness is None else (False, parse_tree(best[witness][1]))

    def minimize(self) -> "Dbta":
        """Myhill-Nerode quotient over the reachable states: the blocks of
        `_refine`, named m0, m1, ... in their order, each row read at the row
        coordinates of the blocks' first members; TransitionError at a gap."""
        reach, proj, m, rows, gap = self._tables()
        if gap:
            raise _no_transition(*gap)
        blocks = _refine(reach, proj, m, rows, self.accepting)
        block_of = {i: k for k, ids in enumerate(blocks) for i in ids}
        reps = [proj[ids[0]] for ids in blocks]
        table = {letter: (ar, [block_of[t] for t in _read_at(flat, m, [reps] * ar)])
                 for letter, (ar, flat) in rows.items()}
        names = [f"m{k}" for k in range(len(blocks))]
        final = {name for name, ids in zip(names, blocks) if reach[ids[0]] in self.accepting}
        sink = names[block_of[reach.index(self.sink)]] if self.sink in reach else None
        return Dbta._trusted(self.alphabet, names, list(range(len(names))), final, table, sink=sink)

    def to_text(self) -> str:
        headers = {"states": self.states, "accepting": sorted(self.accepting), "sink": self.sink}
        lines = [f"{letter}({','.join(key)}) -> {target}" for letter in sorted(self.transitions)
                 for key, target in sorted(self.transitions[letter].items())]
        return fmt.write(self.alphabet.items(), headers, lines)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _least_trees(quotient):
    """The search `is_empty` reads: (best, witness), `best` mapping each final
    state, an index into `_tables`' reach, to its least (size, text) in the
    order the states became final, up to `witness`, the first accepting one,
    or None.  Knuth's algorithm with lazy deletion on one heap of ((size,
    text), state): a state is final at its first pop, then pushes each target
    it completes; trees outweigh their children, so that pop has its least."""
    reach, _, n, rows, _ = quotient._tables()
    heap = sorted(((1, letter), flat[0]) for letter, (ar, flat) in rows.items() if ar == 0)  # sorted, so a heap
    best = {}
    while heap:
        cost, q = heapq.heappop(heap)
        if q in best:
            continue
        best[q] = cost
        if reach[q] in quotient.accepting:
            return best, q
        done = list(best)
        for letter, (ar, flat) in rows.items():
            for p in range(ar):
                # the tuples over final states whose first q is at position p
                columns = [done[:-1]] * p + [[q]] + [done] * (ar - 1 - p)
                for key, target in zip(itertools.product(*columns), _read_at(flat, n, columns)):
                    if target not in best:
                        sizes, texts = zip(*map(best.__getitem__, key))
                        heapq.heappush(heap, ((1 + sum(sizes), f"{letter}({','.join(texts)})"), target))
    return best, None


def _refine(reach, proj, m, rows, accepting) -> list:
    """Myhill-Nerode blocks of the reachable states `reach`, in any order,
    under the table (`proj`, m, `rows`) of `Dbta._tables`: lists of indices
    into `reach`, ordered by their least member names.

    Partition refinement with single-letter contexts: two states split as
    soon as some letter, position, and tuple of reachable sibling states
    sends them to different blocks.  Tree contexts factor through these
    one-node contexts, so the blocks are the Myhill-Nerode classes.
    Siblings act only through their row coordinates, each some reachable
    state's, and states alike in acceptance and coordinate never split, so
    Moore rounds refine those groups over the m coordinates' contexts, m^arity
    entries a letter.  A word automaton is the case of unary letters."""
    groups = {}  # (accepting, row coordinate) -> group index
    group = [groups.setdefault((q in accepting, v), len(groups)) for q, v in zip(reach, proj)]
    rows = [(ar, [group[t] for t in flat]) for ar, flat in rows.values()]
    block = [final for final, _ in groups]
    count = len(set(block))
    while True:
        targets = [(ar, [block[g] for g in flat]) for ar, flat in rows]
        contexts, context = {}, []  # each coordinate's contexts, numbered
        for v in range(m):
            # v's contexts at position p are the entries whose p-th
            # coordinate is v: with stride = m ** (ar - 1 - p), one run of
            # `stride` entries at p = 0, else `stride` slices of step m * stride
            signature = []
            for ar, row in targets:
                for p in range(ar):
                    stride = m ** (ar - 1 - p)
                    if p == 0:
                        signature.append(tuple(row[v * stride:(v + 1) * stride]))
                    else:
                        signature += [tuple(row[v * stride + r::m * stride]) for r in range(stride)]
            context.append(contexts.setdefault(tuple(signature), len(contexts)))
        rename = {}
        block = [rename.setdefault((b, context[v]), len(rename)) for b, (_, v) in zip(block, groups)]
        if len(rename) == count:
            break
        count = len(rename)
    members = [[] for _ in range(count)]
    for i, g in enumerate(group):
        members[block[g]].append(i)
    return sorted(members, key=lambda ids: min(reach[i] for i in ids))


class Nta:
    """Nondeterministic bottom-up tree automaton; transitions map tuples to
    state sets.  The pipeline only determinizes one; its text form is a test
    helper, `nta_text` and `parse_nta` in tests/oracles.py."""

    def __init__(self, alphabet, states, accepting, transitions):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(fmt.collection("states", states))))
        state_set = set(self.states)
        self.accepting = frozenset(fmt.collection("accepting", accepting))
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        # targets must be sets; an empty one is dropped only after its entry is checked
        self.transitions = {letter: {key: frozenset(values) for key, values in rows.items() if values}
                            for letter, rows in _checked(alphabet, state_set, transitions, lambda v: v).items()}

    def determinize(self) -> Dbta:
        """Subset construction over reachable subsets, named d0, d1, ... in
        discovery order; the empty subset is the sink `dempty`, left out of
        the table that `__init__` checks.  A step visits only the rows whose
        first child state (None for nullary letters) lies in the first subset."""
        rows = {}
        for letter, table in self.transitions.items():
            index = rows[letter] = {}
            for key, values in table.items():
                index.setdefault(key[0] if key else None, []).append((key, values))

        made = {letter: {} for letter in rows}

        def step(letter, subsets):
            target = set()
            for first in subsets[0] if subsets else (None,):
                for key, values in rows[letter].get(first, ()):
                    if all(q in subset for q, subset in zip(key, subsets)):
                        target |= values
            if target:
                target = made[letter][subsets] = frozenset(target)
            return target or None

        order = saturate(self.alphabet, step)
        name = {subset: f"d{i}" for i, subset in enumerate(order)}
        table = {letter: {tuple(name[s] for s in key): name[target] for key, target in rows.items()}
                 for letter, rows in made.items()}
        accepting = {name[s] for s in order if s & self.accepting}
        return Dbta(self.alphabet, [*name.values(), "dempty"], accepting, table, sink="dempty")


def parse_dbta(text: str) -> Dbta:
    def entry(lineno, lhs, rhs):
        if "{" in rhs:
            raise FormatError(f"line {lineno}: set-valued target in a deterministic automaton")
        return fmt.parse_application(lineno, lhs), rhs

    alphabet, states, headers, table = fmt.read(text, "dbta", ("accepting", "sink"), entry)
    transitions = {}
    for (letter, key), value in table.items():
        transitions.setdefault(letter, {})[key] = value
    return Dbta(alphabet, states, headers.get("accepting", []), transitions, sink=headers.get("sink"))

