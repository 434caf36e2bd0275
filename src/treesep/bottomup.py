"""Deterministic and nondeterministic bottom-up tree automata.

Transition tables may be partial.  With a rejecting sink, every missing
entry, and every entry with the sink among its inputs, resolves to the sink;
without one, the first use that reaches a missing entry raises
TransitionError.  Every algorithm on a `Dbta` reads one integer table,
`Dbta._tables`, built once and dense over the reachable states.

Reachable states, subset constructions and the walker's read-slot classes
are all one closure: start from nothing and apply every letter to every
tuple of known states until no new state appears.  `saturate` is that
closure, evaluated semi-naively: a letter's pass only combines tuples
holding a state found since the letter's previous pass, in lexicographic
order of discovery index.  Discovery order is exactly that of the plain
round-robin loop (each round, each letter in alphabet order, over a snapshot
of all known states), so the state names callers derive from it do not
depend on the evaluation strategy.  A construction's reachable states go
with its table, so only a parsed automaton is saturated.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from . import fmt
from .errors import ArityError, FormatError, TransitionError
from .trees import PORT, Tree, postorder


def _position(key, n):
    """Row-major position of a tuple of indices below n."""
    pos = 0
    for i in key:
        pos = pos * n + i
    return pos


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
    """Close the empty state set under `step`; returns (states, table).

    `step(letter, child_states)` gives the state a letter makes of a tuple of
    known states, or None for no transition.  `states` is in discovery order
    and `table` maps each letter to {tuple of child states: state}.
    """
    order = []
    known = set()
    table = {letter: {} for letter, _ in alphabet.items()}
    seen = {letter: None for letter in table}  # states known at each letter's last pass
    while any(n != len(order) for n in seen.values()):
        for letter, ar in alphabet.items():
            n, old = len(order), seen[letter]
            seen[letter] = n
            rows = table[letter]
            for children in _fresh_tuples(order, n, old, ar):
                target = step(letter, children)
                if target is None:
                    continue
                if target not in known:
                    known.add(target)
                    order.append(target)
                rows[children] = target
    return order, table


def _checked(alphabet, states, transitions, targets, sink=None) -> dict:
    """`transitions` with tuple keys and a row for every letter, after
    checking each entry in turn: its key has the letter's arity, and its key
    states and the states `targets(value)` are declared; with a sink, an
    entry whose key holds the sink yields the sink."""
    out = {letter: {} for letter, _ in alphabet.items()}
    for letter, table in transitions.items():
        ar = alphabet.arity(letter)
        rows = out[letter]
        for key, value in table.items():
            key = tuple(key)
            if len(key) != ar:
                raise ArityError(f"{letter!r} transition keyed by {len(key)} states, arity is {ar}")
            if not set(key) <= states or not targets(value) <= states:
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
        self.states = tuple(sorted(set(states)))
        state_set = set(self.states)
        self.accepting = frozenset(accepting)
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        self.sink = sink
        if sink is not None:
            if sink not in state_set:
                raise FormatError(f"sink {sink!r} not declared")
            if sink in self.accepting:
                raise FormatError("sink must be non-accepting")
        self.transitions = _checked(alphabet, state_set, transitions, lambda value: {value}, sink)
        self._reach = None
        self._table_cache = None

    @classmethod
    def _trusted(cls, alphabet, reach, accepting, transitions, sink=None) -> "Dbta":
        """A Dbta over a table built from `reach` and the sink, without
        `__init__`'s per-entry checks: `transitions` has a row for every
        letter, keyed by tuples over those states, a sink if an entry is
        missing, and the sink at entries touching it.  `reach` lists once
        each, in any order, exactly the states some tree evaluates to, so
        `_tables` reads it instead of saturating."""
        dbta = cls.__new__(cls)
        dbta.alphabet = alphabet
        dbta.states = tuple(sorted({*reach, sink} - {None}))
        dbta.accepting = frozenset(accepting)
        dbta.sink = sink
        dbta.transitions = transitions
        dbta._reach = reach
        dbta._table_cache = None
        return dbta

    def eval(self, tree: Tree) -> str:
        """State reached bottom-up; total and deterministic on conforming trees.

        One post-order pass over `_tables`: a binary node pops its
        children's state indices and reads entry ``left * n + right``.  On a
        bad node, and before a missing entry is reported, `validate` on the
        whole tree raises the error an up-front check would have raised
        first; a tree that avoids every missing entry evaluates.
        """
        reach, rows, _ = self._tables()
        n = len(reach)
        values = []
        for node in postorder(tree):
            ar, table = rows.get(node.label, (-1, None))
            if ar != len(node.children):
                self.alphabet.validate(tree)
            if ar == 2:
                right = values.pop()
                code = values.pop() * n + right
            elif ar:
                code = _position(values[-ar:], n)
                del values[-ar:]
            else:
                code = 0
            state = table[code]
            if state is None:
                self.alphabet.validate(tree)
                raise _no_transition(node.label, tuple(reach[code // n ** i % n] for i in reversed(range(ar))))
            values.append(state)
        return reach[values[0]]

    def accepts(self, tree: Tree) -> bool:
        return self.eval(tree) in self.accepting

    def _tables(self):
        """The one integer table, built on first use: (reach, rows, gap).
        `rows[letter]` is (arity, flat), `flat` listing the index in `reach`
        of the target of each tuple over `reach`, row-major, None at a
        missing entry when there is no sink; `gap` is the first one
        saturation met, as (letter, key), or None.  A parsed automaton's
        `reach` is saturated, in `states` order; a built one brings it."""
        if self._table_cache is None:
            named, sink, gaps = self.transitions, self.sink, []

            def lookup(letter, key):
                target = named[letter].get(key, sink)
                if target is None:
                    gaps.append((letter, key))
                return target

            reach = self._reach
            if reach is None:
                reach = sorted(saturate(self.alphabet, lookup)[0])
            index = {q: i for i, q in enumerate(reach)}
            index[None] = None
            rows = {letter: (ar, [index[named[letter].get(key, sink)] for key in itertools.product(reach, repeat=ar)])
                    for letter, ar in self.alphabet.items()}
            self._table_cache = reach, rows, gaps[0] if gaps else None
        return self._table_cache

    def _total_tables(self):
        """`_tables`, raising TransitionError if saturation met a missing entry."""
        tables = self._tables()
        if tables[2]:
            raise _no_transition(*tables[2])
        return tables

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
        reach, rows, gap = self._tables()
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
            codes = kids[0] if kids else [0] * (n * n)
            for kid in kids[1:]:
                codes = [code * n + x for code, x in zip(codes, kid)]
            flat = rows[node.label][1]
            values.append([flat[code] for code in codes])
            if None in values[-1]:
                j = values[-1].index(None)
                raise _no_transition(node.label, tuple(reach[kid[j]] for kid in kids))
        return reach, values[0]

    def is_empty(self):
        """(True, None) if the language is empty, else (False, witness tree).

        The witness has minimal node count; ties break on s-expression text,
        which is exact whenever no label is a prefix of another.  Minimum
        sizes come from Knuth's generalisation of Dijkstra's algorithm: a
        state's size is final when it leaves the queue, and each index tuple
        is offered once, when its last state becomes final.  By then every
        tuple a state can be built from at its minimum size has been offered.
        """
        reach, rows, _ = self._total_tables()
        n = len(reach)
        size = [0] * n  # final minimum node counts; 0 until known
        best = [None] * n  # (size, text, letter, child indices) of the best offer
        heap = []

        def offer(letter, key):
            target = rows[letter][1][_position(key, n)]
            if size[target]:
                return
            cand = 1 + sum(size[i] for i in key)
            old = best[target]
            if old is not None and cand > old[0]:
                return
            text = f"{letter}({','.join(best[i][1] for i in key)})" if key else letter
            if old is None or (cand, text) < old[:2]:
                best[target] = (cand, text, letter, key)
                heapq.heappush(heap, (cand, target))

        for letter, ar in self.alphabet.items():
            if ar == 0:
                offer(letter, ())
        done = []
        while heap:
            cand, q = heapq.heappop(heap)
            if size[q]:
                continue
            size[q] = cand
            done.append(q)
            for letter, ar in self.alphabet.items():
                # the tuples over final states that hold q
                for key in _fresh_tuples(done, len(done), len(done) - 1, ar):
                    offer(letter, key)
        live = [i for i, q in enumerate(reach) if q in self.accepting]
        if not live:
            return True, None
        trees = {}
        for q in done:
            _, _, letter, key = best[q]
            trees[q] = Tree(letter, tuple(trees[i] for i in key))
        return False, trees[min(live, key=lambda i: best[i][:2])]

    def minimize(self) -> "Dbta":
        """Reachable states merged up to context distinguishability (`_quotient`)."""
        reach, rows, _ = self._total_tables()
        return _quotient(self.alphabet, reach, rows, self.accepting, self.sink)

    def to_text(self) -> str:
        headers = {"states": self.states, "accepting": sorted(self.accepting), "sink": self.sink}
        lines = [f"{letter}({','.join(key)}) -> {target}" for letter in sorted(self.transitions)
                 for key, target in sorted(self.transitions[letter].items())]
        return fmt.write(self.alphabet.items(), headers, lines)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _refine(reach, rows, accepting) -> list:
    """Myhill-Nerode blocks of the reachable states `reach`, in any order,
    under the integer rows `rows` of `Dbta._tables`: lists of indices into
    `reach`, ordered by their sorted member names.

    Partition refinement with single-letter contexts: two states split as
    soon as some letter, position, and tuple of reachable sibling states
    sends them to different blocks.  Tree contexts factor through these
    one-node contexts, so the blocks are the Myhill-Nerode classes and
    equality of state transformations on them coincides with
    interchangeability in every context.  Rounds run Moore-style; a word
    automaton is the case of unary letters."""
    n = len(reach)
    block = [q in accepting for q in reach]
    count = len(set(block))
    while True:
        targets = [(ar, [block[t] for t in flat]) for ar, flat in rows.values()]
        rename = {}
        new_block = []
        for q in range(n):
            # q's contexts at position p are the entries whose p-th index
            # is q: with stride = n ** (ar - 1 - p), one run of `stride`
            # entries at p = 0, else `stride` slices of step n * stride
            signature = [block[q]]
            for ar, row in targets:
                for p in range(ar):
                    stride = n ** (ar - 1 - p)
                    if p == 0:
                        signature.append(tuple(row[q * stride:(q + 1) * stride]))
                    else:
                        signature += [tuple(row[q * stride + r::n * stride]) for r in range(stride)]
            new_block.append(rename.setdefault(tuple(signature), len(rename)))
        block = new_block
        if len(rename) == count:
            break
        count = len(rename)
    members = [[] for _ in range(count)]
    for i in range(n):
        members[block[i]].append(i)
    return sorted(members, key=lambda ids: sorted(reach[i] for i in ids))


def _quotient(alphabet, reach, rows, accepting, sink) -> Dbta:
    """Myhill-Nerode quotient of the automaton with reachable states `reach`
    and the integer rows `rows` of `Dbta._tables`: the blocks of `_refine`
    named m0, m1, ... in their order."""
    n = len(reach)
    ordered = _refine(reach, rows, accepting)
    name_of = [None] * n
    for k, ids in enumerate(ordered):
        for i in ids:
            name_of[i] = f"m{k}"
    reps = [ids[0] for ids in ordered]
    table = {letter: {tuple(name_of[i] for i in key): name_of[flat[_position(key, n)]]
                      for key in itertools.product(reps, repeat=ar)}
             for letter, (ar, flat) in rows.items()}
    final = {name_of[i] for i, q in enumerate(reach) if q in accepting}
    sink = name_of[reach.index(sink)] if sink in reach else None
    return Dbta._trusted(alphabet, [name_of[i] for i in reps], final, table, sink=sink)


class Nta:
    """Nondeterministic bottom-up tree automaton; transitions map tuples to state sets."""

    def __init__(self, alphabet, states, accepting, transitions):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(states)))
        state_set = set(self.states)
        self.accepting = frozenset(accepting)
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        # an empty target set is dropped only after its entry is checked
        self.transitions = {letter: {key: frozenset(values) for key, values in rows.items() if values}
                            for letter, rows in _checked(alphabet, state_set, transitions, frozenset).items()}

    def determinize(self) -> Dbta:
        """Subset construction over reachable subsets, named d0, d1, ... in
        discovery order once the closure is done; the empty subset is the
        sink.  A step visits only the rows whose first child state (None for
        nullary letters) lies in the first subset."""
        rows = {}
        for letter, table in self.transitions.items():
            index = rows[letter] = {}
            for key, values in table.items():
                index.setdefault(key[0] if key else None, []).append((key, values))

        def step(letter, subsets):
            target = set()
            for first in subsets[0] if subsets else (None,):
                for key, values in rows[letter].get(first, ()):
                    if all(q in subset for q, subset in zip(key, subsets)):
                        target |= values
            return frozenset(target) if target else None

        order, table = saturate(self.alphabet, step)
        name = {subset: f"d{i}" for i, subset in enumerate(order)}
        table = {letter: {tuple(name[s] for s in key): name[target] for key, target in rows.items()}
                 for letter, rows in table.items()}
        sink = "dempty"
        reach = list(name.values())
        accepting = {name[s] for s in order if s & self.accepting}
        if any(len(table[letter]) < len(order) ** ar for letter, ar in self.alphabet.items()):
            reach.append(sink)
        return Dbta._trusted(self.alphabet, reach, accepting, table, sink=sink)

    def to_text(self) -> str:
        headers = {"states": self.states, "accepting": sorted(self.accepting)}
        lines = [f"{letter}({','.join(key)}) -> {{{','.join(sorted(targets))}}}"
                 for letter in sorted(self.transitions)
                 for key, targets in sorted(self.transitions[letter].items())]
        return fmt.write(self.alphabet.items(), headers, lines)


def parse_dbta(text: str) -> Dbta:
    alphabet, states, headers, lines = fmt.read(text, "dbta", ("accepting", "sink"))
    entries = []
    for lineno, lhs, rhs in lines:
        if "{" in rhs:
            raise FormatError(f"line {lineno}: set-valued target in a deterministic automaton")
        entries.append((lineno, lhs, fmt.parse_application(lineno, lhs), rhs))
    transitions = {}
    for (letter, key), value in fmt.table(entries).items():
        transitions.setdefault(letter, {})[key] = value
    return Dbta(alphabet, states, headers.get("accepting", []), transitions, sink=headers.get("sink"))


def parse_nta(text: str) -> Nta:
    alphabet, states, headers, lines = fmt.read(text, "nta", ("accepting",))
    entries = []
    for lineno, lhs, rhs in lines:
        if not (rhs.startswith("{") and rhs.endswith("}")):
            raise FormatError(f"line {lineno}: expected a {{...}} target set")
        inner = rhs[1:-1].strip()
        values = {part.strip() for part in inner.split(",")} if inner else set()
        entries.append((lineno, lhs, fmt.parse_application(lineno, lhs), values))
    transitions = {}
    for (letter, key), values in fmt.table(entries).items():
        transitions.setdefault(letter, {})[key] = values
    return Nta(alphabet, states, headers.get("accepting", []), transitions)
