"""Deterministic and nondeterministic bottom-up tree automata.

Transition tables may be partial as long as the automaton names a rejecting
sink: every missing entry, and every entry with a sink among its inputs,
resolves to the sink.  This keeps totality virtual, which matters for
automata whose full tables would be astronomically sparse.

Reachable states, products, subset constructions and the walker-to-DBTA
construction are all one closure: start from nothing and apply every letter
to every tuple of known states until no new state appears.  `saturate` is
that closure, evaluated semi-naively: a letter's pass only combines tuples
holding a state found since the letter's previous pass, in lexicographic
order of discovery index.  Discovery order, and with it every state name, is
exactly that of the plain round-robin loop (each round, each letter in
alphabet order, over a snapshot of all known states), so callers' outputs do
not depend on the evaluation strategy.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from . import fmt
from .errors import AlphabetError, ArityError, FormatError, TransitionError
from .trees import PORT, Tree


def _same(state, _index):
    return state


def _position(key, n):
    """Row-major position of a tuple of indices below n."""
    pos = 0
    for i in key:
        pos = pos * n + i
    return pos


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


def saturate(alphabet, step, name):
    """Close the empty state set under `step`; returns (states, table).

    `step(letter, child_states)` gives the state a letter makes of a tuple of
    known states, or None for no transition.  `name(state, index)` names a
    state by itself and its discovery index.  `states` is in discovery order
    and `table` maps each letter to {tuple of child names: name}.
    """
    order = []
    index = {}
    names = []
    table = {letter: {} for letter, _ in alphabet.items()}
    seen = {letter: None for letter in table}  # states known at each letter's last pass
    while any(n != len(order) for n in seen.values()):
        for letter, ar in alphabet.items():
            n, old = len(order), seen[letter]
            seen[letter] = n
            rows = table[letter]
            fresh = zip(_fresh_tuples(order, n, old, ar), _fresh_tuples(names, n, old, ar))
            for children, key in fresh:
                target = step(letter, children)
                if target is None:
                    continue
                i = index.setdefault(target, len(order))
                if i == len(order):
                    order.append(target)
                    names.append(name(target, i))
                rows[key] = names[i]
    return order, table


class Dbta:
    """Deterministic bottom-up tree automaton.

    `transitions` maps each letter to a dict from child-state tuples to the
    resulting state.  `sink`, when set, must be a declared non-accepting
    state; it absorbs every missing entry.
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
        self.transitions = {}
        for letter, table in transitions.items():
            ar = alphabet.arity(letter)
            cleaned = {}
            for key, value in table.items():
                key = tuple(key)
                if len(key) != ar:
                    raise ArityError(f"{letter!r} transition keyed by {len(key)} states, arity is {ar}")
                if not set(key) <= state_set or value not in state_set:
                    raise FormatError(f"undeclared state in transition {letter}{key} -> {value}")
                if sink is not None and sink in key and value != sink:
                    raise FormatError("transitions touching the sink must yield the sink")
                cleaned[key] = value
            self.transitions[letter] = cleaned
        for letter, _ in alphabet.items():
            self.transitions.setdefault(letter, {})

    def step(self, letter, child_states) -> str:
        key = tuple(child_states)
        if self.sink is not None and self.sink in key:
            return self.sink
        try:
            table = self.transitions[letter]
        except KeyError:
            raise AlphabetError(f"letter {letter!r} not in alphabet") from None
        got = table.get(key)
        if got is None:
            if self.sink is None:
                raise TransitionError(f"no transition for {letter}{key} and no sink")
            return self.sink
        return got

    def eval(self, tree: Tree) -> str:
        """State reached bottom-up; total and deterministic on conforming trees."""
        self.alphabet.validate(tree)
        return self._eval(tree)

    def _eval(self, tree: Tree) -> str:
        return self.step(tree.label, tuple(self._eval(c) for c in tree.children))

    def eval_term(self, term: Tree, port_states) -> str:
        """Value of `term` with port i treated as a subtree evaluated to `port_states[i]`."""
        port_states = tuple(port_states)
        if term.arity != len(port_states):
            raise ArityError(f"term has {term.arity} ports, got {len(port_states)} states")
        self.alphabet.validate(term, ports=True)
        it = iter(port_states)

        def go(node):
            if node.label == PORT:
                return next(it)
            return self.step(node.label, tuple(go(c) for c in node.children))

        return go(term)

    def accepts(self, tree: Tree) -> bool:
        return self.eval(tree) in self.accepting

    def reachable(self) -> list:
        """States some tree evaluates to, in deterministic discovery order."""
        return saturate(self.alphabet, self.step, _same)[0]

    def complement(self) -> "Dbta":
        """Reachable part with total tables and the accepting set flipped."""
        reach, table = saturate(self.alphabet, self.step, _same)
        return Dbta(self.alphabet, reach, set(reach) - self.accepting, table, sink=None)

    def product(self, other: "Dbta", op: str) -> "Dbta":
        """Pairing construction; `op` is one of and / or / andnot."""
        if op not in ("and", "or", "andnot"):
            raise ValueError(f"unknown op {op!r}")
        if self.alphabet != other.alphabet:
            raise AlphabetError("product needs a shared alphabet")

        def name(pair, _i=None):
            return f"{pair[0]}|{pair[1]}"

        def step(letter, combo):
            return (
                self.step(letter, tuple(p[0] for p in combo)),
                other.step(letter, tuple(p[1] for p in combo)),
            )

        pairs, table = saturate(self.alphabet, step, name)
        accepting = set()
        for pair in pairs:
            in_a = pair[0] in self.accepting
            in_b = pair[1] in other.accepting
            keep = (in_a and in_b) if op == "and" else (in_a or in_b) if op == "or" else (in_a and not in_b)
            if keep:
                accepting.add(name(pair))
        return Dbta(self.alphabet, [name(p) for p in pairs], accepting, table, sink=None)

    def _tables(self):
        """Reachable states in discovery order and, per letter, the flat list
        of the target indices of all index tuples in row-major order."""
        reach, table = saturate(self.alphabet, self.step, _same)
        index = {q: i for i, q in enumerate(reach)}
        arrays = {
            letter: [index[table[letter][key]] for key in itertools.product(reach, repeat=ar)]
            for letter, ar in self.alphabet.items()
        }
        return reach, arrays

    def is_empty(self):
        """(True, None) if the language is empty, else (False, witness tree).

        The witness has minimal node count; ties break on s-expression text,
        which is exact whenever no label is a prefix of another.  Minimum
        sizes come from Knuth's generalisation of Dijkstra's algorithm: a
        state's size is final when it leaves the queue, and each index tuple
        is offered once, when its last state becomes final.  By then every
        tuple a state can be built from at its minimum size has been offered.
        """
        reach, arrays = self._tables()
        n = len(reach)
        size = [0] * n  # final minimum node counts; 0 until known
        best = [None] * n  # (size, text, letter, child indices) of the best offer
        heap = []

        def offer(letter, key):
            target = arrays[letter][_position(key, n)]
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
            older = done[:]
            done.append(q)
            for letter, ar in self.alphabet.items():
                # tuples over final states whose first q is at position p
                for p in range(ar):
                    for head in itertools.product(older, repeat=p):
                        for tail in itertools.product(done, repeat=ar - 1 - p):
                            offer(letter, head + (q,) + tail)
        live = [i for i, q in enumerate(reach) if q in self.accepting]
        if not live:
            return True, None
        trees = {}
        for q in done:
            _, _, letter, key = best[q]
            trees[q] = Tree(letter, tuple(trees[i] for i in key))
        return False, trees[min(live, key=lambda i: best[i][:2])]

    def minimize(self) -> "Dbta":
        """Reachable states merged up to context distinguishability.

        Partition refinement with single-letter contexts: two states split as
        soon as some letter, position, and tuple of reachable sibling states
        sends them to different blocks.  Tree contexts factor through these
        one-node contexts, so the result is the Myhill-Nerode quotient and
        equality of state transformations on it coincides with
        interchangeability in every context.  Rounds run Moore-style over the
        integer tables of `_tables`; quotient states are named m0, m1, ...
        in order of their sorted member lists.
        """
        reach, arrays = self._tables()
        n = len(reach)
        block = [q in self.accepting for q in reach]
        count = len(set(block))
        while True:
            targets = [(ar, [block[t] for t in arrays[letter]]) for letter, ar in self.alphabet.items()]
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
        members = {}
        for i, q in enumerate(reach):
            members.setdefault(block[i], []).append(i)
        ordered = sorted(members.values(), key=lambda ids: sorted(reach[i] for i in ids))
        name_of = [None] * n
        for k, ids in enumerate(ordered):
            for i in ids:
                name_of[i] = f"m{k}"
        reps = [ids[0] for ids in ordered]
        table = {}
        for letter, ar in self.alphabet.items():
            flat = arrays[letter]
            rows = table[letter] = {}
            for key in itertools.product(reps, repeat=ar):
                rows[tuple(name_of[i] for i in key)] = name_of[flat[_position(key, n)]]
        accepting = {name_of[i] for i, q in enumerate(reach) if q in self.accepting}
        sink = name_of[reach.index(self.sink)] if self.sink in reach else None
        if sink in accepting:
            sink = None
        return Dbta(self.alphabet, set(name_of), accepting, table, sink=sink)

    def to_text(self) -> str:
        lines = ["alphabet:"]
        lines += [f"{name}/{ar}" for name, ar in self.alphabet.items()]
        lines.append(f"states: {' '.join(self.states)}")
        lines.append(f"accepting: {' '.join(sorted(self.accepting))}")
        if self.sink is not None:
            lines.append(f"sink: {self.sink}")
        for letter in sorted(self.transitions):
            for key in sorted(self.transitions[letter]):
                lines.append(f"{letter}({','.join(key)}) -> {self.transitions[letter][key]}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


class Nta:
    """Nondeterministic bottom-up tree automaton; transitions map tuples to state sets."""

    def __init__(self, alphabet, states, accepting, transitions):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(states)))
        state_set = set(self.states)
        self.accepting = frozenset(accepting)
        if not self.accepting <= state_set:
            raise FormatError("accepting states not declared")
        self.transitions = {}
        for letter, table in transitions.items():
            ar = alphabet.arity(letter)
            cleaned = {}
            for key, values in table.items():
                key = tuple(key)
                values = frozenset(values)
                if len(key) != ar:
                    raise ArityError(f"{letter!r} transition keyed by {len(key)} states, arity is {ar}")
                if not set(key) <= state_set or not values <= state_set:
                    raise FormatError(f"undeclared state in transition {letter}{key}")
                if values:
                    cleaned[key] = values
            self.transitions[letter] = cleaned
        for letter, _ in alphabet.items():
            self.transitions.setdefault(letter, {})

    def eval_set(self, tree: Tree) -> frozenset:
        self.alphabet.validate(tree)
        return self._eval_set(tree)

    def _eval_set(self, tree: Tree) -> frozenset:
        child_sets = [self._eval_set(c) for c in tree.children]
        out = set()
        for key, values in self.transitions[tree.label].items():
            if all(key[i] in child_sets[i] for i in range(len(key))):
                out |= values
        return frozenset(out)

    def accepts(self, tree: Tree) -> bool:
        return bool(self.eval_set(tree) & self.accepting)

    def determinize(self) -> Dbta:
        """Subset construction over reachable subsets; the empty subset is the sink."""

        def step(letter, subsets):
            target = set()
            for rel_key, values in self.transitions[letter].items():
                if all(q in subset for q, subset in zip(rel_key, subsets)):
                    target |= values
            return frozenset(target) if target else None

        order, table = saturate(self.alphabet, step, lambda _subset, i: f"d{i}")
        sink = "dempty"
        states = [f"d{i}" for i in range(len(order))] + [sink]
        accepting = {f"d{i}" for i, s in enumerate(order) if s & self.accepting}
        return Dbta(self.alphabet, states, accepting, table, sink=sink)

    def to_text(self) -> str:
        lines = ["alphabet:"]
        lines += [f"{name}/{ar}" for name, ar in self.alphabet.items()]
        lines.append(f"states: {' '.join(self.states)}")
        lines.append(f"accepting: {' '.join(sorted(self.accepting))}")
        for letter in sorted(self.transitions):
            for key in sorted(self.transitions[letter]):
                targets = ",".join(sorted(self.transitions[letter][key]))
                lines.append(f"{letter}({','.join(key)}) -> {{{targets}}}")
        return "\n".join(lines) + "\n"


def _parse_common(text: str, where: str):
    letters, headers, transition_lines = fmt.split_document(text)
    alphabet = fmt.parse_alphabet(letters, where)
    states = fmt.header_tokens(headers, "states")
    if not states:
        raise FormatError(f"{where}: missing 'states' header")
    accepting = fmt.header_tokens(headers, "accepting")
    return alphabet, states, accepting, headers, transition_lines


def parse_dbta(text: str) -> Dbta:
    alphabet, states, accepting, headers, lines = _parse_common(text, "dbta")
    sink_tokens = fmt.header_tokens(headers, "sink")
    sink = sink_tokens[0] if sink_tokens else None
    transitions = {}
    for lineno, line in lines:
        lhs, rhs = fmt.split_transition(lineno, line)
        letter, key = fmt.parse_application(lineno, lhs)
        if "{" in rhs:
            raise FormatError(f"line {lineno}: set-valued target in a deterministic automaton")
        transitions.setdefault(letter, {})[key] = rhs
    return Dbta(alphabet, states, accepting, transitions, sink=sink)


def parse_nta(text: str) -> Nta:
    alphabet, states, accepting, _headers, lines = _parse_common(text, "nta")
    transitions = {}
    for lineno, line in lines:
        lhs, rhs = fmt.split_transition(lineno, line)
        letter, key = fmt.parse_application(lineno, lhs)
        if not (rhs.startswith("{") and rhs.endswith("}")):
            raise FormatError(f"line {lineno}: expected a {{...}} target set")
        inner = rhs[1:-1].strip()
        values = {part.strip() for part in inner.split(",")} if inner else set()
        table = transitions.setdefault(letter, {})
        table[key] = table.get(key, frozenset()) | values
    return Nta(alphabet, states, accepting, transitions)
