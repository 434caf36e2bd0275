"""Deterministic tree-walking automata.

A configuration is a pair (state, node).  The run semantics detect loops by
configuration repetition instead of relying on a halting normal form: per
input tree this yields the same language and produces exact trace lengths
for the tracer.  Walking out of the tree (a parent move at the root) is a
distinct outcome, folded into non-acceptance.

Position tags are integers: 0 for the root, i >= 1 for "this node is the
i-th child of its parent".  Transition maps must be total over
(state, tag in 0..maxarity) for every letter, even for tags a letter can
never actually occupy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from . import fmt
from .errors import AlphabetError, ArityError, FormatError
from .trees import RankedAlphabet, Tree
from .bottomup import Dbta, saturate
from .words import Dfa

ACCEPT = "accept"
REJECT = "reject"
LOOP = "loop"
ESCAPE = "escape"

PARENT = -1
STAY = 0
ROOT_TAG = 0

# local outcomes of a subtree behavior
OUT_ACCEPT = ("accept",)
OUT_REJECT = ("reject",)
OUT_LOOP = ("loop",)


def out_exit(state) -> tuple:
    return ("exit", state)


@dataclass
class RunOutcome:
    """Verdict of a run plus the number of moves taken.

    `trace`, when collected, lists every configuration visited as
    (state, path, tag) with 1-based child paths.
    """

    kind: str
    steps: int
    trace: list | None = None


class Dtwa:
    """Deterministic tree-walking automaton.

    `delta` maps (letter, tag, state) to "accept", "reject", or a pair
    (next_state, move) with move in {PARENT, STAY, 1..arity(letter)}.
    """

    def __init__(self, alphabet: RankedAlphabet, states, initial, delta):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(states)))
        state_set = set(self.states)
        if initial not in state_set:
            raise FormatError(f"initial state {initial!r} not declared")
        self.initial = initial
        self.delta = dict(delta)
        for letter, ar in alphabet.items():
            for tag in range(0, alphabet.maxarity + 1):
                for q in self.states:
                    key = (letter, tag, q)
                    if key not in self.delta:
                        raise FormatError(
                            f"missing action for letter {letter!r}, tag {tag}, state {q!r}; "
                            "the transition map must be total"
                        )
                    act = self.delta[key]
                    if act in (ACCEPT, REJECT):
                        continue
                    q2, move = act
                    if q2 not in state_set:
                        raise FormatError(f"undeclared state {q2!r} in action for {key}")
                    if not (move == PARENT or move == STAY or 1 <= move <= ar):
                        raise FormatError(
                            f"move {move} out of range for letter {letter!r} of arity {ar}"
                        )
        self._rows = None

    def _compiled(self) -> dict:
        """Integer form of `delta`, built on first use: per letter, one
        (move, value) pair per slot (tag, state), tag-major, with the n
        states numbered in sorted order.

        PARENT ends the local walk with `value` as its outcome code (see
        `_compose`): the exit state's number, n for accept or n + 1 for
        reject.  STAY goes on in state number `value`, and a child move i
        enters child i at slot `value`, i.e. (i, next state) of the child's
        behaviour.
        """
        if self._rows is None:
            n = len(self.states)
            number = {q: i for i, q in enumerate(self.states)}
            ends = {ACCEPT: (PARENT, n), REJECT: (PARENT, n + 1)}
            self._rows = {}
            for letter, _ar in self.alphabet.items():
                row = self._rows[letter] = []
                for tag in self.tags():
                    for q in self.states:
                        act = self.delta[(letter, tag, q)]
                        if act in (ACCEPT, REJECT):
                            row.append(ends[act])
                        else:
                            q2, move = act
                            row.append((move, max(move, 0) * n + number[q2]))
        return self._rows

    def action(self, letter, tag, state):
        try:
            return self.delta[(letter, tag, state)]
        except KeyError:
            raise AlphabetError(f"letter {letter!r} not in alphabet") from None

    def run(self, tree: Tree, collect_trace: bool = False) -> RunOutcome:
        """Simulate from (initial, root) until a verdict.

        Accept/reject commands end the run without counting as a move; a
        parent move at the root is an Escape; a repeated configuration is a
        Loop.  Step count is the number of moves taken.
        """
        self.alphabet.validate(tree)
        # A configuration's node is keyed by a position id, handed out the
        # first time the run enters a (parent id, child index); keying by the
        # path itself would make every move cost the current depth.
        stack = [(tree, 0)]
        position_ids = {}
        path = []
        state = self.initial
        steps = 0
        visited = {(state, 0)}
        trace = [(state, (), ROOT_TAG)] if collect_trace else None
        while True:
            node, pos = stack[-1]
            tag = path[-1] if path else ROOT_TAG
            act = self.action(node.label, tag, state)
            if act == ACCEPT:
                return RunOutcome(ACCEPT, steps, trace)
            if act == REJECT:
                return RunOutcome(REJECT, steps, trace)
            state, move = act
            steps += 1
            if move == PARENT:
                if not path:
                    return RunOutcome(ESCAPE, steps, trace)
                stack.pop()
                path.pop()
            elif move != STAY:
                child = position_ids.setdefault((pos, move), len(position_ids) + 1)
                stack.append((node.children[move - 1], child))
                path.append(move)
            if collect_trace:
                trace.append((state, tuple(path), path[-1] if path else ROOT_TAG))
            config = (state, stack[-1][1])
            if config in visited:
                return RunOutcome(LOOP, steps, trace)
            visited.add(config)

    def accepts(self, tree: Tree) -> bool:
        return self.run(tree).kind == ACCEPT

    def tags(self):
        return range(0, self.alphabet.maxarity + 1)

    def to_text(self) -> str:
        lines = ["alphabet:"]
        lines += [f"{name}/{ar}" for name, ar in self.alphabet.items()]
        lines.append(f"states: {' '.join(self.states)}")
        lines.append(f"initial: {self.initial}")
        for letter, _ar in self.alphabet.items():
            for tag in self.tags():
                for q in self.states:
                    act = self.delta[(letter, tag, q)]
                    tag_text = "root" if tag == ROOT_TAG else str(tag)
                    if act in (ACCEPT, REJECT):
                        rhs = act
                    else:
                        q2, move = act
                        if move == PARENT:
                            rhs = f"{q2} parent"
                        elif move == STAY:
                            rhs = f"{q2} stay"
                        else:
                            rhs = f"{q2} child {move}"
                    lines.append(f"{letter}[{tag_text}] {q} -> {rhs}")
        return "\n".join(lines) + "\n"


def parse_dtwa(text: str) -> Dtwa:
    letters, headers, transition_lines = fmt.split_document(text)
    alphabet = fmt.parse_alphabet(letters, "dtwa")
    states = fmt.header_tokens(headers, "states")
    if not states:
        raise FormatError("dtwa: missing 'states' header")
    initial = fmt.require_header(headers, "initial", "dtwa").strip()
    delta = {}
    pattern = re.compile(r"^([A-Za-z0-9]+)\[(root|\d+)\]\s+(\S+)$")
    for lineno, line in transition_lines:
        lhs, rhs = fmt.split_transition(lineno, line)
        m = pattern.match(lhs)
        if not m:
            raise FormatError(f"line {lineno}: expected letter[tag] state -> action")
        letter, tag_text, q = m.groups()
        tag = ROOT_TAG if tag_text == "root" else int(tag_text)
        tokens = rhs.split()
        if tokens == [ACCEPT]:
            act = ACCEPT
        elif tokens == [REJECT]:
            act = REJECT
        elif len(tokens) == 2 and tokens[1] == "parent":
            act = (tokens[0], PARENT)
        elif len(tokens) == 2 and tokens[1] == "stay":
            act = (tokens[0], STAY)
        elif len(tokens) == 3 and tokens[1] == "child" and tokens[2].isdigit():
            act = (tokens[0], int(tokens[2]))
        else:
            raise FormatError(f"line {lineno}: bad action {rhs!r}")
        delta[(letter, tag, q)] = act
    return Dtwa(alphabet, states, initial, delta)


def format_path(path) -> str:
    """Render a 1-based child path for trace output; the root is "/"."""
    return "/" if not path else "/" + "/".join(str(i) for i in path)


def dfs_from_dfa(dfa: Dfa, alphabet: RankedAlphabet) -> Dtwa:
    """Depth-first traversal automaton for a word automaton over the leaves.

    Accepts a tree iff the left-to-right sequence of its leaf labels that lie
    in the word automaton's alphabet is accepted; other arity-0 letters are
    skipped without consuming input.  The result never loops and never walks
    out of the tree.
    """
    gamma = set(dfa.alphabet)
    zero = set(alphabet.zero_arity())
    if not gamma <= zero:
        raise AlphabetError("word alphabet must consist of arity-0 tree letters")
    maxar = alphabet.maxarity

    def down(k):
        return f"d_{k}"

    def up(i, k):
        return f"u{i}_{k}"

    states = [down(k) for k in dfa.states]
    states += [up(i, k) for i in range(1, maxar + 1) for k in dfa.states]
    delta = {}
    for letter, ar in alphabet.items():
        for tag in range(0, maxar + 1):
            for k in dfa.states:
                if ar >= 1:
                    delta[(letter, tag, down(k))] = (down(k), 1)
                else:
                    k2 = dfa.delta[(k, letter)] if letter in gamma else k
                    if tag == ROOT_TAG:
                        delta[(letter, tag, down(k))] = ACCEPT if k2 in dfa.accepting else REJECT
                    else:
                        delta[(letter, tag, down(k))] = (up(tag, k2), PARENT)
                for i in range(1, maxar + 1):
                    if i < ar:
                        delta[(letter, tag, up(i, k))] = (down(k), i + 1)
                    elif i == ar:
                        if tag == ROOT_TAG:
                            delta[(letter, tag, up(i, k))] = ACCEPT if k in dfa.accepting else REJECT
                        else:
                            delta[(letter, tag, up(i, k))] = (up(tag, k), PARENT)
                    else:
                        delta[(letter, tag, up(i, k))] = REJECT
    return Dtwa(alphabet, states, down(dfa.initial), delta)


def _compose(dtwa: Dtwa, letter, children) -> tuple:
    """Behaviour of a `letter` node whose i-th child has the behaviour
    `children[i - 1]`.

    A behaviour is a tuple of outcome codes over the slots (tag, entry
    state), tag-major.  With n states, codes 0..n-1 mean "exits upward in
    that state", n accept, n + 1 reject and n + 2 loop.  A child exit resumes
    the walk at this node.  A walk at this node that has not ended after n
    states repeats one, and so does the global configuration, which is exact
    for deterministic automata.
    """
    row = dtwa._compiled()[letter]
    n = len(dtwa.states)
    walk = range(n)
    out = []
    for base in range(0, len(row), n):
        for q in walk:
            for _ in walk:
                move, value = row[base + q]
                if move > 0:
                    code = children[move - 1][value]
                    if code >= n:
                        break
                    q = code
                elif move == PARENT:
                    code = value
                    break
                else:
                    q = value
            else:
                code = n + 2
            out.append(code)
    return tuple(out)


def behavior_of_leaf(dtwa: Dtwa, letter) -> dict:
    """Behavior of a single-node subtree: (tag, entry state) -> local outcome."""
    if dtwa.alphabet.arity(letter) != 0:
        raise ArityError(f"letter {letter!r} is not arity-0")
    return behavior_compose(dtwa, letter, ())


def behavior_compose(dtwa: Dtwa, letter, child_behaviors) -> dict:
    """Behavior of a subtree with the given root letter and child behaviors."""
    child_behaviors = tuple(child_behaviors)
    if len(child_behaviors) != dtwa.alphabet.arity(letter):
        raise ArityError(
            f"letter {letter!r} has arity {dtwa.alphabet.arity(letter)}, "
            f"got {len(child_behaviors)} child behaviors"
        )
    outcomes = [out_exit(q) for q in dtwa.states] + [OUT_ACCEPT, OUT_REJECT, OUT_LOOP]
    code = {out: i for i, out in enumerate(outcomes)}
    slots = [(tag, q) for tag in dtwa.tags() for q in dtwa.states]
    children = [tuple(code[child[slot]] for slot in slots) for child in child_behaviors]
    return dict(zip(slots, (outcomes[c] for c in _compose(dtwa, letter, children))))


def to_dbta(dtwa: Dtwa) -> Dbta:
    """Bottom-up automaton whose states are the reachable subtree behaviors.

    A behavior is accepting when entering the subtree as the whole tree, at
    the root tag in the initial state, leads to Accept.  The table is total
    over the reachable behaviors, so no sink is needed.  Behaviors are the
    outcome-code tuples of `_compose`, which are their own intern keys.

    A node's walk enters child i only at the slots its own child-i moves
    name, so its behavior is a function of the letter and of the children's
    codes at those slots, and is composed once per distinct such key.
    """
    reads = {}
    for letter, ar in dtwa.alphabet.items():
        row = dtwa._compiled()[letter]
        slots = [sorted({value for move, value in row if move == i}) for i in range(1, ar + 1)]
        reads[letter] = [itemgetter(*s) if s else (lambda _child: ()) for s in slots]
    composed = {}

    def step(letter, children):
        key = (letter, *[read(child) for read, child in zip(reads[letter], children)])
        behavior = composed.get(key)
        if behavior is None:
            behavior = composed[key] = _compose(dtwa, letter, children)
        return behavior

    order, table = saturate(dtwa.alphabet, step, lambda _behavior, i: f"b{i}")
    start = ROOT_TAG * len(dtwa.states) + dtwa.states.index(dtwa.initial)
    accepting = {f"b{i}" for i, behavior in enumerate(order) if behavior[start] == len(dtwa.states)}
    return Dbta(dtwa.alphabet, [f"b{i}" for i in range(len(order))], accepting, table, sink=None)
