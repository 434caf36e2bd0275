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


def _local_outcome(dtwa: Dtwa, letter, tag, entry, child_behaviors):
    """Walk the token while it sits at one `letter` node with the given tag.

    Child moves are resolved through the child behaviors; a repeated state at
    this node means the global configuration repeats, which is exact for
    deterministic automata.
    """
    seen = set()
    q = entry
    while True:
        if q in seen:
            return OUT_LOOP
        seen.add(q)
        act = dtwa.action(letter, tag, q)
        if act == ACCEPT:
            return OUT_ACCEPT
        if act == REJECT:
            return OUT_REJECT
        q2, move = act
        if move == PARENT:
            return out_exit(q2)
        if move == STAY:
            q = q2
            continue
        result = child_behaviors[move - 1][(move, q2)]
        if result[0] == "exit":
            q = result[1]
            continue
        return result


def behavior_of_leaf(dtwa: Dtwa, letter) -> dict:
    """Behavior of a single-node subtree: (tag, entry state) -> local outcome."""
    if dtwa.alphabet.arity(letter) != 0:
        raise ArityError(f"letter {letter!r} is not arity-0")
    return {
        (tag, q): _local_outcome(dtwa, letter, tag, q, ())
        for tag in dtwa.tags()
        for q in dtwa.states
    }


def behavior_compose(dtwa: Dtwa, letter, child_behaviors) -> dict:
    """Behavior of a subtree with the given root letter and child behaviors."""
    child_behaviors = tuple(child_behaviors)
    if len(child_behaviors) != dtwa.alphabet.arity(letter):
        raise ArityError(
            f"letter {letter!r} has arity {dtwa.alphabet.arity(letter)}, "
            f"got {len(child_behaviors)} child behaviors"
        )
    return {
        (tag, q): _local_outcome(dtwa, letter, tag, q, child_behaviors)
        for tag in dtwa.tags()
        for q in dtwa.states
    }


def to_dbta(dtwa: Dtwa) -> Dbta:
    """Bottom-up automaton whose states are the reachable subtree behaviors.

    A behavior is accepting when entering the subtree as the whole tree, at
    the root tag in the initial state, leads to Accept.  The table is total
    over the reachable behaviors, so no sink is needed.  Behaviors are
    interned by their tuple of outcomes, which is sound because
    `behavior_compose` always lists the (tag, state) slots in one order.
    """
    behaviors = {}

    def step(letter, children):
        behavior = behavior_compose(dtwa, letter, (behaviors[c] for c in children))
        key = tuple(behavior.values())
        behaviors.setdefault(key, behavior)
        return key

    order, table = saturate(dtwa.alphabet, step, lambda _key, i: f"b{i}")
    accepting = {
        f"b{i}"
        for i, key in enumerate(order)
        if behaviors[key][(ROOT_TAG, dtwa.initial)] == OUT_ACCEPT
    }
    return Dbta(dtwa.alphabet, [f"b{i}" for i in range(len(order))], accepting, table, sink=None)
