"""Deterministic tree-walking automata.

A configuration is a pair (state, node).  The run semantics detect loops by
configuration repetition instead of relying on a halting normal form: per
input tree this yields the same language and produces exact trace lengths
for the tracer.  Walking out of the tree (a parent move at the root) is a
distinct outcome, folded into non-acceptance.

Position tags are integers: 0 for the root, i >= 1 for "this node is the
i-th child of its parent".  Transition maps must be total over
(state, tag in 0..maxarity) for every letter, even for tags a letter can
never actually occupy, and hold no other key.

The behaviour of a subtree says, for each slot (tag, entry state), how a
walk entering the subtree there ends: it exits upward in some state,
accepts, rejects or loops.  A node's behaviour depends only on its letter and
its children's behaviours, so `to_dbta` turns the walker into a bottom-up
automaton over behaviours, each a tuple of integer outcome codes (`_compose`).

A parent's walk enters child i only at the slots (i, q) its own child moves
name.  So two behaviours that agree at every slot some child move enters,
and on root acceptance, compose to the same behaviour in every context: this
read-slot equivalence is a congruence between behaviour equality and the
Myhill-Nerode equivalence.  `to_dbta` saturates over its classes and keeps
the table it builds: rows over tuples of classes, with each behaviour's
class as its row coordinate (see `bottomup`), so classes^arity entries
rather than behaviours^arity.  `minimal_dbta` is its `minimize`, whose
refinement runs over the classes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import fmt
from .errors import AlphabetError, FormatError
from .trees import _NAME, RankedAlphabet, Tree
from .bottomup import Dbta, saturate
from .words import Dfa

ACCEPT = "accept"
REJECT = "reject"
LOOP = "loop"
ESCAPE = "escape"

PARENT = -1
STAY = 0
ROOT_TAG = 0

_NONE = object()  # what `Dtwa.__init__` reads at a slot `delta` leaves out


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

    `_rows` is its integer form, built in the pass that checks it: per
    letter, one (move, value) pair per slot (tag, state), tag-major, with
    the n states numbered in sorted order.  PARENT ends the local walk with
    `value` as its outcome code (see `_compose`): the exit state's number, n
    for accept or n + 1 for reject.  STAY goes on in state number `value`,
    and a child move i enters child i at slot `value`, i.e. (i, next state)
    of the child's behaviour.
    """

    def __init__(self, alphabet: RankedAlphabet, states, initial, delta):
        self.alphabet = alphabet
        self.states = tuple(sorted(set(fmt.collection("states", states))))
        n = len(self.states)
        number = {q: i for i, q in enumerate(self.states)}
        if initial not in self.states:
            raise FormatError(f"initial state {initial!r} not declared")
        self.initial = initial
        self.delta = dict(delta)
        ends = {ACCEPT: (PARENT, n), REJECT: (PARENT, n + 1)}
        get = self.delta.get
        tags = self.tags()
        self._rows = {}
        for letter, ar in alphabet.items():
            row = self._rows[letter] = []
            for tag in tags:
                for q in self.states:
                    act = get((letter, tag, q), _NONE)
                    if act is _NONE:
                        raise FormatError(f"missing action for letter {letter!r}, tag {tag}, state {q!r}; "
                                          "the transition map must be total")
                    if act in (ACCEPT, REJECT):
                        row.append(ends[act])
                        continue
                    if type(act) is not tuple or len(act) != 2 or type(act[1]) is not int:
                        raise FormatError(f"bad action {act!r} for {(letter, tag, q)}")
                    q2, move = act
                    try:
                        target = number[q2]
                    except (KeyError, TypeError):  # an unhashable target is no state either
                        raise FormatError(f"undeclared state {q2!r} in action for {(letter, tag, q)}") from None
                    if not PARENT <= move <= ar:
                        raise FormatError(f"move {move} out of range for letter {letter!r} of arity {ar}")
                    row.append((move, move * n + target if move > 0 else target))
        if len(self.delta) != len(alphabet.items()) * len(tags) * n:
            slots = {(letter, tag, q) for letter, _ar in alphabet.items()
                     for tag in tags for q in self.states}
            stray = next(key for key in self.delta if key not in slots)
            raise FormatError(f"action for {stray!r} outside the letters, tags and states")

    def run(self, tree: Tree, collect_trace: bool = False) -> RunOutcome:
        """Simulate from (initial, root) until a verdict.

        Accept/reject commands end the run without counting as a move; a
        parent move at the root is an Escape; a repeated configuration is a
        Loop.  Step count is the number of moves taken.

        A run that ends repeats no configuration, so it ends within N * n
        moves on a tree of N node positions with n states.  An untraced run
        is first walked keeping no configurations; a traced run, or one not
        ended after N * n moves, is walked counting them (`_walk`).
        """
        # A run need not visit every node, so the whole tree is checked here.
        bound = self.alphabet.validate(tree) * len(self.states)
        outcome = None if collect_trace else self._walk(tree, bound, exact=False, collect_trace=False)
        return outcome or self._walk(tree, bound, exact=True, collect_trace=collect_trace)

    def _walk(self, tree, bound, exact, collect_trace):
        """The move loop of `run`, for at most `bound` moves; None if the run
        has not ended by then, which an `exact` walk never returns.

        An `exact` walk keys each node by a position id, handed out the first
        time it enters (parent id, child index), and each configuration by
        pos * n + state, with states numbered as in `_rows`, so that no
        move costs the current depth.  A traced walk records each new
        position's child path once, and its trace entries share that tuple.
        """
        rows = self._rows
        n = len(self.states)
        width = self.alphabet.maxarity + 1
        position_ids = {}
        paths = [()]  # the child path of each position id, when tracing
        above = []  # (node, position id, tag) of every ancestor
        node, pos, tag = tree, 0, ROOT_TAG
        state = self.states.index(self.initial)
        visited = {state}
        trace = [(self.initial, (), ROOT_TAG)] if collect_trace else None
        for steps in range(1, bound + 1):
            move, value = rows[node.label][tag * n + state]
            if move == PARENT:
                if value >= n:
                    return RunOutcome(ACCEPT if value == n else REJECT, steps - 1, trace)
                state = value
                if not above:
                    return RunOutcome(ESCAPE, steps, trace)
                node, pos, tag = above.pop()
            elif move == STAY:
                state = value
            else:
                # the child's row index, (move, next state), is `value` itself
                state = value - move * n
                above.append((node, pos, tag))
                node, tag = node.children[move - 1], move
            if exact:
                if move > 0:
                    key = pos * width + move
                    child = position_ids.get(key)
                    if child is None:
                        child = position_ids[key] = len(position_ids) + 1
                        if collect_trace:
                            paths.append(paths[pos] + (move,))
                    pos = child
                if collect_trace:
                    trace.append((self.states[state], paths[pos], tag))
                config = pos * n + state
                if config in visited:
                    return RunOutcome(LOOP, steps, trace)
                visited.add(config)
        return None

    def tags(self):
        return range(0, self.alphabet.maxarity + 1)

    def to_text(self) -> str:
        lines = []
        for (letter, tag, q), act in sorted(self.delta.items()):
            rhs = act if act in (ACCEPT, REJECT) else f"{act[0]} {_MOVES.get(act[1], f'child {act[1]}')}"
            lines.append(f"{letter}[{'root' if tag == ROOT_TAG else tag}] {q} -> {rhs}")
        return fmt.write(self.alphabet.items(), {"states": self.states, "initial": self.initial}, lines)


_MOVES = {PARENT: "parent", STAY: "stay"}
_LINE = re.compile(rf"({_NAME.pattern})\[(root|\d+)\]\s+(\S+)")


def parse_dtwa(text: str) -> Dtwa:
    def entry(lineno, lhs, rhs):
        m = _LINE.fullmatch(lhs)
        if not m:
            raise FormatError(f"line {lineno}: expected letter[tag] state -> action")
        letter, tag_text, q = m.groups()
        tokens = rhs.split()
        if tokens in ([ACCEPT], [REJECT]):
            act = tokens[0]
        elif len(tokens) == 2 and tokens[1] in ("parent", "stay"):
            act = (tokens[0], PARENT if tokens[1] == "parent" else STAY)
        elif len(tokens) == 3 and tokens[1] == "child" and tokens[2].isdecimal() and int(tokens[2]) >= 1:
            act = (tokens[0], int(tokens[2]))
        else:
            raise FormatError(f"line {lineno}: bad action {rhs!r}")
        return (letter, ROOT_TAG if tag_text == "root" else int(tag_text), q), act

    alphabet, states, headers, delta = fmt.read(text, "dtwa", ("initial",), entry)
    return Dtwa(alphabet, states, headers["initial"], delta)


def format_path(path) -> str:
    """Render a 1-based child path for trace output; the root is "/"."""
    return "/" if not path else "/" + "/".join(str(i) for i in path)


def dfs_from_dfa(dfa: Dfa, alphabet: RankedAlphabet) -> Dtwa:
    """Depth-first traversal automaton for a word automaton over the leaves.

    Accepts a tree iff the left-to-right sequence of its leaf labels that lie
    in the word automaton's alphabet is accepted; other arity-0 letters are
    skipped without consuming input.  The result never loops and never walks
    out of the tree.

    For each word state k, `d_k` walks down into a node, or reads a leaf, in
    state k, and `u{i}_k` is back at a node from its child i in state k.
    Walker texts, and so fingerprints, depend on these names.
    """
    gamma = set(dfa.alphabet)
    zero = set(alphabet.zero_arity())
    if not gamma <= zero:
        raise AlphabetError("word alphabet must consist of arity-0 tree letters")
    ks = dfa.states
    down = {k: f"d_{k}" for k in ks}
    up = [{k: f"u{i}_{k}" for k in ks} for i in range(1, alphabet.maxarity + 1)]
    # the action that leaves a node at a tag in word state k: the verdict at
    # the root, else a parent move into the up state of that child position
    leave = [{k: ACCEPT if k in dfa.accepting else REJECT for k in ks}]
    leave += [{k: (name, PARENT) for k, name in u.items()} for u in up]
    states = [*down.values()] + [name for u in up for name in u.values()]
    delta = {}
    for letter, ar in alphabet.items():
        for tag, out in enumerate(leave):
            for k in ks:
                d = down[k]
                if ar >= 1:
                    delta[(letter, tag, d)] = (d, 1)
                else:
                    k2 = dfa.delta[(k, letter)] if letter in gamma else k
                    delta[(letter, tag, d)] = out[k2]
                for i, u in enumerate(up, 1):
                    if i < ar:
                        delta[(letter, tag, u[k])] = (d, i + 1)
                    elif i == ar:
                        delta[(letter, tag, u[k])] = out[k]
                    else:
                        delta[(letter, tag, u[k])] = REJECT
    return Dtwa(alphabet, states, down[dfa.initial], delta)


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
    row = dtwa._rows[letter]
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


def to_dbta(dtwa: Dtwa) -> Dbta:
    """Bottom-up automaton whose states `b{i}` are the reachable subtree
    behaviours in discovery order.  A behaviour accepts when entering the
    subtree as the whole tree, at the root tag in the initial state, leads
    to Accept.  The table is total, so no sink is needed.

    Its rows are over tuples of read-slot classes, and a behaviour's row
    coordinate is its class.  `saturate` steps each (letter, class tuple)
    once.  Classes are numbered by their first member, so class tuples come
    in the order of their least behaviour index tuples, and a letter's pass
    steps exactly the class tuples at which a pass over behaviours could
    find new ones: behaviours are numbered as `saturate` over behaviours
    would number them.
    """
    n = len(dtwa.states)
    read = sorted({value for row in dtwa._rows.values() for move, value in row if move > 0})
    start = ROOT_TAG * n + dtwa.states.index(dtwa.initial)
    found = {}  # behaviour -> its index
    kind = []  # the class of each behaviour
    keys = {}  # (root accept, codes at the read slots) -> class index
    first = []  # the first behaviour of each class
    made = {letter: {} for letter, _ar in dtwa.alphabet.items()}

    def step(letter, classes):
        behaviour = _compose(dtwa, letter, [first[c] for c in classes])
        i = found.setdefault(behaviour, len(kind))
        if i == len(kind):
            c = keys.setdefault((behaviour[start] == n, *[behaviour[slot] for slot in read]), len(first))
            if c == len(first):
                first.append(behaviour)
            kind.append(c)
        made[letter][classes] = i
        return kind[i]

    saturate(dtwa.alphabet, step)
    names = [f"b{i}" for i in range(len(kind))]
    rows = {letter: (ar, [made[letter][key] for key in itertools.product(range(len(first)), repeat=ar)])
            for letter, ar in dtwa.alphabet.items()}
    return Dbta._trusted(dtwa.alphabet, names, kind, [b for b, c in zip(names, kind) if first[c][start] == n], rows)


def minimal_dbta(dtwa: Dtwa) -> Dbta:
    """The walker's minimal bottom-up automaton, `to_dbta(dtwa).minimize()`:
    its refinement runs over read-slot classes, not behaviours."""
    return to_dbta(dtwa).minimize()
