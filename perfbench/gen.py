"""Seeded input generators for the benchmark.

Everything here is plain Python plus the program's public constructors
(`Dfa`, `Tree`, `enumerate_terms`); nothing is computed by the code the
benchmark measures.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

from treesep.trees import PORT, RankedAlphabet, Tree, enumerate_terms, format_tree
from treesep.words import Dfa

LETTERS = ("p", "q")
K_STATES = ("k0", "k1", "k2")
# Two letters acting on three states generate at most 24 transformations.
# The size of a minimal DFA's transition monoid fixes how many behaviours
# its depth-first walker has: 24 -> 222, 13 -> 80, 11 -> 66.
FULL_MONOID = 24


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------- word automata


def reachable(initial, delta) -> list:
    seen = [initial]
    i = 0
    while i < len(seen):
        for letter in LETTERS:
            target = delta[(seen[i], letter)]
            if target not in seen:
                seen.append(target)
        i += 1
    return seen


def is_minimal(states, initial, accepting, delta) -> bool:
    """All states reachable and pairwise distinguishable (Moore refinement)."""
    if len(reachable(initial, delta)) != len(states):
        return False
    block = {q: q in accepting for q in states}
    while True:
        sig = {q: (block[q],) + tuple(block[delta[(q, a)]] for a in LETTERS) for q in states}
        if len(set(sig.values())) == len(set(block.values())):
            return len(set(sig.values())) == len(states)
        block = sig


def monoid_size(states, delta) -> int:
    """Number of transformations induced by nonempty words."""
    index = {q: i for i, q in enumerate(states)}
    gens = [tuple(index[delta[(q, a)]] for q in states) for a in LETTERS]
    seen = set(gens)
    todo = list(gens)
    while todo:
        f = todo.pop()
        for g in gens:
            h = tuple(g[x] for x in f)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def minimal_k(rng: random.Random, monoid: int = FULL_MONOID) -> Dfa:
    """A minimal 3-state DFA over {p,q} whose transition monoid has
    `monoid` elements, by rejection sampling (2.5% of draws are kept for
    24 elements, 0.8% for 13)."""
    while True:
        delta = {(q, a): rng.choice(K_STATES) for q in K_STATES for a in LETTERS}
        accepting = {q for q in K_STATES if rng.random() < 0.5}
        if is_minimal(K_STATES, "k0", accepting, delta) and monoid_size(K_STATES, delta) == monoid:
            return Dfa(LETTERS, K_STATES, "k0", accepting, delta)


def reachable_random_dfa(rng: random.Random, n: int) -> Dfa:
    """A random n-state DFA whose states are all reachable (rejection sampling)."""
    states = [f"s{i:02d}" for i in range(n)]
    while True:
        delta = {(q, a): rng.choice(states) for q in states for a in LETTERS}
        if len(reachable(states[0], delta)) == n:
            break
    accepting = {q for q in states if rng.random() < 0.5}
    return Dfa(LETTERS, states, states[0], accepting, delta)


def threshold_dfa(m: int) -> Dfa:
    """Accepts exactly the words with at least m letters; m + 1 states."""
    states = [f"t{i:02d}" for i in range(m + 1)]
    delta = {(states[i], a): states[min(i + 1, m)] for i in range(m + 1) for a in LETTERS}
    return Dfa(LETTERS, states, states[0], {states[m]}, delta)


def dfa_run(dfa: Dfa, word) -> bool:
    """Plain table walk, independent of `Dfa.run`."""
    q = dfa.initial
    for letter in word:
        q = dfa.delta[(q, letter)]
    return q in dfa.accepting


# ---------------------------------------------------------------- trees

SHAPES = ("left-comb", "right-comb", "random")
MIN_LEAVES = 16
MAX_LEAVES = 4096
PAIR = RankedAlphabet({"a": 2, "c": 0})
# Every binary term over {a, c} with two ports and at most five nodes.
PAD_TERMS = tuple(enumerate_terms(PAIR, 2, 5))


class GenTree:
    """One generated input tree: its word, shape, text and node count."""

    __slots__ = ("word", "shape", "text", "nodes", "tree", "depth")

    def __init__(self, word, shape, text, nodes, tree, depth):
        self.word = word
        self.shape = shape
        self.text = text
        self.nodes = nodes
        self.tree = tree
        self.depth = depth


def _pad_parts(term: Tree) -> tuple:
    """Text of a two-port term split around its ports: (before, between, after)."""
    parts = format_tree(term).split(PORT)
    if len(parts) != 3:
        raise ValueError("padding terms must have exactly two ports")
    return tuple(parts)


_PAD_TEXT = tuple(_pad_parts(t) for t in PAD_TERMS)


def _fill(term: Tree, left: Tree, right: Tree) -> Tree:
    """Substitute two subtrees for the ports of a shallow term."""
    args = iter((left, right))

    def sub(node):
        if node.label == PORT:
            return next(args)
        if not node.children:
            return node
        return Tree(node.label, [sub(c) for c in node.children])

    return sub(term)


def _port_depths(term: Tree) -> tuple:
    out = []
    stack = [(term, 0)]
    while stack:
        node, d = stack.pop()
        if node.label == PORT:
            out.append(d)
        stack.extend((c, d + 1) for c in reversed(node.children))
    return tuple(out)


_PAD_DEPTHS = tuple(_port_depths(t) for t in PAD_TERMS)


def _skeleton(rng: random.Random, n: int, shape: str) -> list:
    """Binary bracketing of positions 0..n-1 as a post-order node list.

    Entry i is ("leaf", position) or ("node", left_index, right_index).
    """
    nodes = []
    if shape == "left-comb":
        acc = len(nodes)
        nodes.append(("leaf", 0))
        for pos in range(1, n):
            nodes.append(("leaf", pos))
            nodes.append(("node", acc, len(nodes) - 1))
            acc = len(nodes) - 1
    elif shape == "right-comb":
        acc = len(nodes)
        nodes.append(("leaf", n - 1))
        for pos in range(n - 2, -1, -1):
            nodes.append(("leaf", pos))
            nodes.append(("node", len(nodes) - 1, acc))
            acc = len(nodes) - 1
    elif shape == "random":
        # Uniform random split point at every node, built without recursion.
        stack = [("open", 0, n)]
        done = []
        while stack:
            item = stack.pop()
            if item[0] == "open":
                _, lo, hi = item
                if hi - lo == 1:
                    nodes.append(("leaf", lo))
                    done.append(len(nodes) - 1)
                else:
                    mid = rng.randint(lo + 1, hi - 1)
                    stack.append(("close",))
                    stack.append(("open", mid, hi))
                    stack.append(("open", lo, mid))
            else:
                right = done.pop()
                left = done.pop()
                nodes.append(("node", left, right))
                done.append(len(nodes) - 1)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return nodes


def make_tree(rng: random.Random, word: tuple, shape: str) -> GenTree:
    """Bracket `word` by `shape` and pad every binary node with a random term."""
    skel = _skeleton(rng, len(word), shape)
    pads = [rng.randrange(len(PAD_TERMS)) if entry[0] == "node" else -1 for entry in skel]
    built = []
    depth = []
    nodes = 0
    for i, entry in enumerate(skel):
        if entry[0] == "leaf":
            built.append(Tree(word[entry[1]]))
            depth.append(0)
            nodes += 1
        else:
            term = PAD_TERMS[pads[i]]
            left, right = entry[1], entry[2]
            built.append(_fill(term, built[left], built[right]))
            dl, dr = _PAD_DEPTHS[pads[i]]
            depth.append(max(dl + depth[left], dr + depth[right]))
            nodes += term.size - 2
            built[left] = built[right] = None
    parts = []
    stack = [len(skel) - 1]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        entry = skel[item]
        if entry[0] == "leaf":
            parts.append(word[entry[1]])
        else:
            before, between, after = _PAD_TEXT[pads[item]]
            stack.extend((after, entry[2], between, entry[1], before))
    return GenTree(word, shape, "".join(parts), nodes, built[-1], depth[-1])


def log_uniform_lengths(count: int) -> list:
    """Midpoints of `count` equal strata of log-length on [MIN_LEAVES, MAX_LEAVES].

    Fixed lengths keep the work and the share of deep trees the same from
    seed to seed; the seed draws the words, bracketings and padding.
    """
    ratio = MAX_LEAVES / MIN_LEAVES
    return [round(MIN_LEAVES * ratio ** ((i + 0.5) / count)) for i in range(count)]


def tree_pool(rng: random.Random, per_shape: int) -> list:
    """`per_shape` trees of each shape, log-spaced lengths, order shuffled."""
    pool = []
    for shape in SHAPES:
        for n in log_uniform_lengths(per_shape):
            word = tuple(rng.choice(LETTERS) for _ in range(n))
            pool.append(make_tree(rng, word, shape))
    rng.shuffle(pool)
    return pool
