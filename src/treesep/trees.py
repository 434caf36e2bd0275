"""Ranked alphabets, trees, and linear terms with ports.

A term is an ordinary tree that may contain the reserved leaf ``*`` (a port).
Ports are numbered 1..n in left-to-right leaf order and each port is a
substitution slot used exactly once, so composition never duplicates an
argument.  Terms are composed (`compose`, `comb`), enumerated by size
(`enumerate_terms`), and written and read in one s-expression format
(`format_tree`, `parse_tree`).  Walks over a tree are iterative, so no depth
raises RecursionError; `size`, `leaf_word` and `compose` read one `postorder`
list, and a node caches only its hash.
"""

from __future__ import annotations

import itertools
import re
import string
from typing import Iterable, Iterator

from .errors import AlphabetError, ArityError, ParseError

PORT = "*"

_NAME = re.compile(r"[A-Za-z0-9]+")


class RankedAlphabet:
    """Finite set of letters, each with a fixed arity.

    Letter names are nonempty alphanumeric tokens; ``*`` is reserved for
    ports.  At least one letter must have arity 0, otherwise no finite tree
    exists over the alphabet.
    """

    __slots__ = ("_letters", "_max")

    def __init__(self, letters: dict):
        if not letters:
            raise AlphabetError("alphabet has no letters")
        for name, ar in letters.items():
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise AlphabetError(f"bad letter name {name!r}")
            if not isinstance(ar, int) or ar < 0:
                raise AlphabetError(f"bad arity {ar!r} for letter {name!r}")
        if not any(ar == 0 for ar in letters.values()):
            raise AlphabetError("alphabet needs at least one arity-0 letter")
        self._letters = dict(sorted(letters.items()))
        self._max = max(letters.values())

    @property
    def maxarity(self) -> int:
        return self._max

    def arity(self, name: str) -> int:
        try:
            return self._letters[name]
        except KeyError:
            raise AlphabetError(f"letter {name!r} not in alphabet") from None

    def __contains__(self, name) -> bool:
        return name in self._letters

    def items(self) -> tuple:
        return tuple(self._letters.items())

    def zero_arity(self) -> tuple:
        return tuple(n for n, a in self._letters.items() if a == 0)

    def validate(self, tree: "Tree", ports: bool = False) -> int:
        """Check labels and child counts; `ports=True` additionally admits ``*``.
        Returns the number of node positions, a shared subtree counted at
        each of them."""
        stack = [tree]
        count = 0
        while stack:
            node = stack.pop()
            count += 1
            if node.label == PORT:
                if not ports:
                    raise AlphabetError("ports not allowed here")
                if node.children:
                    raise AlphabetError("port must be a leaf")
                continue
            if len(node.children) != self.arity(node.label):
                raise AlphabetError(
                    f"letter {node.label!r} has arity {self.arity(node.label)}, "
                    f"node has {len(node.children)} children"
                )
            stack.extend(node.children)
        return count

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and self._letters == other._letters

    def __hash__(self):
        return hash(tuple(self._letters.items()))

    def __repr__(self):
        inner = ", ".join(f"{n}/{a}" for n, a in self._letters.items())
        return f"RankedAlphabet({inner})"


class Tree:
    """Immutable sibling-ordered tree with string labels.

    Equality and hashing are structural: the hash is ``hash((label,) +
    children)``, filled on first use for the node and its descendants
    without recursion, and the only thing a node caches.  A fill only
    writes the value every fill computes, so trees stay safe to share
    between threads.
    """

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label: str, children: Iterable["Tree"] = ()):
        self.label = label
        self.children = tuple(children)
        self._hash = None

    @property
    def size(self) -> int:
        """Number of nodes, ports included."""
        return len(postorder(self))

    @property
    def arity(self) -> int:
        """Number of ports: ``*`` nodes with no ``*`` above them."""
        ports, stack = 0, [self]
        while stack:
            node = stack.pop()
            if node.label == PORT:
                ports += 1
            else:
                stack.extend(node.children)
        return ports

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree) or hash(self) != hash(other):
            return False
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.label != b.label or len(a.children) != len(b.children):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        if self._hash is None:
            # Children first: a node stays on the stack until its children
            # are hashed, so a shared subtree is hashed once.
            stack = [self]
            while stack:
                node = stack[-1]
                if node._hash is None:
                    missing = [c for c in node.children if c._hash is None]
                    if missing:
                        stack.extend(missing)
                        continue
                    node._hash = hash((node.label,) + node.children)
                stack.pop()
        return self._hash

    def __repr__(self):
        return f"Tree[{format_tree(self)}]"


def postorder(tree: Tree) -> list:
    """All nodes, each after its children and siblings left to right, listed
    without recursion; a bottom-up fold over it finds each node's child
    values on top of a value stack."""
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


def compose(term: Tree, args: Iterable[Tree]) -> Tree:
    """Substitute `args[i]` for the i-th port, in left-to-right leaf order.

    The result's arity is the sum of the argument arities.  A port with
    children raises AlphabetError, as `RankedAlphabet.validate` does.
    """
    args = tuple(args)
    if term.arity != len(args):
        raise ArityError(f"term has {term.arity} ports, got {len(args)} arguments")
    it = iter(args)
    values = []
    for node in postorder(term):
        if node.label == PORT:
            if node.children:
                raise AlphabetError("port must be a leaf")
            values.append(next(it))
        elif not node.children:
            values.append(node)
        else:
            ar = len(node.children)
            values[-ar:] = [Tree(node.label, values[-ar:])]
    return values[0]


def comb(term: Tree, letters: Iterable[str]) -> Tree:
    """Fully left-nested composition of a binary term over arity-0 letters.

    ``comb(t, [x1..xn]) = t(t(...t(t(x1,x2),x3)...,x_{n-1}),xn)`` with n >= 2.
    """
    names = list(letters)
    if term.arity != 2:
        raise ArityError(f"comb needs a binary term, got arity {term.arity}")
    if len(names) < 2:
        raise ValueError("comb needs at least two letters")
    acc = compose(term, (Tree(names[0]), Tree(names[1])))
    for name in names[2:]:
        acc = compose(term, (acc, Tree(name)))
    return acc


def leaf_word(tree: Tree, keep=None) -> tuple:
    """Left-to-right leaf labels; with `keep`, only labels in that set."""
    return tuple(node.label for node in postorder(tree)
                 if not node.children and (keep is None or node.label in keep))


def enumerate_terms(alphabet: RankedAlphabet, arity: int, max_nodes: int) -> Iterator[Tree]:
    """All terms of the given arity with at most `max_nodes` nodes.

    Ports count as nodes.  The stream is duplicate-free, ordered by node
    count and, within one size, by s-expression text, so search logs are
    reproducible.
    """
    positive = [(name, ar) for name, ar in alphabet.items() if ar >= 1]
    memo: dict = {}

    def build(size: int, ports: int) -> list:
        key = (size, ports)
        if key in memo:
            return memo[key]
        out = []
        if size == 1:
            if ports == 1:
                out.append(Tree(PORT))
            elif ports == 0:
                out.extend(Tree(name) for name in alphabet.zero_arity())
        elif size >= 2 and 0 <= ports <= size:
            for name, ar in positive:
                for sizes in _sum_splits(size - 1, ar, minimum=1):
                    for parts in _sum_splits(ports, ar, minimum=0):
                        pools = [build(sizes[i], parts[i]) for i in range(ar)]
                        if any(not pool for pool in pools):
                            continue
                        for kids in itertools.product(*pools):
                            out.append(Tree(name, kids))
        memo[key] = out
        return out

    for size in range(1, max_nodes + 1):
        yield from sorted(build(size, arity), key=format_tree)


def _sum_splits(total: int, parts: int, minimum: int):
    """All `parts`-tuples of ints >= minimum summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for head in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _sum_splits(total - head, parts - 1, minimum):
            yield (head,) + rest


def format_tree(tree: Tree) -> str:
    """S-expression text: ``label`` for leaves, ``label(c1,...,cn)`` otherwise."""
    # The stack holds, last output first, punctuation and nodes still to
    # write; each child goes on after a comma, and the first comma becomes "(".
    parts = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        parts.append(item.label)
        if item.children:
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(",")
            stack[-1] = "("
    return "".join(parts)


# One token per match, after optional whitespace: a name, a port or any other
# single character.  Trailing whitespace is left unmatched.  A node starts
# with a name or a port.
_TOKEN = re.compile(rf"\s*({_NAME.pattern}|\*|\S)")
_NODE_START = frozenset(string.ascii_letters + string.digits + PORT)


def parse_tree(text: str) -> Tree:
    """Parse the s-expression format; raises ParseError with a position.

    One left-to-right pass over the tokens with an explicit stack of open
    nodes, so any depth parses, in two states: a node is wanted, or a node
    was just read.  A wanted name opens a node when ``(`` follows it and is
    otherwise a leaf; equal leaves of one parse are one shared object.  A
    port may carry children (``*(p)``), as the format has always allowed.
    """
    tokens = _TOKEN.findall(text)
    values = []  # finished children of the open nodes, left to right
    opened = []  # (label, index of its first child in `values`) per open node
    leaves = {}
    wanted = True
    i, end = 0, len(tokens)
    while i < end:
        tok = tokens[i]
        i += 1
        if wanted:
            if tok[0] not in _NODE_START:
                raise ParseError(f"unexpected character {tok!r}", _token_position(text, i - 1))
            if i < end and tokens[i] == "(":
                opened.append((tok, len(values)))
                i += 1
                continue
            leaf = leaves.get(tok)
            if leaf is None:
                leaf = leaves[tok] = Tree(tok)
            values.append(leaf)
            wanted = False
        elif not opened:
            raise ParseError("trailing input after tree", _token_position(text, i - 1))
        elif tok == ",":
            wanted = True
        elif tok == ")":
            label, first = opened.pop()
            values[first:] = [Tree(label, values[first:])]
        else:
            raise ParseError("expected ')'", _token_position(text, i - 1))
    if wanted or opened:
        raise ParseError("unexpected end of input" if wanted else "expected ')'", len(text))
    return values[0]


def _token_position(text: str, index: int) -> int:
    """Offset in `text` of the token `_TOKEN.findall` lists at `index`."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)
