"""Ranked alphabets, trees, and linear terms with ports.

A term is an ordinary tree that may contain the reserved leaf ``*`` (a port).
Ports are numbered 1..n in left-to-right leaf order and each port is a
substitution slot used exactly once, so composition never duplicates an
argument.  Terms are composed (`compose`), enumerated by size
(`enumerate_terms`), and written and read in one s-expression format
(`format_tree`, `parse_tree`, which reads the text between commas and scans
tokens only to report an error).  Walks over a tree are iterative, so no
depth raises RecursionError; `size`, `leaf_word` and `compose` read one
`postorder` list.  A node caches only its hash; a parsed root also holds its
post-order, so `postorder` and `validate` on it do not walk the tree again.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, NoReturn

from .errors import AlphabetError, ArityError, FormatError, ParseError

PORT = "*"

_NAME = re.compile(r"[A-Za-z0-9]+")  # letter, state and symbol names


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
            if type(ar) is not int or ar < 0:  # a bool is an int, but no arity
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
        each of them.  Nodes are checked in reverse post-order, root first,
        with one letter lookup each; only where it differs from the child
        count (always, for ``*``, never a letter) are the port and arity
        errors looked for, so the checks and their order are those of a
        port test and `arity` on every node."""
        letters = self._letters
        order = postorder(tree)
        for node in reversed(order):
            if letters.get(node.label) != len(node.children):
                if node.label != PORT:
                    raise AlphabetError(
                        f"letter {node.label!r} has arity {self.arity(node.label)}, "
                        f"node has {len(node.children)} children"
                    )
                if not ports:
                    raise AlphabetError("ports not allowed here")
                if node.children:
                    raise AlphabetError("port must be a leaf")
        return len(order)

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
        if type(children) is str:  # it would be read as one leaf per character
            raise FormatError(f"children must be a collection, not the string {children!r}")
        self.label = label
        self.children = children = tuple(children)
        for i, child in enumerate(children):
            if not isinstance(child, Tree):
                raise FormatError(f"child {i} is {child!r}, not a tree")
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
    values on top of a value stack.  The list is the caller's own: a parsed
    root's is a copy of the one it holds."""
    if type(tree) is _Parsed:
        return tree._order + [tree]
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
    """All `parts`-tuples of ints >= minimum summing to `total`; parts >= 1."""
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


class _Parsed(Tree):
    """A root from `parse_tree`; `_order` lists its other nodes, so it is no cycle."""

    __slots__ = ("_order",)


def parse_tree(text: str) -> Tree:
    """Parse the s-expression format; raises ParseError with a position.

    Each distinct piece of the text between commas is read once (`_piece`),
    and one pass over them builds the tree, with the open nodes' labels and
    first-child indices on two flat stacks, so any depth parses.  Equal leaves
    of one parse are one shared object, a port may carry children (``*(p)``),
    the root keeps its nodes' post-order, and `_parse_error` takes other text.
    """
    values = []  # finished children of the open nodes, left to right
    order = []  # every finished node, in post-order
    labels, firsts = [], []  # per open node: its label, the index of its first child in `values`
    known, leaves = {}, {}  # piece -> its `_piece` reading; checked label -> its leaf
    pieces = iter(text.split(","))
    new = object.__new__
    for piece in pieces:
        kind = known.get(piece)
        if kind is None:
            kind = known[piece] = _piece(piece, leaves) or _parse_error(text)
        opens, leaf, closes = kind
        for label in opens:
            labels.append(label)
            firsts.append(len(values))
        values.append(leaf)
        order.append(leaf)
        for _ in closes:
            first = firsts.pop() if firsts else _parse_error(text)
            node = new(Tree)  # its children are trees: no `__init__` check
            node.label, node.children, node._hash = labels.pop(), tuple(values[first:]), None
            del values[first:]
            values.append(node)
            order.append(node)
        if not firsts:
            break
    if firsts or next(pieces, None) is not None:  # a node left open, or a comma after the root
        _parse_error(text)
    top = order.pop()
    root = _Parsed(top.label, top.children)
    root._order = order
    return root


def _piece(piece: str, leaves: dict):
    """Text between commas as (labels it opens, its leaf, a range over its
    closes), or None unless it reads ``name(``* leaf ``)``*, with whitespace
    anywhere but inside a name; a new name is checked and its leaf put in `leaves`."""
    *opens, last = piece.split("(")
    name, *closes = last.split(")")
    names = [label.strip() for label in opens + [name]]
    for label in set(names).difference(leaves):
        if label != PORT and not _NAME.fullmatch(label):
            return None
        leaves[label] = Tree(label)
    if not any(rest.strip() for rest in closes):
        return names[:-1], leaves[names[-1]], range(len(closes))


# The error scan's tokens, each after optional whitespace: a name or port with
# the ``(`` after it, a name, a port or any other character.
_TOKEN = re.compile(rf"\s*([,)]|{_NAME.pattern}\s*\(|{_NAME.pattern}|\*\s*\(|\*|\S)")


def _parse_error(text: str) -> NoReturn:
    """Raise the ParseError of text `parse_tree` does not read, from one scan
    of its tokens that counts the open nodes and builds none."""
    depth, wanted = 0, True  # wanted: a node is due, not a ``,`` or ``)``
    for match in _TOKEN.finditer(text):
        tok, at = match.group(1), match.start(1)
        if wanted:
            if tok[0] != PORT and not _NAME.match(tok):  # a node starts with a name or a port
                raise ParseError(f"unexpected character {tok!r}", at)
            wanted = tok[-1] == "("  # a ``name(`` token opens a node
            depth += wanted
        elif not depth:
            raise ParseError("trailing input after tree", at)
        elif tok == ",":
            wanted = True
        elif tok == ")":
            depth -= 1
        else:
            raise ParseError("expected ')'", at)
    assert wanted or depth, "the pieces and the tokens disagree on " + repr(text)
    raise ParseError("unexpected end of input" if wanted else "expected ')'", len(text))
