"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force or by a second
route (direct recursion, step-bounded simulation, exhaustive enumeration) so
the tests never trust the code path they are checking.  The definitions the
tests check the pipeline against, and the helpers only the tests use, live
here too:

- `transformation` and `l_equivalent`: a term's full table of state
  transformations (arity at most `TUPLE_ARITY_CAP`), and interchangeability
  of two terms as equality of their tables;
- `tstar_members`: the closure of ``*`` under composition with a binary term;
- `comb_normalize`, `rotate_at`, `replace_at` and `subtree_at`: single
  re-associations, and left normalisation by them, raising `ShapeError` on
  a bad path or node;
- `behavior_of_leaf`, `behavior_compose`, `out_exit`, `OUT_ACCEPT`,
  `OUT_REJECT` and `OUT_LOOP`: walker behaviours as dicts from
  (tag, entry state) to a local outcome, composed by the package's walk;
- `is_valid_derivation`, `cyk_member`, and `generate_words` with
  `leaves_of`: the derivation invariants, CYK membership and the bounded
  language of a CNF grammar;
- `nta_eval_set` and `nta_accepts`: runs of a nondeterministic bottom-up
  automaton;
- `recursive_hash`: a tree's structural hash by its definition;
- `smallest_trees`.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from treesep.bottomup import Dbta
from treesep.errors import AlphabetError, ArityError, FormatError, ParseError, ResourceError, TreesepError
from treesep.grammar import CnfGrammar, cyk_table, parse_grammar
from treesep.obfuscation import FRESH_PAIR
from treesep.trees import (
    _NAME,
    PORT,
    RankedAlphabet,
    Tree,
    compose,
    enumerate_terms,
    format_tree,
    postorder,
)
from treesep.walking import (
    ACCEPT,
    ESCAPE,
    LOOP,
    PARENT,
    REJECT,
    ROOT_TAG,
    STAY,
    Dtwa,
    RunOutcome,
    _compose,
)
from treesep.words import Dfa

SEED = 20260811


def brute_trees(alphabet: RankedAlphabet, max_nodes: int, ports: int = 0) -> set:
    """All terms up to a size bound, generated by plain recursion over root
    letters: an order-free second route, independent of enumerate_terms."""
    out = set()

    def grow(size, nports):
        if size < 1:
            return set()
        found = set()
        if size == 1:
            if nports == 1:
                found.add(Tree(PORT))
            if nports == 0:
                for name, ar in alphabet.items():
                    if ar == 0:
                        found.add(Tree(name))
            return found
        for name, ar in alphabet.items():
            if ar == 0:
                continue
            for sizes in _splits(size - 1, ar, 1):
                for parts in _splits(nports, ar, 0):
                    pools = [grow(sizes[i], parts[i]) for i in range(ar)]
                    for kids in itertools.product(*pools):
                        found.add(Tree(name, kids))
        return found

    for size in range(1, max_nodes + 1):
        out |= grow(size, ports)
    return out


def _splits(total, parts, minimum):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total >= minimum else []
    out = []
    for head in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _splits(total - head, parts - 1, minimum):
            out.append((head,) + rest)
    return out


def leaves_left_to_right(tree: Tree) -> list:
    """Recursive leaf collection; independent of trees.leaf_word."""
    if not tree.children:
        return [tree.label]
    out = []
    for child in tree.children:
        out.extend(leaves_left_to_right(child))
    return out


def bounded_run(dtwa: Dtwa, tree: Tree, slack: int = 1):
    """Step-bounded walking simulation, no configuration bookkeeping.

    A deterministic run longer than |states| * |nodes| must repeat a
    configuration, so exceeding the bound is reported as a loop.
    """
    bound = len(dtwa.states) * tree.size + slack
    path = []
    node_stack = [tree]
    state = dtwa.initial
    for _ in range(bound + 1):
        node = node_stack[-1]
        tag = path[-1] if path else ROOT_TAG
        act = dtwa.delta[(node.label, tag, state)]
        if act == ACCEPT:
            return ACCEPT
        if act == REJECT:
            return REJECT
        state, move = act
        if move == PARENT:
            if not path:
                return ESCAPE
            path.pop()
            node_stack.pop()
        elif move != STAY:
            node_stack.append(node.children[move - 1])
            path.append(move)
    return LOOP


def run_inside_host(dtwa: Dtwa, subtree: Tree, tag: int, entry: str):
    """Direct simulation of a token entering `subtree` at a position with the
    given tag: stops the moment the token exits upward from the subtree root.

    Returns one of ("accept",), ("reject",), ("loop",), ("exit", state)."""
    bound = len(dtwa.states) * subtree.size + 1
    path = []
    node_stack = [subtree]
    state = entry
    for _ in range(bound + 1):
        node = node_stack[-1]
        local_tag = tag if not path else path[-1]
        act = dtwa.delta[(node.label, local_tag, state)]
        if act == ACCEPT:
            return ("accept",)
        if act == REJECT:
            return ("reject",)
        state, move = act
        if move == PARENT:
            if not path:
                return ("exit", state)
            path.pop()
            node_stack.pop()
        elif move != STAY:
            node_stack.append(node.children[move - 1])
            path.append(move)
    return ("loop",)


def random_dfa(rng: random.Random, max_states: int = 4, alphabet=("p", "q")) -> Dfa:
    n = rng.randint(1, max_states)
    states = [f"k{i}" for i in range(n)]
    delta = {(q, letter): rng.choice(states) for q in states for letter in alphabet}
    accepting = {q for q in states if rng.random() < 0.5}
    return Dfa(alphabet, states, "k0", accepting, delta)


def dfa_walk(dfa: Dfa, state, word):
    """State the table reaches from `state` on `word`."""
    for letter in word:
        state = dfa.delta[(state, letter)]
    return state


def words_up_to(alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def told_apart(dfa: Dfa, p, q, max_len: int) -> bool:
    """Does some word of at most `max_len` letters lead exactly one of the
    states p and q into an accepting state?"""
    return any((dfa_walk(dfa, p, w) in dfa.accepting) != (dfa_walk(dfa, q, w) in dfa.accepting)
               for w in words_up_to(dfa.alphabet, max_len))


def criterion_dfas(count: int = 20):
    """The fixed family of seeded random word automata shared by the
    acceptance criteria."""
    rng = random.Random(SEED)
    return [random_dfa(rng) for _ in range(count)]


def random_nta(rng: random.Random, alphabet: RankedAlphabet, n_states: int = 3):
    from treesep.bottomup import Nta

    states = [f"n{i}" for i in range(n_states)]
    transitions = {}
    for letter, ar in alphabet.items():
        table = {}
        for key in itertools.product(states, repeat=ar):
            values = {q for q in states if rng.random() < 0.4}
            if values:
                table[key] = frozenset(values)
        transitions[letter] = table
    accepting = {q for q in states if rng.random() < 0.5}
    return Nta(alphabet, states, accepting, transitions)


def random_dbta(rng: random.Random, alphabet: RankedAlphabet, n_states: int = 3) -> Dbta:
    states = [f"r{i}" for i in range(n_states)]
    transitions = {}
    for letter, ar in alphabet.items():
        transitions[letter] = {
            key: rng.choice(states) for key in itertools.product(states, repeat=ar)
        }
    accepting = {q for q in states if rng.random() < 0.5}
    return Dbta(alphabet, states, accepting, transitions)


def random_tree(rng: random.Random, alphabet: RankedAlphabet, depth: int) -> Tree:
    letters = [name for name, ar in alphabet.items() if ar > 0 and depth > 0]
    if not letters or rng.random() < 0.3:
        return Tree(rng.choice(alphabet.zero_arity()))
    letter = rng.choice(letters)
    return Tree(letter, [random_tree(rng, alphabet, depth - 1)
                         for _ in range(alphabet.arity(letter))])


def random_dbtas(alphabet: RankedAlphabet, count: int) -> list:
    """Total random automata and determinized random NTAs (partial, with a sink)."""
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        out.append(random_dbta(rng, alphabet, n_states=rng.randint(1, 4)))
        out.append(random_nta(rng, alphabet, n_states=rng.randint(1, 3)).determinize())
    return out


def smallest_trees(alphabet: RankedAlphabet, max_nodes: int):
    """All trees (no ports) up to the size bound, smallest first."""
    return enumerate_terms(alphabet, 0, max_nodes)


def kop_oracle(derivation: Tree, max_nodes: int, pair=FRESH_PAIR) -> set:
    """Direct recursive enumeration of the obfuscation of one derivation,
    restricted to trees with at most `max_nodes` nodes."""
    binary, pad = pair
    pair_alphabet = RankedAlphabet({binary: 2, pad: 0})

    def go(node: Tree, budget: int) -> set:
        if not node.children:
            return {node} if budget >= 1 else set()
        if budget < 3:
            return set()
        left, right = node.children
        lefts = go(left, budget - 2)
        rights = go(right, budget - 2)
        out = set()
        for shape in enumerate_terms(pair_alphabet, 2, budget):
            room = budget - (shape.size - 2)
            for s1 in lefts:
                if s1.size >= room:
                    continue
                for s2 in rights:
                    if s1.size + s2.size <= room:
                        out.add(compose(shape, (s1, s2)))
        return out

    return go(derivation, max_nodes)


def kop_language(grammar, max_nodes: int) -> set:
    """The full obfuscation language up to a node bound, via the recursive
    oracle: union over every derivation of every short-enough word.

    A member for a word of length n has at least 2n - 1 nodes, so words
    longer than (max_nodes + 1) // 2 cannot contribute."""
    from treesep.grammar import derivations

    out = set()
    max_word = (max_nodes + 1) // 2
    for word in sorted(generate_words(grammar, max_word)):
        for derivation in derivations(grammar, word):
            out |= kop_oracle(derivation, max_nodes)
    return out


def definitional_l_equivalent(dbta: Dbta, t: Tree, u: Tree,
                              context_nodes: int = 7, filler_nodes: int = 5) -> bool:
    """The quantifier-based reading of interchangeability, bounded.

    Quantifies unary contexts up to `context_nodes` nodes and filler trees up
    to `filler_nodes` nodes.  Filler tuples are deduplicated by the state
    their trees evaluate to, which preserves the answer exactly because
    membership of s(t(fillers)) factors through those states; the factoring
    identity is itself tested elsewhere (eval_columns versus compose).
    """
    if t.arity != u.arity:
        raise ValueError("arity mismatch")
    filler_states = sorted({dbta.eval(tree)
                            for tree in brute_trees(dbta.alphabet, filler_nodes)})
    contexts = list(enumerate_terms(dbta.alphabet, 1, context_nodes))
    verdict = {}
    for q in dbta.states:
        verdict[q] = tuple(
            dbta.eval_columns(ctx, [(q,)])[0] in dbta.accepting for ctx in contexts
        )
    for states in itertools.product(filler_states, repeat=t.arity):
        qt = dbta.eval_columns(t, [(q,) for q in states])[0]
        qu = dbta.eval_columns(u, [(q,) for q in states])[0]
        if verdict[qt] != verdict[qu]:
            return False
    return True


def definitional_l_equivalent_literal(dbta: Dbta, t: Tree, u: Tree,
                                      context_nodes: int, filler_nodes: int) -> bool:
    """Fully literal triple loop over contexts, fillers, and membership.

    Exponential; only for cross-validating the optimized oracle at tiny
    bounds."""
    fillers = sorted(brute_trees(dbta.alphabet, filler_nodes),
                     key=lambda x: (x.size, str(x)))
    contexts = list(enumerate_terms(dbta.alphabet, 1, context_nodes))
    for args in itertools.product(fillers, repeat=t.arity):
        for ctx in contexts:
            left = dbta.accepts(compose(ctx, (compose(t, args),)))
            right = dbta.accepts(compose(ctx, (compose(u, args),)))
            if left != right:
                return False
    return True


def round_robin_closure(alphabet: RankedAlphabet, step):
    """The plain closure loop the saturation engine must agree with: each
    round, each letter in alphabet order, every tuple over a snapshot of the
    states known so far, until a round adds nothing.  A tuple already in the
    table is not stepped again; `step` returning None means no transition.

    Returns (states in discovery order, {letter: {index tuple: index}})."""
    order, index = [], {}
    table = {letter: {} for letter, _ in alphabet.items()}
    grew = True
    while grew:
        grew = False
        for letter, ar in alphabet.items():
            for combo in itertools.product(range(len(order)), repeat=ar):
                if combo in table[letter]:
                    continue
                target = step(letter, tuple(order[i] for i in combo))
                if target is None:
                    continue
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
                    grew = True
                table[letter][combo] = index[target]
    return order, table


def _named_table(table, names):
    return {
        letter: {tuple(names[i] for i in key): names[v] for key, v in rows.items()}
        for letter, rows in table.items()
    }


def round_robin_reachable(dbta: Dbta) -> list:
    return round_robin_closure(dbta.alphabet, dbta.step)[0]


def round_robin_complement(dbta: Dbta) -> Dbta:
    reach = round_robin_reachable(dbta)
    table = {
        letter: {key: dbta.step(letter, key) for key in itertools.product(reach, repeat=ar)}
        for letter, ar in dbta.alphabet.items()
    }
    return Dbta(dbta.alphabet, reach, set(reach) - dbta.accepting, table)


def round_robin_product(left: Dbta, right: Dbta, op: str) -> Dbta:
    def step(letter, combo):
        return (left.step(letter, tuple(p[0] for p in combo)),
                right.step(letter, tuple(p[1] for p in combo)))

    pairs, table = round_robin_closure(left.alphabet, step)
    names = [f"{p}|{q}" for p, q in pairs]
    keep = {
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "andnot": lambda a, b: a and not b,
    }[op]
    accepting = {
        name for name, (p, q) in zip(names, pairs)
        if keep(p in left.accepting, q in right.accepting)
    }
    return Dbta(left.alphabet, names, accepting, _named_table(table, names))


def round_robin_determinize(nta) -> Dbta:
    def step(letter, subsets):
        target = set()
        for key, values in nta.transitions[letter].items():
            if all(key[i] in subsets[i] for i in range(len(key))):
                target |= values
        return frozenset(target) or None

    order, table = round_robin_closure(nta.alphabet, step)
    names = [f"d{i}" for i in range(len(order))]
    accepting = {name for name, subset in zip(names, order) if subset & nta.accepting}
    return Dbta(nta.alphabet, names + ["dempty"], accepting, _named_table(table, names),
                sink="dempty")


def round_robin_to_dbta(dtwa: Dtwa) -> Dbta:
    """Behaviors as `dict_behavior_compose` dicts, interned by their sorted
    item tuples."""
    def step(letter, children):
        behavior = dict_behavior_compose(dtwa, letter, [dict(c) for c in children])
        return tuple(sorted(behavior.items()))

    order, table = round_robin_closure(dtwa.alphabet, step)
    names = [f"b{i}" for i in range(len(order))]
    accepting = {
        name for name, key in zip(names, order)
        if dict(key)[(ROOT_TAG, dtwa.initial)] == OUT_ACCEPT
    }
    return Dbta(dtwa.alphabet, names, accepting, _named_table(table, names))


def read_slot_classes(dtwa: Dtwa):
    """(behaviours, read-slot classes) of the walker's reachable subtree
    behaviours, found by the round-robin closure over dict behaviours.  Two
    behaviours share a class when they agree on root acceptance and at every
    (tag, state) slot that some child move enters."""
    read = sorted({(move, q2) for act in dtwa.delta.values()
                   if act not in (ACCEPT, REJECT) for q2, move in [act] if move >= 1})

    def step(letter, children):
        behavior = dict_behavior_compose(dtwa, letter, [dict(c) for c in children])
        return tuple(sorted(behavior.items()))

    order = round_robin_closure(dtwa.alphabet, step)[0]
    classes = {(dict(b)[(ROOT_TAG, dtwa.initial)] == OUT_ACCEPT, tuple(dict(b)[slot] for slot in read))
               for b in order}
    return len(order), len(classes)


def random_dtwa(rng: random.Random, alphabet: RankedAlphabet, n_states: int = 3) -> Dtwa:
    """Total walker with uniformly drawn actions: accept, reject, and every
    legal move, so stays, loops and escapes all occur."""
    states = [f"w{i}" for i in range(n_states)]
    delta = {}
    for letter, ar in alphabet.items():
        moves = [PARENT, STAY] + list(range(1, ar + 1))
        for tag in range(alphabet.maxarity + 1):
            for q in states:
                kind = rng.randrange(len(moves) + 2)
                if kind == 0:
                    delta[(letter, tag, q)] = ACCEPT
                elif kind == 1:
                    delta[(letter, tag, q)] = REJECT
                else:
                    delta[(letter, tag, q)] = (rng.choice(states), moves[kind - 2])
    return Dtwa(alphabet, states, states[0], delta)


def dict_behavior_compose(dtwa: Dtwa, letter, child_behaviors) -> dict:
    """Behavior of a `letter` node over dict child behaviors, walking
    `Dtwa.delta` directly: (tag, entry state) -> local outcome."""
    out = {}
    for tag in dtwa.tags():
        for entry in dtwa.states:
            seen = set()
            q = entry
            while True:
                if q in seen:
                    result = OUT_LOOP
                    break
                seen.add(q)
                act = dtwa.delta[(letter, tag, q)]
                if act == ACCEPT:
                    result = OUT_ACCEPT
                    break
                if act == REJECT:
                    result = OUT_REJECT
                    break
                q2, move = act
                if move == PARENT:
                    result = out_exit(q2)
                    break
                if move == STAY:
                    q = q2
                    continue
                result = child_behaviors[move - 1][(move, q2)]
                if result[0] != "exit":
                    break
                q = result[1]
            out[(tag, entry)] = result
    return out


def moore_minimize(dbta: Dbta) -> Dbta:
    """Moore refinement that steps every key tuple over the reachable states
    in each round, with sibling states as the context key."""
    reach = round_robin_reachable(dbta)
    block = {q: (q in dbta.accepting) for q in reach}
    while True:
        signature = {}
        for letter, ar in dbta.alphabet.items():
            for key in itertools.product(reach, repeat=ar):
                target_block = block[dbta.step(letter, key)]
                for i, q in enumerate(key):
                    ctx = (letter, i, tuple(key[:i] + key[i + 1 :]))
                    signature.setdefault(q, {})[ctx] = target_block
        new_block = {}
        rename = {}
        for q in reach:
            sig = (block[q], tuple(sorted(signature.get(q, {}).items())))
            new_block[q] = rename.setdefault(sig, len(rename))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    members = {}
    for q in reach:
        members.setdefault(block[q], []).append(q)
    ordered = sorted(members.values(), key=lambda qs: sorted(qs))
    name_of = {}
    for i, qs in enumerate(ordered):
        for q in qs:
            name_of[q] = f"m{i}"
    reps = [qs[0] for qs in ordered]
    table = {}
    for letter, ar in dbta.alphabet.items():
        table[letter] = {}
        for key in itertools.product(reps, repeat=ar):
            table[letter][tuple(name_of[q] for q in key)] = name_of[dbta.step(letter, key)]
    accepting = {name_of[q] for q in reach if q in dbta.accepting}
    sink = name_of[dbta.sink] if dbta.sink in name_of else None
    if sink in accepting:
        sink = None
    return Dbta(dbta.alphabet, set(name_of.values()), accepting, table, sink=sink)


def round_robin_is_empty(dbta: Dbta):
    """Emptiness by two round-robin fixpoints over all known states: minimum
    sizes, then the text-least tree of minimum size for each state."""
    minsize = {}
    changed = True
    while changed:
        changed = False
        for letter, ar in dbta.alphabet.items():
            for key in itertools.product(list(minsize), repeat=ar) if ar else [()]:
                cand = 1 + sum(minsize[q] for q in key)
                target = dbta.step(letter, key)
                if cand < minsize.get(target, float("inf")):
                    minsize[target] = cand
                    changed = True
    live = [q for q in dbta.accepting if q in minsize]
    if not live:
        return True, None
    best = {}
    changed = True
    while changed:
        changed = False
        for letter, ar in dbta.alphabet.items():
            for key in itertools.product(list(best), repeat=ar) if ar else [()]:
                target = dbta.step(letter, key)
                if 1 + sum(minsize[q] for q in key) != minsize[target]:
                    continue
                cand = Tree(letter, tuple(best[q] for q in key))
                text = format_tree(cand)
                if target not in best or text < format_tree(best[target]):
                    best[target] = cand
                    changed = True
    witness = min((best[q] for q in live), key=lambda t: (t.size, format_tree(t)))
    return False, witness


def tree_walk_is_associative(amin: Dbta, term: Tree) -> bool:
    """Transformation-table equality of the two re-associations of `term`,
    each table filled by evaluating the nested term on every triple."""
    port = Tree(PORT)
    return l_equivalent(amin, compose(term, (term, port)), compose(term, (port, term)))


def dict_run(dtwa: Dtwa, tree: Tree, collect_trace: bool = False) -> RunOutcome:
    """`Dtwa.run` as it was before the compiled rows: one `delta` lookup per
    move, configurations keyed by (state name, position id)."""
    dtwa.alphabet.validate(tree)
    stack = [(tree, 0)]
    position_ids = {}
    path = []
    state = dtwa.initial
    steps = 0
    visited = {(state, 0)}
    trace = [(state, (), ROOT_TAG)] if collect_trace else None
    while True:
        node, pos = stack[-1]
        tag = path[-1] if path else ROOT_TAG
        act = dtwa.delta[(node.label, tag, state)]
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


def recursive_eval(dbta: Dbta, tree: Tree) -> str:
    """`Dbta.eval` as it was before the one-walk form: validate the whole
    tree, then recurse through `Dbta.step`."""
    dbta.alphabet.validate(tree)

    def go(node):
        return dbta.step(node.label, tuple(go(c) for c in node.children))

    return go(tree)


class _HashAs:
    """Stand-in whose hash is a given value, so a tuple of stand-ins hashes
    as the tuple of the trees they stand for, without `Tree.__hash__`."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def recursive_hash(tree: Tree) -> int:
    """A tree's hash by its definition, ``hash((label,) + children)``, with
    each child replaced by a stand-in for its recursively computed hash."""
    return hash((tree.label,) + tuple(_HashAs(recursive_hash(c)) for c in tree.children))


def recursive_format_tree(tree: Tree) -> str:
    """`format_tree` as it was before the iterative form."""
    if not tree.children:
        return tree.label
    return f"{tree.label}({','.join(recursive_format_tree(c) for c in tree.children)})"


class _RecursiveTreeParser:
    """The recursive-descent s-expression parser `parse_tree` replaced."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def token(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == PORT:
            self.pos += 1
            return PORT
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", self.pos)
        self.pos = m.end()
        return m.group()

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def node(self) -> Tree:
        name = self.token()
        if self.peek() != "(":
            return Tree(name)
        self.expect("(")
        kids = [self.node()]
        while self.peek() == ",":
            self.expect(",")
            kids.append(self.node())
        self.expect(")")
        return Tree(name, kids)


def recursive_parse_tree(text: str) -> Tree:
    parser = _RecursiveTreeParser(text)
    tree = parser.node()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError("trailing input after tree", parser.pos)
    return tree


def random_cnf_grammar(rng: random.Random, nonterminals: int = 3, terminals=("p", "q")):
    """Seeded random CNF grammar with start S, drawn again until
    normalisation keeps every terminal."""
    names = ["S"] + [f"N{i}" for i in range(1, nonterminals)]
    while True:
        rules = [f"{x} -> {rng.choice(terminals)}" for x in names if rng.random() < 0.6]
        rules += [f"{x} -> {rng.choice(names)} {rng.choice(names)}"
                  for x in names for _ in range(rng.randint(0, 2))]
        try:
            grammar = parse_grammar("start: S\n" + "\n".join(rules))
        except FormatError:
            continue
        if set(grammar.terminals) == set(terminals):
            return grammar


def _derivable_triples(grammar, dfa: Dfa):
    """Derivable triples (p, X, q): X derives some word driving the DFA p -> q."""
    if set(dfa.alphabet) != set(grammar.terminals):
        raise AlphabetError("grammar terminals and word-automaton alphabet differ")
    derivable = set()
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            derivable.add((p, x, dfa.delta[(p, sigma)]))
    changed = True
    while changed:
        changed = False
        for x, y, z in grammar.binary_rules:
            for (p, y2, r) in list(derivable):
                if y2 != y:
                    continue
                for (r2, z2, q) in list(derivable):
                    if r2 != r or z2 != z:
                        continue
                    if (p, x, q) not in derivable:
                        derivable.add((p, x, q))
                        changed = True
    return derivable


def three_pass_intersection_empty(grammar, dfa: Dfa, max_witness_len: int = 64):
    """`cfg_dfa_intersection_empty` as it was before the single fixpoint:
    derivable triples, then their minimal lengths, then a per-length table of
    lexicographically least words up to the goal length."""
    derivable = _derivable_triples(grammar, dfa)
    goals = {(dfa.initial, grammar.start, f) for f in dfa.accepting}
    hits = goals & derivable
    if not hits:
        return True, None

    minlen = {}
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            key = (p, x, dfa.delta[(p, sigma)])
            minlen[key] = 1
    changed = True
    while changed:
        changed = False
        for x, y, z in grammar.binary_rules:
            for (p, y2, r), ly in list(minlen.items()):
                if y2 != y:
                    continue
                for (r2, z2, q), lz in list(minlen.items()):
                    if r2 != r or z2 != z:
                        continue
                    cand = ly + lz
                    key = (p, x, q)
                    if cand < minlen.get(key, float("inf")):
                        minlen[key] = cand
                        changed = True
    target_len = min(minlen[t] for t in hits)
    if target_len > max_witness_len:
        return False, None

    # best[(triple, length)] = lexicographically least word of exactly that length
    best = {}
    for x, sigma in grammar.leaf_rules:
        for p in dfa.states:
            key = ((p, x, dfa.delta[(p, sigma)]), 1)
            word = (sigma,)
            if key not in best or word < best[key]:
                best[key] = word
    for length in range(2, target_len + 1):
        for x, y, z in grammar.binary_rules:
            for p in dfa.states:
                for r in dfa.states:
                    for q in dfa.states:
                        acc = None
                        for split in range(1, length):
                            left = best.get(((p, y, r), split))
                            right = best.get(((r, z, q), length - split))
                            if left is None or right is None:
                                continue
                            cand = left + right
                            if acc is None or cand < acc:
                                acc = cand
                        if acc is not None:
                            key = ((p, x, q), length)
                            if key not in best or acc < best[key]:
                                best[key] = acc
    witness = min(best[(t, target_len)] for t in hits if (t, target_len) in best)
    return False, witness


TUPLE_ARITY_CAP = 3  # ternary tables decide associativity; |Q|**3 is the budget


def transformation(amin: Dbta, term: Tree, max_arity: int = TUPLE_ARITY_CAP) -> dict:
    """Full table of the state transformation induced by a term.

    Keyed by tuples over the automaton's states; `amin` should be minimized
    and reachable so that every tuple is realized by actual subtrees.
    """
    n = term.arity
    if n > max_arity:
        raise ResourceError(f"transformation tables capped at arity {max_arity}, term has {n} ports")
    amin.alphabet.validate(term, ports=True)
    keys = list(itertools.product(amin.states, repeat=n))
    return dict(zip(keys, amin.eval_columns(term, list(zip(*keys)))))


def l_equivalent(amin: Dbta, t: Tree, u: Tree) -> bool:
    """Interchangeability of two equal-arity terms, decided by table equality."""
    if t.arity != u.arity:
        raise ArityError(f"terms have arities {t.arity} and {u.arity}")
    return transformation(amin, t) == transformation(amin, u)


def tstar_members(term: Tree, arity: int, budget: int):
    """Members of the closure of {*} under t-composition, with `arity` ports.

    Yields at most `budget` members.  All n-port members have equal node
    count, so the order is by s-expression text.
    """
    if term.arity != 2:
        raise ArityError(f"need a binary term, got arity {term.arity}")
    if arity < 1:
        raise ValueError("closure members have at least one port")
    memo = {1: [Tree(PORT)]}

    def members(n):
        if n not in memo:
            out = []
            for i in range(1, n):
                for left in members(i):
                    for right in members(n - i):
                        out.append(compose(term, (left, right)))
            memo[n] = out
        return memo[n]

    yield from sorted(members(arity), key=format_tree)[:budget]


def comb_normalize(tree: Tree, letter: str):
    """Left-normalize a tree built from one binary letter via single rotations.

    Returns (normal form, steps), each step a (path, "left") rotation whose
    pivot node and right child both carry `letter`.  On closure members of a
    pure binary term this reaches the left-comb form; every step preserves
    the leaf sequence.
    """
    steps = []
    current = tree

    def find(node, path):
        if node.label == letter and len(node.children) == 2:
            right = node.children[1]
            if right.label == letter and len(right.children) == 2:
                return path
        for i, child in enumerate(node.children, start=1):
            hit = find(child, path + (i,))
            if hit is not None:
                return hit
        return None

    while True:
        path = find(current, ())
        if path is None:
            return current, steps
        current = rotate_at(current, path, "left")
        steps.append((path, "left"))


class ShapeError(TreesepError):
    """A path is invalid or a node does not have the required local shape."""


def subtree_at(tree: Tree, path: Iterable[int]) -> Tree:
    """Node reached by following 1-based child indices from the root."""
    node = tree
    for i in path:
        if i < 1 or i > len(node.children):
            raise ShapeError(f"no child {i} at node {format_tree(node)!r}")
        node = node.children[i - 1]
    return node


def replace_at(tree: Tree, path, replacement: Tree) -> Tree:
    path = tuple(path)
    if not path:
        return replacement
    i = path[0]
    if i < 1 or i > len(tree.children):
        raise ShapeError(f"no child {i} at node {format_tree(tree)!r}")
    kids = list(tree.children)
    kids[i - 1] = replace_at(kids[i - 1], path[1:], replacement)
    return Tree(tree.label, kids)


def rotate_at(tree: Tree, path, direction: str) -> Tree:
    """Single re-association at `path`; the leaf sequence is unchanged.

    `direction="right"` rewrites a(a(x,y),z) into a(x,a(y,z)); `"left"` is the
    inverse.  The node and its designated child (left child for a right
    rotation, right child for a left one) must carry the same binary letter.
    """
    node = subtree_at(tree, tuple(path))
    if len(node.children) != 2:
        raise ShapeError(f"node {format_tree(node)!r} is not binary")
    if direction == "right":
        pivot, z = node.children
        if pivot.label != node.label or len(pivot.children) != 2:
            raise ShapeError("left child does not match the node's binary letter")
        x, y = pivot.children
        new = Tree(node.label, (x, Tree(node.label, (y, z))))
    elif direction == "left":
        x, pivot = node.children
        if pivot.label != node.label or len(pivot.children) != 2:
            raise ShapeError("right child does not match the node's binary letter")
        y, z = pivot.children
        new = Tree(node.label, (Tree(node.label, (x, y)), z))
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    return replace_at(tree, path, new)


# local outcomes of a subtree behavior
OUT_ACCEPT = ("accept",)
OUT_REJECT = ("reject",)
OUT_LOOP = ("loop",)


def out_exit(state) -> tuple:
    return ("exit", state)


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


def is_valid_derivation(grammar: CnfGrammar, tree: Tree) -> bool:
    """Does the tree satisfy the derivation invariants for this grammar?"""

    def fits(nonterminal, node) -> bool:
        if not node.children:
            return nonterminal in grammar.leaf_index.get(node.label, ())
        if node.label != nonterminal or len(node.children) != 2:
            return False
        left, right = node.children
        return any(
            fits(y, left) and fits(z, right)
            for y, z in grammar.binary_of.get(nonterminal, ())
        )

    return fits(grammar.start, tree)


def cyk_member(grammar: CnfGrammar, word) -> bool:
    word = tuple(word)
    return grammar.start in cyk_table(grammar, word).get((0, len(word)), set())


def generate_words(grammar: CnfGrammar, max_len: int) -> set:
    """All generated words of length 1..max_len, as tuples of terminals."""
    by_len = {x: {1: set(map(lambda s: (s,), sigmas))}
              for x, sigmas in leaves_of(grammar).items()}
    for x in grammar.nonterminals:
        by_len.setdefault(x, {})
    for length in range(2, max_len + 1):
        for x in grammar.nonterminals:
            bucket = set()
            for y, z in grammar.binary_of.get(x, ()):
                for split in range(1, length):
                    for left in by_len[y].get(split, ()):
                        for right in by_len[z].get(length - split, ()):
                            bucket.add(left + right)
            if bucket:
                by_len[x][length] = bucket
    out = set()
    for length, words in by_len.get(grammar.start, {}).items():
        if length <= max_len:
            out |= words
    return out


def leaves_of(grammar):
    """nonterminal -> sorted terminals it derives in one leaf step."""
    out = {}
    for x, sigma in grammar.leaf_rules:
        out.setdefault(x, set()).add(sigma)
    return {x: tuple(sorted(v)) for x, v in out.items()}


def nta_eval_set(nta, tree: Tree) -> frozenset:
    """States some run of `nta` reaches at the root."""
    nta.alphabet.validate(tree)
    sets = []
    for node in postorder(tree):
        cut = len(sets) - len(node.children)
        child_sets = sets[cut:]
        del sets[cut:]
        out = set()
        for key, values in nta.transitions[node.label].items():
            if all(q in child_set for q, child_set in zip(key, child_sets)):
                out |= values
        sets.append(frozenset(out))
    return sets[0]


def nta_accepts(nta, tree: Tree) -> bool:
    return bool(nta_eval_set(nta, tree) & nta.accepting)
