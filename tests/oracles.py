"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force or by a second
route (direct recursion, step-bounded simulation, exhaustive enumeration) so
the tests never trust the code path they are checking.  The few helpers
only the tests use (`smallest_trees`) live here too.
"""

from __future__ import annotations

import itertools
import random

from treesep.bottomup import Dbta
from treesep.obfuscation import FRESH_PAIR
from treesep.rotation import l_equivalent
from treesep.trees import PORT, RankedAlphabet, Tree, compose, enumerate_terms, format_tree
from treesep.walking import (
    ACCEPT,
    ESCAPE,
    LOOP,
    OUT_ACCEPT,
    OUT_LOOP,
    OUT_REJECT,
    PARENT,
    REJECT,
    ROOT_TAG,
    STAY,
    Dtwa,
    out_exit,
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
        if node.is_leaf():
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
    from treesep.grammar import derivations, generate_words

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
    identity is itself tested elsewhere (eval_term versus compose).
    """
    if t.arity != u.arity:
        raise ValueError("arity mismatch")
    filler_states = sorted({dbta.eval(tree)
                            for tree in brute_trees(dbta.alphabet, filler_nodes)})
    contexts = list(enumerate_terms(dbta.alphabet, 1, context_nodes))
    verdict = {}
    for q in dbta.states:
        verdict[q] = tuple(
            dbta.eval_term(ctx, (q,)) in dbta.accepting for ctx in contexts
        )
    for states in itertools.product(filler_states, repeat=t.arity):
        qt = dbta.eval_term(t, states)
        qu = dbta.eval_term(u, states)
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
    `Dtwa.action` directly: (tag, entry state) -> local outcome."""
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
                act = dtwa.action(letter, tag, q)
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
    reach = dbta.reachable()
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
    each table filled by `eval_term` walks of the nested term."""
    port = Tree(PORT)
    return l_equivalent(amin, compose(term, (term, port)), compose(term, (port, term)))
