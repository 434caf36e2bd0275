"""One-pass tree evaluation against the code it replaced.

`Dtwa.run`, `Dbta.eval` and `parse_tree` each work in one iterative pass;
their earlier forms (`dict_run`, `recursive_eval`, `recursive_parse_tree`
in `oracles`) must give the same verdicts, step counts, traces, states,
trees and errors on every input the oracles can take.  `Dtwa.run`'s move
bound is checked at its edges, and tree hashes filled on first use against
their recursive definition.  Deep trees, which only the new code takes, are
checked end to end at the bottom.
"""

import gc
import itertools
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesep.bottomup import Dbta
from treesep.errors import AlphabetError, TreesepError
from treesep.grammar import parse_grammar
from treesep.obfuscation import kop_dbta, kop_member, kop_nta, obf_alphabet
from treesep.rotation import comb_dfa, is_associative
from treesep.trees import (
    PORT,
    RankedAlphabet,
    Tree,
    compose,
    enumerate_terms,
    format_tree,
    leaf_word,
    parse_tree,
    postorder,
)
from treesep.walking import ACCEPT, ESCAPE, LOOP, PARENT, REJECT, STAY, Dtwa, dfs_from_dfa, minimal_dbta

from fixtures import (
    ALPHABETS,
    GRAMMARS,
    even_p_dfa,
    leaf_parity_dbta,
    obf_sigma,
    palindrome_grammar,
    stay_loop_dtwa,
)
from oracles import (
    SEED,
    brute_trees,
    dict_run,
    eval_columns,
    nta_accepts,
    random_dbta,
    random_dtwa,
    random_nta,
    random_tree,
    recursive_eval,
    recursive_format_tree,
    recursive_hash,
    recursive_parse_tree,
    replace_at,
    stack_validate,
    step,
)


def outcome(call, *args):
    """A call's result, or its error as (type, message, position)."""
    try:
        return call(*args)
    except TreesepError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def seeded_trees(rng, alphabet, count, depth=5):
    return [random_tree(rng, alphabet, depth) for _ in range(count)]


def automata_over(alphabet):
    """Seeded automata over `alphabet` for `assert_parsed_like_built`: two
    bottom-up automata, two walkers and a grammar for `kop_member`."""
    rng = random.Random(SEED + 2)
    dbtas = (random_dbta(rng, alphabet, 3), random_sink_dbta(rng, alphabet, 2))
    walkers = (random_dtwa(rng, alphabet, n_states=3), dfs_from_dfa(even_p_dfa(), alphabet))
    return alphabet, dbtas, walkers, palindrome_grammar()


def assert_parsed_like_built(parsed, built, automata, collect_trace=True):
    """A tree `parse_tree` returned reads like the same tree built with
    `Tree(...)` everywhere the parsed root's own post-order list is used,
    errors included, and `postorder` hands out a list the caller owns.
    A traced walk holds one path per visited position, so deep trees are
    walked without `collect_trace`."""
    alphabet, dbtas, walkers, grammar = automata
    # A walk from a plain copy of the root finds the parsed nodes themselves,
    # so comparing lists with them is linear.  In a post-order, equal labels
    # and child counts at every place make every subtree equal, so the
    # parsed post-order equals the built one, also in linear time.
    walked = postorder(Tree(parsed.label, parsed.children))[:-1] + [parsed]
    mine = postorder(parsed)
    assert mine == walked and mine is not postorder(parsed)
    assert list(map(label_and_arity, mine)) == list(map(label_and_arity, postorder(built)))
    mine.reverse()
    mine.append(parsed)
    assert postorder(parsed) == walked
    assert (parsed.size, parsed.arity, leaf_word(parsed), format_tree(parsed)) == (
        built.size, built.arity, leaf_word(built), format_tree(built))
    for ports in (False, True):
        assert outcome(alphabet.validate, parsed, ports) == outcome(alphabet.validate, built, ports)
    for dbta in dbtas:
        assert outcome(dbta.eval, parsed) == outcome(dbta.eval, built)
    assert outcome(kop_member, grammar, parsed) == outcome(kop_member, grammar, built)
    for dtwa in walkers:
        got = outcome(dtwa.run, parsed, collect_trace)
        want = outcome(dtwa.run, built, collect_trace)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)


def label_and_arity(node):
    return node.label, len(node.children)


def random_sink_dbta(rng, alphabet, n_states):
    """Partial random table over r0.. with a declared sink that some entries
    also name; missing entries resolve to the sink."""
    states = [f"r{i}" for i in range(n_states)]
    transitions = {}
    for letter, ar in alphabet.items():
        table = transitions[letter] = {}
        for key in itertools.product(states, repeat=ar):
            if rng.random() < 0.75:
                table[key] = rng.choice(states + ["sink"])
    accepting = {q for q in states if rng.random() < 0.5}
    return Dbta(alphabet, states + ["sink"], accepting, transitions, sink="sink")


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestRunAgainstOracle:
    def test_random_walkers(self, alphabet):
        rng = random.Random(SEED)
        kinds = set()
        for _ in range(30):
            dtwa = random_dtwa(rng, alphabet, n_states=rng.randint(1, 4))
            for tree in seeded_trees(rng, alphabet, 25, depth=6):
                for collect in (False, True):
                    got = dtwa.run(tree, collect_trace=collect)
                    want = dict_run(dtwa, tree, collect_trace=collect)
                    assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)
                kinds.add(got.kind)
        # stays, loops and escapes all occur, not only verdicts
        assert kinds == {ACCEPT, REJECT, LOOP, ESCAPE}

    def test_fixture_walkers(self, alphabet):
        rng = random.Random(SEED)
        trees = seeded_trees(rng, alphabet, 40)
        for dtwa in (stay_loop_dtwa(alphabet), dfs_from_dfa(even_p_dfa(), alphabet)):
            for tree in trees:
                got = dtwa.run(tree, collect_trace=True)
                want = dict_run(dtwa, tree, collect_trace=True)
                assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)

    def test_errors(self, alphabet):
        dtwa = random_dtwa(random.Random(SEED), alphabet, n_states=2)
        for tree in (Tree("zz"), Tree("*"), Tree("p", [Tree("p")]),
                     Tree(alphabet.items()[0][0], [Tree("x")] * 5)):
            assert outcome(dtwa.run, tree) == outcome(dict_run, dtwa, tree)


def one_node_walker(n, last):
    """Walker over the one letter p/0 that stays from w0 through w{n-1} and
    then takes `last` in w{n-1}: a parent move or a stay back to w0."""
    states = [f"w{i}" for i in range(n)]
    delta = {("p", 0, q): (nxt, STAY) for q, nxt in zip(states, states[1:])}
    delta[("p", 0, states[-1])] = (states[0], STAY) if last == STAY else (states[-1], PARENT)
    return Dtwa(RankedAlphabet({"p": 0}), states, states[0], delta)


class TestMoveBound:
    """Without a trace, `Dtwa.run` walks at most N * n moves on N node
    positions and n states before it counts configurations; the runs here
    end or first repeat exactly at that bound, or anywhere around it."""

    @staticmethod
    def agrees(dtwa, tree):
        for collect in (False, True):
            got = dtwa.run(tree, collect_trace=collect)
            want = dict_run(dtwa, tree, collect_trace=collect)
            assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)
        return got

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_escape_on_the_last_move(self, n):
        outcome = self.agrees(one_node_walker(n, PARENT), Tree("p"))
        assert (outcome.kind, outcome.steps) == (ESCAPE, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_first_repeat_on_the_last_move(self, n):
        outcome = self.agrees(one_node_walker(n, STAY), Tree("p"))
        assert (outcome.kind, outcome.steps) == (LOOP, n)

    @pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
    def test_random_walkers_on_shared_and_fresh_trees(self, alphabet):
        rng = random.Random(SEED + 1)
        kinds = set()
        for _ in range(30):
            dtwa = random_dtwa(rng, alphabet, n_states=rng.randint(1, 5))
            for tree in seeded_trees(rng, alphabet, 10, depth=7):
                # a parsed tree shares its equal leaves, a built one does not
                kinds.add(self.agrees(dtwa, tree).kind)
                self.agrees(dtwa, parse_tree(format_tree(tree)))
        assert {LOOP, ESCAPE} <= kinds


class TestHashUnchanged:
    """`Tree.__hash__` fills on first use the value `Tree.__init__` used to
    compute, ``hash((label,) + children)``."""

    def test_parsed_and_built_trees(self):
        rng = random.Random(SEED)
        for alphabet in ALPHABETS.values():
            for tree in seeded_trees(rng, alphabet, 40, depth=6):
                parsed = parse_tree(format_tree(tree))
                assert hash(parsed) == recursive_hash(parsed) == recursive_hash(tree) == hash(tree)

    def test_composed_and_enumerated_terms(self):
        terms = list(enumerate_terms(obf_sigma(), 2, 5))
        assert terms
        args = (parse_tree("a(p,c)"), Tree("q"))
        for term in terms:
            assert hash(term) == recursive_hash(term)
            filled = compose(term, args)
            assert recursive_hash(filled) == hash(filled)

    def test_deep_comb(self):
        combs = []
        for last in ("p", "q", "p"):
            term = Tree("p")
            for _ in range(100_000):
                term = Tree("a", (term, Tree("c")))
            combs.append(Tree("a", (term, Tree(last))))
        assert hash(combs[0]) == hash(combs[2])
        assert combs[0] == combs[2] and combs[0] != combs[1]

    def test_threads_fill_one_tree(self):
        word = [random.Random(SEED).choice("pq") for _ in range(20_000)]
        want = (hash(left_comb(word)), 4 * len(word) - 3)
        tree = left_comb(word)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append((hash(tree), tree.size)))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
class TestEvalAgainstOracle:
    def test_total_random(self, alphabet):
        rng = random.Random(SEED)
        for _ in range(12):
            dbta = random_dbta(rng, alphabet, n_states=rng.randint(1, 4))
            for tree in seeded_trees(rng, alphabet, 30):
                assert dbta.eval(tree) == recursive_eval(dbta, tree)

    def test_with_sink(self, alphabet):
        rng = random.Random(SEED)
        automata = [random_sink_dbta(rng, alphabet, rng.randint(1, 3)) for _ in range(8)]
        automata += [random_nta(rng, alphabet, n_states=rng.randint(1, 3)).determinize()
                     for _ in range(8)]
        for dbta in automata:
            assert dbta.sink is not None
            for tree in seeded_trees(rng, alphabet, 30):
                assert dbta.eval(tree) == recursive_eval(dbta, tree)

    def test_errors(self, alphabet):
        """The first error an up-front `validate` finds wins over a missing
        transition met earlier in the post-order."""
        rng = random.Random(SEED)
        sinkless = Dbta(alphabet, ("q",), (), {alphabet.zero_arity()[0]: {(): "q"}})
        automata = [random_dbta(rng, alphabet, 2), random_sink_dbta(rng, alphabet, 2), sinkless]
        binary = [name for name, ar in alphabet.items() if ar >= 1]
        trees = seeded_trees(rng, alphabet, 10)
        bad = [Tree("zz"), Tree("*"), Tree("p", [Tree("q")]), Tree(binary[0], [])]
        for tree in trees + bad:
            for wrong in bad:
                kids = list(tree.children)
                if kids:
                    kids[-1] = wrong
                    trees.append(Tree(tree.label, kids))
        for dbta in automata:
            for tree in trees + bad:
                assert outcome(dbta.eval, tree) == outcome(recursive_eval, dbta, tree)


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS.keys())
def test_validate_against_oracle(alphabet):
    """`validate`'s one lookup per node gives the count, or the error type
    and message, of the port-first check it replaced, with and without
    ports admitted, on seeded trees and on each of them with one subtree
    replaced by a bad node."""
    rng = random.Random(SEED)
    leaf = alphabet.zero_arity()[0]
    inner = next(name for name, ar in alphabet.items() if ar >= 1)
    bad = [Tree("zz"), Tree(PORT), Tree(PORT, [Tree(leaf)]), Tree(inner, [Tree(leaf)] * 4),
           Tree(leaf, [Tree(leaf)])]
    trees = seeded_trees(rng, alphabet, 40)
    for tree in list(trees):
        for wrong in bad:
            path, node = [], tree
            while node.children and rng.random() < 0.8:
                path.append(rng.randrange(len(node.children)) + 1)
                node = node.children[path[-1] - 1]
            trees.append(replace_at(tree, path, wrong))
    automata = automata_over(alphabet)
    for tree in trees:
        for ports in (False, True):
            assert (outcome(alphabet.validate, tree, ports)
                    == outcome(stack_validate, alphabet, tree, ports)), (format_tree(tree), ports)
        assert_parsed_like_built(parse_tree(format_tree(tree)), tree, automata)


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_kop_dbta_eval(grammar):
    g = grammar()
    dbta = kop_dbta(g)
    rng = random.Random(SEED)
    for tree in seeded_trees(rng, dbta.alphabet, 60, depth=6):
        assert dbta.eval(tree) == recursive_eval(dbta, tree)


def test_kop_member_errors_unchanged():
    """`kop_member` no longer validates separately; its automaton's `eval`
    raises what `obf_alphabet(...).validate` raised."""
    g = palindrome_grammar()
    alphabet = obf_alphabet(g)
    for text in ("b", "*", "a(p)", "a(p,q,c)", "a(p,a(b,q))", "c(p)"):
        tree = parse_tree(text)
        with pytest.raises(AlphabetError) as err:
            alphabet.validate(tree)
        with pytest.raises(AlphabetError) as got:
            kop_member(g, tree)
        assert str(got.value) == str(err.value)


class TestParseAgainstOracle:
    FIXED = ["", "a(", "a(p,", "a(p q)", "a(p))", "a(p,q) junk", "$", "*(p)",
             " a ( p , q ) ", "*p", "p*", "a()", "a(,p)", "\ta(p,\nq)\r\n", "a(p,q", "a (",
             "a (p,q)", "a(p,q) ", "é", "aé",
             "a(p)(", "a((p)", "p q", "a (\n p )", "p", "*", "a(p,*(q))", "a(p,)",
             "a\t(p,q)", "* (p)", "a (\n", "a ( )", "a(p, a (q,c))",
             # a piece read before must not let a later piece open an unchecked label
             "a(a(p,q),q)(c))", "a(b(p,p),p)(q))", "a(a(p,q),q )(c))", "a(p,p)", "a(p,p(q))"]

    def test_fixed_cases(self):
        automata = automata_over(obf_sigma())
        for text in self.FIXED:
            got = outcome(parse_tree, text)
            assert got == outcome(recursive_parse_tree, text), text
            if isinstance(got, Tree):
                assert_parsed_like_built(got, recursive_parse_tree(text), automata)

    def test_formatted_random_trees(self):
        rng = random.Random(SEED)
        for alphabet in ALPHABETS.values():
            automata = automata_over(alphabet)
            for tree in seeded_trees(rng, alphabet, 100, depth=6):
                text = format_tree(tree)
                assert text == recursive_format_tree(tree)
                assert parse_tree(text) == recursive_parse_tree(text) == tree
                assert_parsed_like_built(parse_tree(text), tree, automata)

    def test_parsed_tree_is_no_cycle(self):
        """A parsed root's post-order list leaves the root out, so dropping
        the tree frees it by reference counting alone."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for text in ("p", "a(p,q)", "a(a(p,c),*)", "a(" * 50 + "p" + ",q)" * 50):
                tree = parse_tree(text)
                postorder(tree)
                obf_sigma().validate(tree, ports=True)
                del tree
                assert gc.collect() == 0, text
        finally:
            if enabled:
                gc.enable()

    def test_whitespace_agrees_with_the_oracle(self):
        """The reader strips with `str.strip`, the error scan skips `\\s` and
        the oracle `str.isspace`: they agree on every code point, and every
        whitespace character put into every gap of a text, so also inside
        names, gives the same tree or the same error."""
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() or re.match(r"\s", c)]
        assert all(c.isspace() and re.match(r"\s", c) for c in spaces)
        assert {" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"} <= set(spaces)
        parsed = set()
        for text in ("a(p,q)", "ab(c1,*(p2))", "a( a(p,c) ,q )", "a(p,a(q,c))", "*"):
            for i, space in itertools.product(range(len(text) + 1), spaces):
                spaced = text[:i] + space + text[i:]
                got = outcome(parse_tree, spaced)
                assert got == outcome(recursive_parse_tree, spaced), spaced
                parsed.add(isinstance(got, Tree))
        assert parsed == {True, False}  # a space inside a name is an error

    @pytest.mark.parametrize("shape", ["left", "right", "random"])
    def test_padded_bracketings_of_4096_leaves(self, shape):
        """Trees shaped like the benchmark's: 4,096 leaves bracketed as a
        comb or at random, each binary node a random two-port term over
        {a, c}.  Parsing their text gives the tree built, with no
        RecursionError at any depth, and equal leaves as one object."""
        rng = random.Random(SEED + len(shape))
        pads = list(enumerate_terms(RankedAlphabet({"a": 2, "c": 0}), 2, 5))
        items = [Tree(rng.choice("pq")) for _ in range(4096)]
        while len(items) > 1:
            i = {"left": 0, "right": len(items) - 2}.get(shape, rng.randrange(len(items) - 1))
            items[i:i + 2] = [compose(rng.choice(pads), items[i:i + 2])]
        built = items[0]
        text = format_tree(built)
        depth = max(itertools.accumulate((ch == "(") - (ch == ")") for ch in text))
        assert (depth > sys.getrecursionlimit()) == (shape != "random")
        parsed = parse_tree(text)
        assert_parsed_like_built(parsed, built, automata_over(obf_sigma()), collect_trace=False)
        leaves = [node for node in postorder(parsed) if not node.children]
        assert len({id(leaf) for leaf in leaves}) == len({leaf.label for leaf in leaves}) == 3

    def test_one_character_mutations(self):
        rng = random.Random(SEED)
        marks = "(),* pqa"
        errors = set()
        for alphabet in ALPHABETS.values():
            for tree in seeded_trees(rng, alphabet, 60, depth=4):
                text = format_tree(tree)
                for _ in range(20):
                    i = rng.randrange(len(text) + 1)
                    op = rng.randrange(3)
                    if op == 0:
                        mutated = text[:i] + rng.choice(marks) + text[i:]
                    elif op == 1:
                        mutated = text[:i] + text[i + 1:]
                    else:
                        mutated = text[:i] + rng.choice(marks) + text[i + 1:]
                    got = outcome(parse_tree, mutated)
                    assert got == outcome(recursive_parse_tree, mutated), mutated
                    if isinstance(got, tuple):
                        kind = got[1].split(" (at")[0]
                        errors.add("unexpected character" if kind.startswith("unexpected character")
                                   else kind)
        # every kind of parse error is among the mutations
        assert errors == {"unexpected end of input", "unexpected character", "expected ')'",
                          "trailing input after tree"}

    def test_comma_turned_into_an_open(self):
        """A comma made ``(``, with closes added at the end, joins a piece
        the reader has already seen, such as ``q)``, to the next as a label:
        it must be checked as a name, not taken from the pieces read."""
        rng = random.Random(SEED)
        for alphabet in ALPHABETS.values():
            for tree in seeded_trees(rng, alphabet, 60, depth=4):
                text = format_tree(tree)
                for i in (i for i, ch in enumerate(text) if ch == ","):
                    for closes in (")", "))"):
                        mutated = text[:i] + "(" + text[i + 1:] + closes
                        got = outcome(parse_tree, mutated)
                        assert got == outcome(recursive_parse_tree, mutated), mutated


# Words with an even number of p; every binary bracketing of such a word is a
# derivation, so membership of an obfuscated comb follows from its leaves.
EVEN_P_TEXT = """
start: E
E -> E E
E -> O O
E -> q
O -> E O
O -> O E
O -> p
"""


def left_comb(letters):
    """a(a(acc, c), x) at every step: a left comb over `letters` padded on
    the right by one `c` per binary node, built bottom-up without recursion."""
    acc = Tree(letters[0])
    for x in letters[1:]:
        acc = Tree("a", (Tree("a", (acc, Tree("c"))), Tree(x)))
    return acc


def comb_state(dbta, letters):
    """`recursive_eval`'s state on `left_comb(letters)`, its recursion
    unrolled along the comb's spine, so any length evaluates."""
    state, pad = step(dbta, letters[0], ()), step(dbta, "c", ())
    for x in letters[1:]:
        state = step(dbta, "a", (step(dbta, "a", (state, pad)), step(dbta, x, ())))
    return state


def test_equality_is_structural_under_equal_hashes():
    # hash(-1) == hash(-2), so these trees' hashes collide at every level
    left = Tree("a", (Tree("p"), Tree("a", (Tree("q"), Tree(-1)))))
    right = Tree("a", (Tree("p"), Tree("a", (Tree("q"), Tree(-2)))))
    assert hash(left) == hash(right)
    assert left != right and not left == right
    assert left == Tree("a", (Tree("p"), Tree("a", (Tree("q"), Tree(-1)))))


class TestDeepTrees:
    """A 10^4-leaf left comb has depth about 2 * 10^4, far past the
    interpreter's recursion limit."""

    LEAVES = 10_000

    def test_left_comb_end_to_end(self):
        rng = random.Random(SEED)
        word = [rng.choice("pq") for _ in range(self.LEAVES)]
        tree, twin = left_comb(word), left_comb(word)
        even = word.count("p") % 2 == 0
        text = "a(a(" * (self.LEAVES - 1) + word[0] + "".join(f",c),{x})" for x in word[1:])
        parsed = parse_tree(text)
        walker = dfs_from_dfa(even_p_dfa(), obf_sigma())
        assert walker.run(parsed).kind == (ACCEPT if even else REJECT)
        assert minimal_dbta(walker).accepts(parsed) == even
        assert kop_member(parse_grammar(EVEN_P_TEXT), parsed) == even
        assert format_tree(parsed) == text
        assert parsed == twin and tree == twin and tree is not twin
        assert parsed.size == 4 * self.LEAVES - 3 and parsed.arity == 0
        flipped = left_comb(word[:-1] + ["q" if word[-1] == "p" else "p"])
        assert parsed != flipped

    def test_port_comb(self):
        term = Tree("*")
        for _ in range(self.LEAVES):
            term = Tree("a", (term, Tree("*")))
        assert term.arity == self.LEAVES + 1
        assert parse_tree(format_tree(term)) == term

    def deep_port_term(self, right: Tree) -> Tree:
        """a(a(...a(*,c)...,c),right) with 3,000 binary nodes."""
        term = Tree("*")
        for _ in range(2_999):
            term = Tree("a", (term, Tree("c")))
        return Tree("a", (term, right))

    def test_deep_port_term(self):
        term = self.deep_port_term(Tree("c"))
        rng = random.Random(SEED)
        automata = [leaf_parity_dbta()] + [random_dbta(rng, obf_sigma()) for _ in range(4)]
        for arg in map(parse_tree, ("p", "a(p,q)", "a(a(q,c),p)")):
            filled = compose(term, (arg,))
            assert format_tree(filled) == format_tree(term).replace("*", format_tree(arg))
            for dbta in automata:
                assert eval_columns(dbta, term, [(dbta.eval(arg),)])[0] == dbta.eval(filled)

    def test_deep_binary_term(self):
        # is_associative and comb_dfa against Dbta.eval on composed trees
        term = self.deep_port_term(Tree("*"))
        rng = random.Random(SEED)
        fillers = sorted(brute_trees(obf_sigma(), 5), key=lambda x: (x.size, format_tree(x)))
        for dbta in [leaf_parity_dbta()] + [random_dbta(rng, obf_sigma()) for _ in range(4)]:
            amin = dbta.minimize()
            reps = {}
            for tree in fillers:
                reps.setdefault(amin.eval(tree), tree)
            assert len(reps) == len(amin.states)
            k = comb_dfa(amin, term, ("p", "q"))
            for q, rep in reps.items():
                for sigma in ("p", "q"):
                    assert k.delta[(q, sigma)] == amin.eval(compose(term, (rep, Tree(sigma))))
            expected = all(
                amin.eval(compose(term, (compose(term, (x, y)), z)))
                == amin.eval(compose(term, (x, compose(term, (y, z)))))
                for x, y, z in itertools.product(reps.values(), repeat=3)
            )
            assert is_associative(amin, term) == expected

    def test_nta_and_xml(self):
        tree = left_comb(["p"] * self.LEAVES)
        nta = kop_nta(parse_grammar(EVEN_P_TEXT))
        assert nta_accepts(nta, tree)  # 10^4 p: even

    def test_threads_fill_one_eval_table(self):
        """Eight threads share one Dbta whose integer table is not built yet."""
        rng = random.Random(SEED)
        word = [rng.choice("pq") for _ in range(20_000)]
        tree = left_comb(word)
        dbta = random_dbta(rng, obf_sigma(), n_states=4)
        assert comb_state(dbta, word[:50]) == recursive_eval(dbta, left_comb(word[:50]))
        want = comb_state(dbta, word)
        assert dbta._table_cache is None
        got = []
        start = threading.Barrier(8)

        def evaluate():
            start.wait(timeout=60)
            got.append(dbta.eval(tree))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8


def bottom_loop_dtwa() -> Dtwa:
    """Walks down first children to a leaf, then shuttles forever between
    that leaf's parent and its second child; rejects a one-leaf tree."""
    alphabet = obf_sigma()
    delta = {}
    for letter, ar in alphabet.items():
        for tag in range(alphabet.maxarity + 1):
            for state in ("down", "up", "side"):
                delta[(letter, tag, state)] = REJECT
            if ar:
                delta[(letter, tag, "down")] = ("down", 1)
                delta[(letter, tag, "up")] = ("side", 2)
            elif tag:
                delta[(letter, tag, "down")] = ("up", PARENT)
                delta[(letter, tag, "side")] = ("up", PARENT)
    return Dtwa(alphabet, ("down", "up", "side"), "down", delta)


class TestExactPassAtDepth:
    """Traced runs and looping runs take `Dtwa.run`'s configuration-counting
    pass; here that pass walks a 10^3-leaf left comb, of depth about
    2 * 10^3, against `dict_run`."""

    LEAVES = 1_000

    def comb(self):
        rng = random.Random(SEED)
        return left_comb([rng.choice("pq") for _ in range(self.LEAVES)])

    def test_traced_dfs_walk(self):
        tree = self.comb()
        walker = dfs_from_dfa(even_p_dfa(), obf_sigma())
        got = walker.run(tree, collect_trace=True)
        want = dict_run(walker, tree, collect_trace=True)
        assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)
        assert got.kind in (ACCEPT, REJECT) and len(got.trace) == got.steps + 1
        assert max(len(path) for _state, path, _tag in got.trace) == 2 * (self.LEAVES - 1)

    @pytest.mark.parametrize("collect", [False, True])
    def test_loop_at_the_bottom(self, collect):
        tree = self.comb()
        got = bottom_loop_dtwa().run(tree, collect_trace=collect)
        want = dict_run(bottom_loop_dtwa(), tree, collect_trace=collect)
        assert (got.kind, got.steps, got.trace) == (want.kind, want.steps, want.trace)
        # down to the leftmost leaf, up to its parent, to the sibling and back
        assert (got.kind, got.steps) == (LOOP, 2 * (self.LEAVES - 1) + 3)


trees_strategy = st.recursive(
    st.sampled_from(["p", "q", "c", "*"]).map(Tree),
    lambda kids: st.builds(Tree, st.sampled_from(["a", "f", "g"]),
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees_strategy)
def test_parse_format_round_trip(tree):
    assert parse_tree(format_tree(tree)) == tree
