"""Quick tests of the benchmark's own generators, at tiny sizes.

    python3 perfbench/selftest.py

Exits 0 when every check passes and 1 otherwise.  The checks use brute
force or counting on the generated text, not the generators' own logic.
"""

from __future__ import annotations

import itertools
import math
import re
import sys

import run  # noqa: F401  (puts the checkout's src/ on the path)
import gen
from treesep.grammar import derivations, parse_grammar
from treesep.obfuscation import kop_member
from treesep.trees import leaf_word, parse_tree

FAILURES = []


def expect(ok, message):
    if not ok:
        FAILURES.append(message)


def words_upto(n):
    for k in range(0, n + 1):
        yield from itertools.product(gen.LETTERS, repeat=k)


def test_drawn_dfas_are_minimal():
    for seed, monoid in itertools.product(range(6), (24, 13, 11)):
        k = gen.minimal_k(gen.rng_for("selftest", seed), monoid)
        reached = {_walk(k, k.initial, w) for w in words_upto(len(k.states))}
        expect(reached == set(k.states), f"seed {seed}: unreachable states in {k.to_text()}")
        for q, r in itertools.combinations(k.states, 2):
            apart = any((_walk(k, q, w) in k.accepting) != (_walk(k, r, w) in k.accepting)
                        for w in words_upto(len(k.states)))
            expect(apart, f"seed {seed}: states {q} and {r} are equivalent")
        maps = {tuple(_walk(k, q, w) for q in k.states) for w in words_upto(8) if w}
        expect(len(maps) == monoid, f"seed {seed}: monoid has {len(maps)} elements, not {monoid}")
    for n in (5, 12):
        d = gen.reachable_random_dfa(gen.rng_for("selftest", n), n)
        reached = {_walk(d, d.initial, w) for w in words_upto(n)}
        expect(reached == set(d.states), f"random {n}-state DFA has unreachable states")


def _walk(k, q, word):
    for letter in word:
        q = k.delta[(q, letter)]
    return q


def test_threshold_shortest_word():
    for m in range(1, 8):
        d = gen.threshold_dfa(m)
        shortest = min((len(w) for w in words_upto(m + 2) if d.run(w)), default=None)
        expect(shortest == m, f"threshold {m}: shortest accepted word has {shortest} letters")
        expect(all(d.run(w) == (len(w) >= m) for w in words_upto(m + 2)),
               f"threshold {m}: accepts a word of the wrong length")


def test_tree_text():
    rng = gen.rng_for("selftest", 0)
    for shape in gen.SHAPES:
        for n in (1, 2, 3, 7, 20):
            word = tuple(rng.choice(gen.LETTERS) for _ in range(n))
            item = gen.make_tree(rng, word, shape)
            labels = re.findall(r"[A-Za-z0-9]+", item.text)
            expect(tuple(x for x in labels if x in ("p", "q")) == word,
                   f"{shape} {n}: text {item.text} has the wrong leaf word")
            expect(len(labels) == item.nodes, f"{shape} {n}: text has {len(labels)} nodes, "
                                              f"generator says {item.nodes}")
            parsed = parse_tree(item.text)
            expect(parsed == item.tree, f"{shape} {n}: built tree differs from its text")
            expect(leaf_word(parsed, keep={"p", "q"}) == word, f"{shape} {n}: parsed leaf word")
    lengths = gen.log_uniform_lengths(20)
    expect(lengths[0] >= gen.MIN_LEAVES and lengths[-1] <= gen.MAX_LEAVES, f"lengths {lengths}")
    steps = [b / a for a, b in zip(lengths, lengths[1:])]
    expect(max(steps) / min(steps) < 1.1, f"lengths are not log-spaced: {lengths}")


def test_parity_grammar_is_shape_free():
    even = parse_grammar(run.PARITY_TEXT)
    odd = parse_grammar(run.PARITY_TEXT.replace("start: E", "start: O"))
    for n in range(1, 7):
        catalan = math.comb(2 * (n - 1), n - 1) // n
        for word in itertools.product(gen.LETTERS, repeat=n):
            grammar = even if word.count("p") % 2 == 0 else odd
            count = sum(1 for _ in derivations(grammar, word))
            expect(count == catalan, f"{''.join(word)}: {count} derivations, {catalan} bracketings")
    rng = gen.rng_for("selftest", 1)
    for shape in gen.SHAPES:
        for n in (1, 2, 5, 9, 16):
            for _ in range(4):
                word = tuple(rng.choice(gen.LETTERS) for _ in range(n))
                item = gen.make_tree(rng, word, shape)
                member = kop_member(even, item.tree)
                expect(member == (word.count("p") % 2 == 0),
                       f"{shape} {''.join(word)}: kop_member says {member}")


def main():
    for test in (test_drawn_dfas_are_minimal, test_threshold_shortest_word,
                 test_tree_text, test_parity_grammar_is_shape_free):
        before = len(FAILURES)
        test()
        print(f"{test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for message in FAILURES:
        print(f"  {message}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
