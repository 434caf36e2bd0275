"""The four automaton text formats under random line edits.

Each edited file must either raise a TreesepError or parse to an automaton
whose text parses back to the same text: no edit may surface as a
Python-level error.
"""

import operator
import random

from treesep.bottomup import parse_dbta
from treesep.errors import TreesepError
from treesep.trees import RankedAlphabet
from treesep.walking import parse_dtwa
from treesep.words import parse_dfa

from fixtures import SIGMA
from oracles import SEED, nta_text, parse_nta, random_dbtas, random_dfa, random_dtwa, random_nta

TERNARY = RankedAlphabet({"f": 3, "g": 1, "p": 0, "q": 0})

# lines that fit some format somewhere, or none
JUNK = ["->", "x ->", "-> y", "zz", "a/1", "p/2", "r/x", "c/1", "f/3", "states:", "states: k0", "initial: k0",
        "initial:", "initial: a b", "accepting:", "sink: d0", "sink: nowhere", "alphabet:", "alphabet: p",
        "bogus: 1", "a(x) -> y", "p(k0) -> k0", "p k0 -> k1", "p(k0,k1) -> k0", "p(", "c() -> d0",
        "c() -> {d0}", "c() -> {}", "a[root] w0 -> accept", "a[1] w0 -> w0 child 3", "a[9] w0 -> w0 stay"]


def seed_texts(rng):
    """(parser, writer, text) for seeded word automata, walkers, NTAs and
    DBTAs; the NTA text format lives with the test oracles."""
    to_text = operator.methodcaller("to_text")
    seeds = []
    for _ in range(30):
        seeds.append((parse_dfa, to_text, random_dfa(rng, 5)))
        seeds.append((parse_dtwa, to_text, random_dtwa(rng, SIGMA, rng.randint(1, 3))))
        nta = random_nta(rng, rng.choice([SIGMA, TERNARY]), rng.randint(1, 3))
        seeds.append((parse_nta, nta_text, nta))
        seeds.append((parse_dbta, to_text, nta.determinize()))
    seeds += [(parse_dbta, to_text, dbta) for dbta in random_dbtas(SIGMA, 10)]
    return [(parse, write, write(automaton)) for parse, write, automaton in seeds]


def test_edited_files_raise_or_round_trip():
    rng = random.Random(SEED + 20)
    seeds = seed_texts(rng)
    pool = [line for _, _, text in seeds for line in text.splitlines()]
    parsed = 0
    for _ in range(1200):
        parse, write, text = rng.choice(seeds)
        lines = text.splitlines()
        for _ in range(rng.choice((1, 2))):
            i = rng.randrange(len(lines))
            edit = rng.choice(("delete", "duplicate", "replace", "replace"))
            if edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            else:
                lines[i] = rng.choice(JUNK if rng.random() < 0.6 else pool)
            lines = lines or [""]
        try:
            back = parse("\n".join(lines) + "\n")
        except TreesepError:
            continue
        assert write(parse(write(back))) == write(back)
        parsed += 1
    # enough edits leave a well-formed file for the round trip to be tested
    assert parsed >= 50
