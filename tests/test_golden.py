"""Output bytes against digests recorded before a change.

`golden.json` maps each case to the sha256 of the texts the case makes,
joined by NUL: extraction reports, minimal automata and their fingerprints
of the criterion walkers, minimal automata of the walkers of the seeded word
automata in `test_walking.py`, `to_dbta` texts and their quotients of the
criterion and of seeded walkers, and the subset constructions of seeded and
obfuscation NTAs with their quotients.  The `/is_empty` cases hold the text
of `is_empty`'s least witness, or "empty", on the criterion and seeded
walkers' `to_dbta`, the seeded NTAs' and the obfuscation NTAs' subset
constructions.  The `/text` cases hold `oracles.nta_text` of the seeded
NTAs and of the fixture grammars' obfuscation NTAs, recorded while it was
`Nta.to_text`.  A change that keeps output bytes keeps every digest.
After an intended output change, rewrite the file and say why:

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from treesep.obfuscation import kop_nta
from treesep.rotation import extract_separator
from treesep.trees import format_tree
from treesep.walking import dfs_from_dfa, minimal_dbta, to_dbta

from fixtures import ALPHABETS, GRAMMARS, SIGMA, nonpalindrome_grammar, palindrome_grammar
from oracles import SEED, criterion_dfas, nta_text, random_cnf_grammar, random_dfa, random_dtwa, random_nta

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
BOUND = 13
PER_ALPHABET = 100
# A three-state ternary walker can have hundreds of behaviours
MAX_WALKER_STATES = {"obf": 3, "ternary": 2}
RANDOM_GRAMMARS = 20
# to_dbta texts with more lines are left out, #18's 755,164 among them;
# their quotients stay in
TEXT_LINES = 50_000


def walker_texts(walker):
    built = to_dbta(walker)
    short = len(built.states) ** walker.alphabet.maxarity <= TEXT_LINES
    return [built.to_text() if short else "", built.minimize().to_text()]


def minimal_texts(walker):
    amin = minimal_dbta(walker)
    return [amin.to_text(), amin.fingerprint()]


def witness_text(dbta):
    empty, tree = dbta.is_empty()
    return ["empty" if empty else format_tree(tree)]


def cases():
    """Each case's id and a call making its texts, in a fixed order."""
    g, h = palindrome_grammar(), nonpalindrome_grammar()
    for i, dfa in enumerate(criterion_dfas()):
        walker = dfs_from_dfa(dfa, SIGMA)
        yield f"criterion/{i:02d}/extract", lambda walker=walker: [
            extract_separator(walker, g, h, BOUND).to_json(), extract_separator(walker, h, g, BOUND).to_json()]
        yield f"criterion/{i:02d}/automata", lambda walker=walker: walker_texts(walker) + minimal_texts(walker)
        yield f"criterion/{i:02d}/is_empty", lambda walker=walker: witness_text(to_dbta(walker))
    rng = random.Random(SEED + 11)  # the walkers of TestMinimalDbta.test_random_word_automata
    for j in range(40):
        walker = dfs_from_dfa(random_dfa(rng, max_states=3), SIGMA)
        yield f"word/{j:02d}", lambda walker=walker: minimal_texts(walker)
    for offset, (name, alphabet) in enumerate(ALPHABETS.items()):
        rng = random.Random(SEED + 40 + offset)
        for j in range(PER_ALPHABET):
            walker = random_dtwa(rng, alphabet, n_states=rng.randint(1, MAX_WALKER_STATES[name]))
            yield f"walker/{name}/{j:03d}", lambda walker=walker: walker_texts(walker)
            yield f"walker/{name}/{j:03d}/is_empty", lambda walker=walker: witness_text(to_dbta(walker))
        for j in range(PER_ALPHABET):
            nta = random_nta(rng, alphabet, n_states=rng.randint(1, 3))
            yield f"nta/{name}/{j:03d}", lambda nta=nta: [nta.determinize().to_text(),
                                                         nta.determinize().minimize().to_text()]
            yield f"nta/{name}/{j:03d}/is_empty", lambda nta=nta: witness_text(nta.determinize())
            yield f"nta/{name}/{j:03d}/text", lambda nta=nta: [nta_text(nta)]
    grammars = [grammar() for grammar in GRAMMARS]
    for j, grammar in enumerate(grammars):
        yield f"kop/{j:02d}/text", lambda grammar=grammar: [nta_text(kop_nta(grammar))]
    rng = random.Random(SEED + 42)
    grammars += [random_cnf_grammar(rng, nonterminals=rng.randint(2, 4)) for _ in range(RANDOM_GRAMMARS)]
    for j, grammar in enumerate(grammars):
        yield f"kop/{j:02d}", lambda grammar=grammar: [kop_nta(grammar).determinize().minimize().to_text()]
        yield f"kop/{j:02d}/is_empty", lambda grammar=grammar: witness_text(kop_nta(grammar).determinize())


def digests() -> dict:
    return {case: hashlib.sha256("\0".join(make()).encode()).hexdigest() for case, make in cases()}


def test_output_bytes_match_the_recorded_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"{len(changed)} cases changed output, first {changed[:10]}"


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
