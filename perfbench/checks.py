"""Known-answer checks that do not go through the code they check.

Separator witnesses are confirmed by brute force over every word up to
BRUTE_LEN letters, run on the automaton's transition table directly; tree
verdicts are compared with the source DFA on the generated word and with
the parity of p in it.  Each check returns a list of error strings, empty
when the output is right.
"""

from __future__ import annotations

from gen import LETTERS, dfa_run

BRUTE_LEN = 12
COMB_LEN = 10


def _is_palindrome(word) -> bool:
    return word == word[::-1]


def brute_violations(dfa, max_len: int = BRUTE_LEN):
    """Shortest, lexicographically least (palindrome rejected by `dfa`,
    non-palindrome accepted by `dfa`) up to `max_len` letters; None if none.

    Words of one length are visited in lexicographic order by extending the
    previous length's words, whose end states are kept alongside.
    """
    missed = overlap = None
    words = [()]
    ends = [dfa.initial]
    for _ in range(max_len):
        words = [w + (a,) for w in words for a in LETTERS]
        ends = [dfa.delta[(q, a)] for q in ends for a in LETTERS]
        for word, q in zip(words, ends):
            if len(word) < 2:
                continue
            accepted = q in dfa.accepting
            if missed is None and not accepted and _is_palindrome(word):
                missed = word
            if overlap is None and accepted and not _is_palindrome(word):
                overlap = word
        if missed is not None and overlap is not None:
            break
    return missed, overlap


def _check_witness(label, got, expected, dfa, want_accept, want_palindrome) -> list:
    if got is None:
        if expected is not None:
            return [f"{label}: none reported, but {''.join(expected)} is one"]
        return []
    got = tuple(got)
    errors = []
    if len(got) < 2 or _is_palindrome(got) != want_palindrome:
        errors.append(f"{label}: {''.join(got)} is in the wrong language")
    if dfa_run(dfa, got) != want_accept:
        errors.append(f"{label}: {''.join(got)} has the wrong verdict from K")
    if len(got) <= BRUTE_LEN and got != expected:
        errors.append(f"{label}: {''.join(got)} is not the shortest least one, "
                      f"{''.join(expected or ('none',))} is")
    if len(got) > BRUTE_LEN and expected is not None:
        errors.append(f"{label}: {''.join(got)} is longer than {''.join(expected)}")
    return errors


def check_separator(dfa, report) -> list:
    """A SeparatorReport for palindromes against non-palindromes on `dfa`."""
    missed, overlap = brute_violations(dfa)
    errors = _check_witness("violation_g", report.violation_g, missed, dfa, False, True)
    errors += _check_witness("violation_h", report.violation_h, overlap, dfa, True, False)
    want = report.violation_g is None and report.violation_h is None
    if report.separates != want:
        errors.append(f"separates={report.separates} disagrees with the violations")
    return errors


def check_threshold(m: int, report) -> list:
    """K accepts exactly the words of length >= m."""
    errors = []
    if report.violation_h != ("p",) * (m - 1) + ("q",):
        errors.append(f"threshold {m}: H-witness {report.violation_h} is not p^{m - 1}q")
    if report.violation_g != ("p", "p"):
        errors.append(f"threshold {m}: G-witness {report.violation_g} is not pp")
    return errors


def check_comb(source, comb) -> list:
    """The comb DFA accepts the same words as the source DFA, up to COMB_LEN."""
    words = [()]
    src = [source.initial]
    got = [comb.initial]
    for _ in range(COMB_LEN):
        words = [w + (a,) for w in words for a in LETTERS]
        src = [source.delta[(q, a)] for q in src for a in LETTERS]
        got = [comb.delta[(q, a)] for q in got for a in LETTERS]
        for word, q, r in zip(words, src, got):
            if (q in source.accepting) != (r in comb.accepting):
                return [f"comb DFA and K disagree on {''.join(word)}"]
    return []


def check_membership(k_dfa, word, run_kind, dbta_verdict, kop_verdict) -> list:
    """Verdicts of one tree; a None verdict is a layer that raised."""
    in_k = dfa_run(k_dfa, word)
    even_p = word.count("p") % 2 == 0
    errors = []
    if run_kind is not None and run_kind != ("accept" if in_k else "reject"):
        errors.append(f"Dtwa.run gave {run_kind}, K says {in_k}")
    if dbta_verdict is not None and dbta_verdict != in_k:
        errors.append(f"Dbta.accepts gave {dbta_verdict}, K says {in_k}")
    if kop_verdict is not None and kop_verdict != even_p:
        errors.append(f"kop_member gave {kop_verdict}, parity says {even_p}")
    return errors
