"""The shared layout of the line-oriented automaton text formats.

DFA, DBTA and DTWA files, and the NTA text that only the test helpers in
tests/oracles.py read, share one skeleton, read by `read`, written by `write`:

- an ``alphabet:`` section with one ``letter/arity`` (or bare ``letter``,
  arity 0) line per letter; each letter is listed once;
- one-line headers ``name: value``, each given once: ``states:`` (required)
  and ``accepting:`` list states, every other header (``initial:``,
  ``sink:``) names exactly one; each format names the headers it takes,
  and any other header is an error, so a misspelt one is not dropped;
- one ``lhs -> rhs`` line per transition key in all four formats; an NTA
  lists all targets of a key in its one ``{...}`` set.  A parser gives
  `read` only its reader of one such line and gets the checked table back.

Blank lines and ``#`` comments are ignored everywhere, grammar files too.
"""

from __future__ import annotations

import re

from .errors import FormatError
from .trees import _NAME, RankedAlphabet

_HEADER = re.compile(r"([A-Za-z_][A-Za-z0-9_-]*)\s*:\s*(.*)")
_LISTS = ("states", "accepting")


def logical_lines(text: str):
    """Yield (lineno, stripped-line) with comments and blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read(text: str, where: str, takes, entry):
    """Read an automaton file into (alphabet, states, headers, table).

    `takes` names the headers the format allows besides ``alphabet:`` and
    ``states:``.  `headers` maps ``accepting`` to its list of states and
    each other header but ``states:`` to its one token.  Alphabet entries
    are the lines between ``alphabet:`` and the next header or transition.
    `entry(lineno, lhs, rhs)` reads one transition line, both sides
    stripped, into a (key, value) pair of `table`.

    Faults are reported in this order: the first bad line of the skeleton
    (alphabet entries, headers, any line but ``lhs -> rhs`` with both
    sides) in file order; a missing alphabet section or ``states:``; a bad
    alphabet; a missing ``initial:`` where the format takes it; the first
    transition line `entry` rejects; and only then a key given on two
    lines.  What the parser checks of the result comes after all of these.
    """
    letters, headers, lines, in_alphabet = None, {}, [], False
    for lineno, line in logical_lines(text):
        lhs, arrow, rhs = line.partition("->")
        m = None if arrow else _HEADER.fullmatch(line)
        in_alphabet = in_alphabet and not (arrow or m)  # both end the alphabet section
        if arrow:
            if not lhs.strip() or not rhs.strip():
                raise FormatError(f"line {lineno}: expected a transition with '->'")
            lines.append((lineno, lhs.strip(), rhs.strip()))
        elif m:
            name, value = m.group(1), m.group(2).split()
            if name not in ("alphabet", "states", *takes):
                raise FormatError(f"line {lineno}: unknown header {name!r}")
            if name in headers:
                raise FormatError(f"line {lineno}: duplicate header {name!r}")
            if name == "states" and not value:
                raise FormatError(f"line {lineno}: 'states' lists no state")
            if name == "alphabet":
                if value:
                    raise FormatError(f"line {lineno}: alphabet entries go on their own lines")
                letters, in_alphabet = {}, True
            elif name not in _LISTS:
                if len(value) != 1:
                    raise FormatError(f"line {lineno}: {name!r} names one state, got {m.group(2)!r}")
                value = value[0]
            headers[name] = value
        elif in_alphabet:
            name, slash, ar = (part.strip() for part in line.partition("/"))
            if slash and not ar.isdecimal():
                raise FormatError(f"line {lineno}: bad arity in {line!r}")
            if name in letters:
                raise FormatError(f"line {lineno}: letter {name!r} listed twice")
            letters[name] = int(ar) if slash else 0
        else:
            raise FormatError(f"line {lineno}: cannot interpret {line!r}")
    if letters is None:
        raise FormatError(f"{where}: missing alphabet section")
    if "states" not in headers:
        raise FormatError(f"{where}: missing 'states' header")
    alphabet = RankedAlphabet(letters)
    if "initial" in takes and "initial" not in headers:
        raise FormatError(f"{where}: missing 'initial' header")
    states = headers.pop("states")
    del headers["alphabet"]
    table, first, repeat = {}, {}, None  # the first repeated key is raised after every entry
    for lineno, lhs, rhs in lines:
        key, value = entry(lineno, lhs, rhs)
        if first.setdefault(key, lineno) != lineno and repeat is None:
            repeat = f"line {lineno}: second transition for {lhs}, first on line {first[key]}"
        table[key] = value
    if repeat:
        raise FormatError(repeat)
    return alphabet, states, headers, table


def write(letters, headers: dict, lines) -> str:
    """Automaton text from alphabet entries, headers and transition lines.

    A letter is a bare name (arity 0, word automata) or a (name, arity)
    pair; a header value is one token, a sequence of them, or None to leave
    the header out.
    """
    out = ["alphabet:"]
    out += [letter if isinstance(letter, str) else f"{letter[0]}/{letter[1]}" for letter in letters]
    out += [f"{name}: {value if isinstance(value, str) else ' '.join(value)}"
            for name, value in headers.items() if value is not None]
    out += lines
    return "\n".join(out) + "\n"


def collection(name: str, value) -> list:
    """The members of `value`, a constructor's collection argument `name`;
    a str, which would be read as the set of its characters, and a member
    that is not a str are FormatErrors."""
    if isinstance(value, str):
        raise FormatError(f"{name} must be a collection, not the string {value!r}")
    members = list(value)
    bad = [member for member in members if not isinstance(member, str)]
    if bad:
        raise FormatError(f"{name} member {bad[0]!r} is not a string")
    return members


def parse_application(lineno: int, text: str):
    """Parse ``letter(x1,...,xn)`` or bare ``letter``; returns (letter, tuple)."""
    text = text.strip()
    m = re.fullmatch(rf"({_NAME.pattern})\s*(?:\(([^)]*)\))?", text)
    if not m:
        raise FormatError(f"line {lineno}: bad application {text!r}")
    letter, inner = m.groups()
    if inner is None or not inner.strip():
        return letter, ()
    return letter, tuple(part.strip() for part in inner.split(","))
