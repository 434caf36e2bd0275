"""Command-line entry point: `treesep extract` and `treesep verify`.

Both read the package's text formats and print JSON.  The exit code is 0
when the word automaton separates the two grammars, 1 when it does not (or
no separator was found), and 2 when an input cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import TreesepError
from .grammar import parse_grammar
from .rotation import _word_or_none, extract_separator
from .walking import parse_dtwa
from .words import parse_dfa, verify_separator


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treesep", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    extract = commands.add_parser(
        "extract", help="extract a word separator from a tree-walking separator")
    extract.add_argument("dtwa", type=Path, help="walking automaton file")
    extract.add_argument("g", type=Path, help="grammar the separator must cover")
    extract.add_argument("h", type=Path, help="grammar the separator must avoid")
    extract.add_argument("--bound", type=int, default=9,
                         help="largest rotation term tried, in nodes (default 9)")
    verify = commands.add_parser("verify", help="check a word automaton as a separator")
    verify.add_argument("dfa", type=Path, help="word automaton file")
    verify.add_argument("g", type=Path, help="grammar the automaton must cover")
    verify.add_argument("h", type=Path, help="grammar the automaton must avoid")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        g = parse_grammar(args.g.read_text())
        h = parse_grammar(args.h.read_text())
        if args.command == "extract":
            report = extract_separator(parse_dtwa(args.dtwa.read_text()), g, h, args.bound)
            print(report.to_json())
            return 0 if report.verified else 1
        report = verify_separator(parse_dfa(args.dfa.read_text()), g, h)
    except (TreesepError, OSError) as exc:
        print(f"treesep: {exc}", file=sys.stderr)
        return 2
    violations = {
        "missed_word": _word_or_none(report.violation_g),
        "overlap_word": _word_or_none(report.violation_h),
    }
    print(json.dumps({"verified": report.separates, "violations": violations},
                     indent=2, sort_keys=True))
    return 0 if report.separates else 1


if __name__ == "__main__":
    sys.exit(main())
