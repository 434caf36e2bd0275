"""Command-line entry point: `treesep extract`, `treesep verify` and `treesep run`.

All three read the package's text formats and print JSON.  The exit code is
0 when the word automaton separates the two grammars (for `run`: when the
walker accepts the tree), 1 when it does not (or no separator was found),
and 2 when an input cannot be read or parsed, including an automaton file
that gives one transition key on two lines, a transition outside its
letters and states, or a header its format does not take, a grammar file
that gives `start:` twice or whose start symbol derives no word, and when a
grammar for `extract` uses a fresh letter (`a` or `c`) as a terminal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import TreesepError
from .grammar import parse_grammar
from .rotation import extract_separator
from .trees import parse_tree
from .walking import ACCEPT, format_path, parse_dtwa
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
    run = commands.add_parser("run", help="run a tree-walking automaton on one tree")
    run.add_argument("dtwa", type=Path, help="walking automaton file")
    run.add_argument("tree", type=Path, help="tree file, in s-expression form")
    run.add_argument("--trace", action="store_true",
                     help="list every configuration visited as [state, path, tag]")
    return parser


def _run(args) -> int:
    outcome = parse_dtwa(args.dtwa.read_text(encoding="utf-8-sig")).run(
        parse_tree(args.tree.read_text(encoding="utf-8-sig")), collect_trace=args.trace)
    trace = None
    if outcome.trace is not None:
        trace = [[state, format_path(path), tag] for state, path, tag in outcome.trace]
    print(json.dumps({"kind": outcome.kind, "steps": outcome.steps, "trace": trace}))
    return 0 if outcome.kind == ACCEPT else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        g = parse_grammar(args.g.read_text(encoding="utf-8-sig"))
        h = parse_grammar(args.h.read_text(encoding="utf-8-sig"))
        if args.command == "extract":
            report = extract_separator(parse_dtwa(args.dtwa.read_text(encoding="utf-8-sig")), g, h, args.bound)
            print(report.to_json())
            return 0 if report.verified else 1
        report = verify_separator(parse_dfa(args.dfa.read_text(encoding="utf-8-sig")), g, h)
    except (TreesepError, OSError, UnicodeDecodeError) as exc:
        print(f"treesep: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"verified": report.separates, "violations": report.violations()},
                     indent=2, sort_keys=True))
    return 0 if report.separates else 1


if __name__ == "__main__":
    sys.exit(main())
