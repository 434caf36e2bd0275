import ast
import importlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treesep
from treesep.cli import main
from treesep.rotation import extract_separator
from treesep.trees import RankedAlphabet, Tree, format_tree, parse_tree
from treesep.walking import ACCEPT, dfs_from_dfa

from fixtures import (
    NONPALINDROME_TEXT,
    P_INITIAL_TEXT,
    PALINDROME_TEXT,
    Q_INITIAL_TEXT,
    all_words_dfa,
    always_accept_dtwa,
    even_p_dfa,
    left_leaf_dtwa,
    obf_sigma,
    p_initial_grammar,
    p_prefix_dfa,
    q_initial_grammar,
    stay_loop_dtwa,
)
from oracles import SEED, criterion_dfas, dict_run


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestExtract:
    def test_separating_walker(self, files, capsys):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        argv = ["extract", files("w.dtwa", walker.to_text()),
                files("g.cfg", P_INITIAL_TEXT), files("h.cfg", Q_INITIAL_TEXT)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = extract_separator(walker, p_initial_grammar(), q_initial_grammar(), 9)
        assert out == report.to_json() + "\n"

    def test_walker_that_does_not_separate(self, files, capsys):
        g = files("g.cfg", P_INITIAL_TEXT)
        code, out, _ = run(capsys, ["extract", files("w.dtwa", always_accept_dtwa().to_text()), g, g])
        assert code == 1
        assert json.loads(out)["violations"]["overlap_word"] == "p"

    def test_bound_reaches_the_search(self, files, capsys):
        argv = ["extract", files("w.dtwa", left_leaf_dtwa().to_text()),
                files("g.cfg", P_INITIAL_TEXT), files("h.cfg", Q_INITIAL_TEXT), "--bound", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert json.loads(out) == {"status": "exhausted", "search_bound": 3}


class TestVerify:
    def test_separator(self, files, capsys):
        argv = ["verify", files("k.dfa", p_prefix_dfa().to_text()),
                files("g.cfg", P_INITIAL_TEXT), files("h.cfg", Q_INITIAL_TEXT)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out) == {"verified": True,
                                   "violations": {"missed_word": None, "overlap_word": None}}

    def test_non_separator(self, files, capsys):
        argv = ["verify", files("k.dfa", all_words_dfa().to_text()),
                files("g.cfg", P_INITIAL_TEXT), files("h.cfg", Q_INITIAL_TEXT)]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert json.loads(out) == {"verified": False,
                                   "violations": {"missed_word": None, "overlap_word": "q"}}


class TestRun:
    def test_accept_with_trace(self, files, capsys):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        argv = ["run", files("w.dtwa", walker.to_text()), files("t.tree", "a(p, a(c, q))\n"),
                "--trace"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        outcome = walker.run(parse_tree("a(p,a(c,q))"), collect_trace=True)
        assert (report["kind"], report["steps"]) == ("accept", outcome.steps)
        assert len(report["trace"]) == len(outcome.trace) == outcome.steps + 1
        assert report["trace"][:3] == [["d_start", "/", 0], ["d_start", "/1", 1], ["u1_yes", "/", 0]]
        assert ["d_yes", "/2/2", 2] in report["trace"]

    def test_reject_without_trace(self, files, capsys):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        code, out, _ = run(capsys, ["run", files("w.dtwa", walker.to_text()), files("t.tree", "a(q,p)")])
        assert code == 1
        assert json.loads(out) == {"kind": "reject", "steps": 4, "trace": None}

    def test_loop(self, files, capsys):
        code, out, _ = run(capsys, ["run", files("w.dtwa", stay_loop_dtwa().to_text()),
                                    files("t.tree", "c")])
        assert code == 1
        assert json.loads(out)["kind"] == "loop"

    @pytest.mark.parametrize("tree", ["a(p,", "a(p)", "b"])
    def test_bad_tree(self, files, capsys, tree):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        code, out, err = run(capsys, ["run", files("w.dtwa", walker.to_text()), files("t.tree", tree)])
        assert code == 2
        assert out == "" and err.startswith("treesep: ")

    def test_python_dash_m(self, files):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        env = dict(os.environ, PYTHONPATH=str(Path(treesep.__file__).parents[1]))
        argv = [sys.executable, "-m", "treesep", "run", files("w.dtwa", walker.to_text()),
                files("t.tree", "a(q,p)")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert json.loads(done.stdout) == {"kind": "reject", "steps": 4, "trace": None}

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_deep_comb(self, files, capsys, shape):
        """4,096-leaf combs, far deeper than the recursion limit, give the
        verdict and step count of the iterative oracle."""
        rng = random.Random(SEED)
        word = [rng.choice("pq") for _ in range(4_096)]
        tree = Tree(word[0] if shape == "left" else word[-1])
        for x in word[1:] if shape == "left" else reversed(word[:-1]):
            tree = Tree("a", (tree, Tree(x)) if shape == "left" else (Tree(x), tree))
        walker = dfs_from_dfa(even_p_dfa(), obf_sigma())
        code, out, _ = run(capsys, ["run", files("w.dtwa", walker.to_text()),
                                    files("t.tree", format_tree(tree))])
        want = dict_run(walker, tree)
        assert json.loads(out) == {"kind": want.kind, "steps": want.steps, "trace": None}
        assert code == (0 if want.kind == ACCEPT else 1)

    def test_missing_tree_file(self, files, tmp_path, capsys):
        walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
        code, _, err = run(capsys, ["run", files("w.dtwa", walker.to_text()),
                                    str(tmp_path / "absent.tree")])
        assert code == 2
        assert "absent.tree" in err


def test_public_names():
    # no submodule, and no helper that only the tests use
    assert sorted(treesep.__all__) == [
        "ACCEPT", "AlphabetError", "ArityError", "CnfGrammar", "Dbta", "Dfa", "Dtwa", "ESCAPE",
        "ExtractReport", "FormatError", "LOOP", "Nta", "PORT", "ParseError", "REJECT",
        "RankedAlphabet", "ResourceError", "RotationSearchExhausted", "RotationWitness",
        "RunOutcome", "SeparatorReport", "TransitionError", "Tree", "TreesepError",
        "cfg_dfa_intersection_empty", "comb_dfa", "compose",
        "derivations", "dfs_from_dfa", "enumerate_terms", "extract_separator",
        "find_rotation_term", "format_tree", "is_associative", "kop_dbta", "kop_member",
        "kop_nta", "leaf_word", "minimal_dbta", "obf_alphabet", "parse_dbta", "parse_dfa",
        "parse_dtwa", "parse_grammar", "parse_tree", "to_dbta", "verify_separator",
    ]


def test_console_script_target():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^treesep = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert target, "pyproject.toml declares no treesep script"
    assert callable(getattr(importlib.import_module(target[1]), target[2]))


def test_bench_imports_resolve():
    """perfbench/ is only parsed here: every name it imports from the package,
    and every `fixtures.<name>` it reads, must exist in this checkout's src/,
    and `treesep.fixtures` must define just the names the bench reads."""
    root = Path(__file__).resolve().parents[1]
    imported, read = [], set()
    for path in sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "treesep":
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fixtures":
                read.add(node.attr)
    assert ("treesep", "fixtures") in imported
    for module, name in imported:
        owner = importlib.import_module(module)
        assert Path(owner.__file__).resolve().is_relative_to(root / "src"), module
        if not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ModuleNotFoundError
    body = ast.parse((root / "src/treesep/fixtures.py").read_text()).body
    defined = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    defined |= {target.id for node in body if isinstance(node, ast.Assign) for target in node.targets}
    assert read == defined == {"PALINDROME_TEXT", "NONPALINDROME_TEXT", "obf_sigma"}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def bound_in(function):
    """The parameters of `function` and the names its own body binds by
    assignment, loop, `with`, `except` or import: its locals.  Names bound in
    the scopes nested in it are not its locals, and neither are the nested
    functions' names, since those are functions these checks list."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).partition(".")[0])
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def names_read(node, inside=(), local=frozenset()):
    """Names that `node` reads as an `ast.Name` or `ast.Attribute`, except
    inside the body of a function of the same name, and except a bare name
    that is a parameter or a local of an enclosing function: that reads the
    local, not a function of the module."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside += (node.name,)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | bound_in(node)
    if isinstance(node, ast.Name) and node.id not in inside and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from names_read(child, inside, local)


def test_names_read_skips_parameters_and_locals():
    """A parameter or a local of the same name as a function is no read of
    it: `perfbench/checks.py`'s `check_comb(source, comb)` once made an
    uncalled `comb` look called."""
    source = """
def comb(t):
    return comb(t)

def check_comb(source, comb):
    return comb(source)

def build(t):
    step = len
    def inner(x):
        return step(x) + sum(step(y) for y in t)
    return inner(t) or (lambda comb: comb)(t)

def step(x):
    return x

def use(t):
    return comb(t), check_comb(t, t), t.step
"""
    tree = ast.parse(source)
    assert set(names_read(tree.body[1])) == set()
    assert set(names_read(tree.body[2])) == {"len", "inner", "sum"}
    assert set(names_read(tree.body[4])) == {"comb", "check_comb", "step"}


def parsed(folder):
    """The syntax trees of the Python files in `folder` of the repository."""
    root = Path(__file__).resolve().parents[1]
    return [ast.parse(path.read_text()) for path in sorted((root / folder).glob("*.py"))]


def test_private_helpers_in_src_are_called():
    """`src/` keeps only what something calls: every function or method in
    src/treesep/ with one leading underscore is read by name somewhere in
    src/treesep/ or perfbench/ outside its own body.  A docstring that names
    it does not count, and neither does a test."""
    src, bench = parsed("src/treesep"), parsed("perfbench")
    private = {node.name for tree in src for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and re.match(r"_[^_]", node.name)}
    assert "_tables" in private
    read = {name for tree in src + bench for name in names_read(tree)}
    assert sorted(private - read) == []


def test_public_functions_in_src_are_called():
    """Every function in `treesep.__all__` is read by name somewhere in
    src/treesep/ or perfbench/ outside its own body, but for the ones named
    here with their reasons.  A new public function that only the tests call
    fails this until it moves to tests/oracles.py or joins the list."""
    read = {name for tree in parsed("src/treesep") + parsed("perfbench") for name in names_read(tree)}
    public = {name for name in treesep.__all__ if inspect.isfunction(getattr(treesep, name))}
    assert public - read == {
        # substitutes trees into a term's ports; lifting a violation word
        # back to a tree of the obfuscated language will build with it
        "compose",
        # reads back the DBTA text that `Dbta.fingerprint` hashes
        "parse_dbta",
    }


@pytest.mark.parametrize("folder", ["src", "tests", "perfbench"])
def test_sources_parse_as_python_3_10(folder):
    """pyproject.toml admits Python 3.10: no source may need later grammar."""
    paths = sorted((Path(__file__).resolve().parents[1] / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_output_does_not_depend_on_hash_seed(files):
    """String and frozenset hashes change with PYTHONHASHSEED; extraction
    and the obfuscation automata must not."""
    walker = dfs_from_dfa(p_prefix_dfa(), obf_sigma())
    extract = ["-m", "treesep", "extract", files("w.dtwa", walker.to_text()),
               files("g.cfg", P_INITIAL_TEXT), files("h.cfg", Q_INITIAL_TEXT)]
    dump = ["-c", "from treesep import fixtures, format_tree, kop_dbta, parse_grammar\n"
                  "kop = kop_dbta(parse_grammar(fixtures.PALINDROME_TEXT))\n"
                  "print(kop.to_text() + kop.minimize().to_text())\n"
                  "print(format_tree(kop.is_empty()[1]))"]
    # #18's minimal automaton has 56 states, so `minimize` names blocks
    # m10 and up, which sort before m2
    k18 = files("k18.dfa", criterion_dfas()[18].to_text())
    walker18 = ["-c", "import sys\n"
                      "from treesep import dfs_from_dfa, fixtures, format_tree, minimal_dbta, parse_dfa, to_dbta\n"
                      "w = dfs_from_dfa(parse_dfa(open(sys.argv[1]).read()), fixtures.obf_sigma())\n"
                      "print(minimal_dbta(w).to_text() + to_dbta(w).minimize().to_text())\n"
                      "print(minimal_dbta(w).minimize().fingerprint())\n"
                      "print(format_tree(to_dbta(w).is_empty()[1]))", k18]
    env = dict(os.environ, PYTHONPATH=str(Path(treesep.__file__).parents[1]))
    for args in (extract, dump, walker18):
        outputs = []
        for seed in ("1", "2"):
            done = subprocess.run([sys.executable, *args], env=dict(env, PYTHONHASHSEED=seed),
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0]


class TestInputErrors:
    def test_malformed_automaton(self, files, capsys):
        g = files("g.cfg", P_INITIAL_TEXT)
        code, out, err = run(capsys, ["verify", files("k.dfa", "alphabet:\np\n"), g, g])
        assert code == 2
        assert out == "" and err.startswith("treesep: ")

    @pytest.mark.parametrize("command, text", [
        ("run", always_accept_dtwa().to_text() + "p[root] go -> reject\n"),
        ("verify", p_prefix_dfa().to_text() + "q(yes) -> no\n"),
    ], ids=["run-dtwa", "verify-dfa"])
    def test_conflicting_repeated_line(self, files, capsys, command, text):
        g = files("g.cfg", P_INITIAL_TEXT)
        rest = [files("t.tree", "p")] if command == "run" else [g, files("h.cfg", Q_INITIAL_TEXT)]
        code, out, err = run(capsys, [command, files("automaton.txt", text), *rest])
        assert code == 2
        assert out == ""
        assert re.match(r"treesep: line \d+: second transition for ", err)

    def test_misspelt_header(self, files, capsys):
        text = p_prefix_dfa().to_text().replace("accepting:", "acepting:")
        argv = ["verify", files("k.dfa", text), files("g.cfg", P_INITIAL_TEXT),
                files("h.cfg", Q_INITIAL_TEXT)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "treesep: line 6: unknown header 'acepting'\n"

    def test_malformed_grammar(self, files, capsys):
        argv = ["verify", files("k.dfa", p_prefix_dfa().to_text()),
                files("g.cfg", "S -> p q r"), files("h.cfg", Q_INITIAL_TEXT)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("treesep: ")

    @pytest.mark.parametrize("text, message", [
        ("start: S\nS -> p\nstart: T\nT -> q\n", "line 3: duplicate header 'start'"),
        ("S -> A B; A -> p; B -> B B\n", "start symbol 'S' derives no word"),
    ], ids=["second-start", "empty-language"])
    def test_grammar_rejected(self, files, capsys, text, message):
        argv = ["verify", files("k.dfa", p_prefix_dfa().to_text()),
                files("g.cfg", text), files("h.cfg", Q_INITIAL_TEXT)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"treesep: {message}\n"

    @pytest.mark.parametrize("letter", ["c", "a"])
    def test_terminal_colliding_with_fresh_pair(self, files, capsys, letter):
        g = files("g.cfg", f"start: S\nS -> A B\nA -> p\nB -> {letter}\n")
        walker = files("w.dtwa", dfs_from_dfa(p_prefix_dfa(), obf_sigma()).to_text())
        code, out, err = run(capsys, ["extract", walker, g, g])
        assert code == 2
        assert out == ""
        assert err == "treesep: fresh letters ('a', 'c') collide with the terminals\n"

    def test_walker_missing_a_terminal(self, files, capsys):
        walker = dfs_from_dfa(all_words_dfa(("p",)), RankedAlphabet({"a": 2, "c": 0, "p": 0}))
        argv = ["extract", files("w.dtwa", walker.to_text()),
                files("g.cfg", PALINDROME_TEXT), files("h.cfg", NONPALINDROME_TEXT)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "treesep: alphabet needs letter 'q' with arity 0\n"

    def test_missing_file(self, files, tmp_path, capsys):
        g = files("g.cfg", P_INITIAL_TEXT)
        code, _, err = run(capsys, ["extract", str(tmp_path / "absent.dtwa"), g, g])
        assert code == 2
        assert "absent.dtwa" in err

    @pytest.mark.parametrize("command", ["extract", "verify", "run"])
    def test_not_utf8(self, files, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + "alphabet:".encode("utf-16-le"))
        g = files("g.cfg", P_INITIAL_TEXT)
        rest = [files("t.tree", "p")] if command == "run" else [g, g]
        code, out, err = run(capsys, [command, str(bad), *rest])
        assert code == 2
        assert out == "" and err.startswith("treesep: ")
