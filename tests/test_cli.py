import json

import pytest

from treesep.cli import main
from treesep.fixtures import (
    P_INITIAL_TEXT,
    Q_INITIAL_TEXT,
    all_words_dfa,
    always_accept_dtwa,
    left_leaf_dtwa,
    obf_sigma,
    p_initial_grammar,
    p_prefix_dfa,
    q_initial_grammar,
)
from treesep.rotation import extract_separator
from treesep.walking import dfs_from_dfa


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


class TestInputErrors:
    def test_malformed_automaton(self, files, capsys):
        g = files("g.cfg", P_INITIAL_TEXT)
        code, out, err = run(capsys, ["verify", files("k.dfa", "alphabet:\np\n"), g, g])
        assert code == 2
        assert out == "" and err.startswith("treesep: ")

    def test_malformed_grammar(self, files, capsys):
        argv = ["verify", files("k.dfa", p_prefix_dfa().to_text()),
                files("g.cfg", "S -> p q r"), files("h.cfg", Q_INITIAL_TEXT)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("treesep: ")

    def test_missing_file(self, files, tmp_path, capsys):
        g = files("g.cfg", P_INITIAL_TEXT)
        code, _, err = run(capsys, ["extract", str(tmp_path / "absent.dtwa"), g, g])
        assert code == 2
        assert "absent.dtwa" in err
