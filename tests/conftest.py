"""Checks that run around every test."""

import pytest

from treesep import bottomup, words

from oracles import least_table_certified, least_trees_certified


@pytest.fixture(autouse=True)
def certified_word_products(monkeypatch):
    """Every least table the CFG×DFA product builds during a test must pass
    `least_table_certified`, so each verdict and witness read off it is
    checked against the grammar and the automaton as well as against the
    test's own expectation."""
    build = words._least_table

    def certified(grammar, dfa, max_witness_len):
        table = build(grammar, dfa, max_witness_len)
        assert least_table_certified(grammar, dfa, table, max_witness_len)
        return table

    monkeypatch.setattr(words, "_least_table", certified)


@pytest.fixture(autouse=True)
def certified_emptiness(monkeypatch):
    """Every least-tree search `Dbta.is_empty` runs during a test must pass
    `least_trees_certified`, so each emptiness verdict and witness is checked
    against the quotient's table as well as against the test's expectation."""
    search = bottomup._least_trees

    def certified(quotient):
        record = search(quotient)
        assert least_trees_certified(quotient, record)
        return record

    monkeypatch.setattr(bottomup, "_least_trees", certified)
