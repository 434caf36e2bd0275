"""Checks that run around every test."""

import pytest

from treesep import words

from oracles import least_table_certified


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
