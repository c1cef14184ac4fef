"""The committed mutant list stays applicable: ``tests/mutants.py`` runs it."""

from __future__ import annotations

import ast

import pytest

from mutants import MUTANTS, ROOT
from test_cli_golden import CASES


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_site_matches_exactly_once(mutant):
    # a site that no longer matches, or matches twice, would go stale silently
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_killer_names_a_test(mutant):
    path, _, test = mutant.killer.partition("::")
    function, _, case = test.partition("[")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert function in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    if path == "tests/test_cli_golden.py":
        assert case.rstrip("]") in CASES
