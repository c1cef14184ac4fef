"""Fuzzed presentations through ``cli.run``.

Random presentation files, and real ones with one field changed or
dropped, go through ``group abelianize``, ``group enumerate``, ``group
fill`` and ``group amalgam``.  Each run must end in a well-formed envelope
(exit 0 or 2) or in one diagnostic line on stderr (exit 1); no exception may
escape.  The examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from test_splice_fuzz import (
    FUZZ,
    _check,
    _dumps,
    _maybe_drop_one,
    _one_edit,
    _or_any,
    values,
)

ROOT = Path(__file__).resolve().parent.parent
REAL = [
    json.loads(path.read_text())
    for path in [
        ROOT / "src" / "locert" / "data" / "b3_presentation.json",
        ROOT / "src" / "locert" / "data" / "klein_bottle_presentation.json",
        ROOT / "src" / "locert" / "data" / "plus4_figure_eight_pi1.json",
        ROOT / "tests" / "golden" / "inputs" / "s3.json",
        ROOT / "tests" / "golden" / "inputs" / "dihedral.json",
    ]
]

# Generator names: two disjoint pools of good ones, and bad ones (empty,
# uppercase only, with a space, one whose uppercase form is two letters).
_FIRST, _SECOND = ["x", "y", "s1"], ["a", "b", "t2"]
_BAD = ["", "1", "X", "x y", "ß", "ss", "x"]
slopes = st.sampled_from(["1/0", "0/1", "-1/1", "2/1", "-3/2", "3", "1/", "x",
                          "2/4", "0/0", "1" + "0" * 5000])


def _words(generators: list[str]):
    """Words over ``generators``, now and then with a foreign token."""
    tokens = [*generators, *(g.upper() for g in generators)] or ["x"]
    token = st.one_of(st.sampled_from(tokens), st.sampled_from(tokens),
                      st.sampled_from(tokens), st.sampled_from(_BAD + ["Q"]))
    return st.lists(token, max_size=6).map(" ".join)


@st.composite
def _presentation(draw, pool: list[str]):
    """(presentation, words over its generators); one presentation in four
    is malformed: bad names, a field changed or dropped, or any JSON value."""
    generators = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    words = _words(generators)
    presentation = {"generators": generators,
                    "relators": draw(st.lists(words, max_size=4))}
    malformed = st.one_of(
        st.fixed_dictionaries({
            "generators": st.lists(st.sampled_from(_BAD), max_size=3),
            "relators": st.lists(words, max_size=3),
        }),
        _one_edit(presentation), _or_any(_maybe_drop_one({
            "generators": st.just(generators), "relators": values})),
        st.sampled_from(REAL).flatmap(_one_edit), values,
    )
    if draw(st.integers(0, 3)) == 0:
        presentation = draw(malformed)
    return presentation, words


def test_fuzzed_presentations(tmp_path):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"

    @FUZZ
    @given(st.data())
    def check(data):
        p1, words1 = data.draw(_presentation(_FIRST))
        p2, words2 = data.draw(_presentation(_SECOND))
        mu, longitude, u = (data.draw(words1) for _ in range(3))
        v = data.draw(words2)
        first.write_text(_dumps(p1))
        second.write_text(_dumps(p2))
        _check(["group", "abelianize", str(first)])
        _check(["group", "enumerate", str(first), "--max-cosets", "200",
                "--subgroup", mu])
        _check(["group", "fill", str(first), "--mu", mu, "--longitude", longitude,
                f"--slope={data.draw(slopes)}"])
        _check(["group", "amalgam", str(first), str(second), "--pair", f"{u} = {v}"])

    check()
