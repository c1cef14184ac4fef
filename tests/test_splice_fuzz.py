"""Fuzzed splice inputs through ``cli.run``.

Malformed splice trees, and certificate records made by changing or
dropping one field of a real record, must end in a well-formed envelope
(exit 0 or 2) or in one diagnostic line on stderr (exit 1), of at most 200
characters and never Python's ``set_int_max_str_digits`` advice.  No
exception may escape.  The examples are derandomized, so every run checks the same
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from locert.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# Stands for a 5000-digit integer, which json.dumps cannot write itself.
_BIG = "<big>"
_WORDS = ["1/0", "0/1", "-1/1", "2/1", "1/", "lo", "not_lo", "unknown",
          "torus_knot", "brieskorn", "user", _BIG]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
    st.text(max_size=4), st.sampled_from(_WORDS),
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _or_any(good):
    """Mostly a plausible value, at times any JSON value."""
    return st.one_of(good, good, good, values)


def _maybe_drop_one(fields):
    """A dict from ``fields``, in one draw of three with one key missing."""
    def drop(pair):
        d, key = pair
        d.pop(key, None)
        return d

    keys = [None] * (2 * len(fields)) + list(fields)
    return st.tuples(st.fixed_dictionaries(fields), st.sampled_from(keys)).map(drop)


_SLOPE_KEYS = st.sampled_from(["1/0", "0/1", "-1/1", "2/1", "1/", "x", "2/4"])
_NODE_KINDS = (
    _maybe_drop_one({
        "kind": st.just("torus_knot"),
        "r": _or_any(st.integers(1, 7)),
        "s": _or_any(st.integers(1, 7)),
        "chirality": _or_any(st.sampled_from([1, -1])),
    }),
    _maybe_drop_one({
        "kind": st.just("brieskorn"),
        "multiplicities": _or_any(st.lists(st.integers(0, 11), max_size=4)),
    }),
    _maybe_drop_one({
        "kind": st.just("user"),
        "name": _or_any(st.text(max_size=4)),
        "description": values,
        "asserted": _or_any(st.dictionaries(
            _SLOPE_KEYS, _or_any(st.sampled_from(["lo", "not_lo", "unknown"])),
            max_size=3,
        )),
        "prime_zero_filling": _or_any(st.booleans()),
    }),
)
nodes = st.one_of(*_NODE_KINDS, *_NODE_KINDS, st.fixed_dictionaries({"kind": values}),
                  values)
edges = _or_any(_maybe_drop_one({
    "a": _or_any(st.integers(-1, 3)),
    "b": _or_any(st.integers(-1, 3)),
    "matrix": _or_any(st.one_of(
        st.sampled_from([[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 1]]),
        st.lists(st.integers(-2, 2), min_size=3, max_size=5),
    )),
}))
trees = _or_any(_maybe_drop_one({
    "version": _or_any(st.just(1)),
    "nodes": _or_any(st.lists(nodes, max_size=4)),
    "edges": _or_any(st.lists(edges, max_size=3)),
}))


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(_BIG), "1" + "0" * 4999)


def _paths(value, prefix=()) -> list[tuple]:
    """Every key path into a JSON value, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        if isinstance(child, (dict, list)):
            out.extend(_paths(child, prefix + (key,)))
    return out


_DROP = object()


def _kind(path: tuple) -> str:
    return path[-1] if isinstance(path[-1], str) else "[]"


@st.composite
def _one_edit(draw, base):
    """A copy of ``base`` with one field changed or dropped.  The field's
    key is drawn first (list items share one key), so a key that occurs
    once is edited as often as one that occurs in every component."""
    paths = _paths(base)
    kind = draw(st.sampled_from(sorted({_kind(p) for p in paths})))
    path = draw(st.sampled_from([p for p in paths if _kind(p) == kind]))
    value = draw(st.one_of(st.just(_DROP), values, values, values))
    edited = json.loads(json.dumps(base))
    target = edited
    for key in path[:-1]:
        target = target[key]
    if value is _DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return edited


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / "cases" / f"{name}.json").read_text())


# (tree path, certificate record) from each certifying golden case
RECORDS = [
    (str(GOLDEN / "inputs" / case["argv"][2]),
     json.loads(case["stdout"])["payload"]["certificate"])
    for case in map(_golden, ["splice_cert_double_trefoil", "splice_cert_forest",
                              "splice_cert_user_splice",
                              "splice_cert_lspace_interval"])
]
FOREST_CERT = str(GOLDEN / "inputs" / "forest_cert.json")
REAL_TREES = [
    json.loads((GOLDEN / "inputs" / name).read_text())
    for name in ["forest_tree.json", "user_splice_tree.json",
                 "lspace_splice_tree.json", "no_answer_tree.json",
                 "poincare_forest_tree.json", "splice_pairs_forest.json"]
]


def _check(argv: list[str]) -> dict | None:
    """Run one command; the envelope, or None after an input error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        # the repo's own diagnostic, echoing only the start of an input
        assert "set_int_max_str_digits" not in lines[0], lines
        assert len(lines[0]) <= 200, lines
        return None
    assert err.getvalue() == ""
    envelope = json.loads(out.getvalue())
    assert set(envelope) == {"status", "payload", "citations", "runtime_ms"}
    expected = {0: {"ok"}, 2: {"unknown", "inconclusive"}}[code]
    assert envelope["status"] in expected
    return envelope


def test_malformed_trees(tmp_path):
    tree_path, cert_path = tmp_path / "tree.json", tmp_path / "cert.json"
    edited_trees = st.sampled_from(REAL_TREES).flatmap(_one_edit)

    @FUZZ
    @given(st.one_of(trees, edited_trees))
    def check(tree):
        tree_path.write_text(_dumps(tree))
        envelope = _check(["splice", "cert", str(tree_path)])
        certificate = envelope and envelope["payload"]["certificate"]
        if certificate is not None:
            cert_path.write_text(json.dumps(certificate))
            envelope = _check(["splice", "verify", str(tree_path), str(cert_path)])
            assert envelope["payload"]["valid"] is True
        _check(["splice", "verify", str(tree_path), FOREST_CERT])

    check()


def test_edited_certificate_records(tmp_path):
    cert_path = tmp_path / "cert.json"

    @FUZZ
    @given(st.data())
    def check(data):
        tree, record = data.draw(st.sampled_from(RECORDS))
        cert_path.write_text(_dumps(data.draw(_one_edit(record))))
        _check(["splice", "verify", tree, str(cert_path)])

    check()
