"""Golden corpus of CLI outputs.

Each case runs ``locert.cli.run`` in process, with ``tests/golden/inputs``
as the working directory, and compares three things byte for byte with
``tests/golden/cases/<case>.json``: stdout with the ``runtime_ms`` value
masked, the exit code, and stderr.  The corpus pins verdicts, certificates
and payloads, so a refactor is done only when every case still matches.

Rule: regenerate the corpus only for a documented correctness fix, and
name the changed cases in CHANGES.md.  To regenerate named cases (or all
of them, when none is named), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py [case ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from locert.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
CASES_DIR = GOLDEN / "cases"
DATA = "../../../src/locert/data/"

_PROP43 = ["verify", "proposition-4-3", "--samples", "6", "--seed", "5",
           "--grid-bound", "3", "--max-len", "6"]
# 10^2200: the slopes print, but their delta 10^4400 - 1 passes the 4300-digit
# limit of str(int)
_HUGE = "1" + "0" * 2200
_HUGE_GLUE = f"{_HUGE},{'9' * 2200},1{'0' * 2199}1,{_HUGE}"
_HUGE_PLUS_ONE = "1" + "0" * 2199 + "1"
# 10^4400: int() refuses its 4401 digits, so it is reported as too long, and
# only its start is echoed
_LONG = "1" + "0" * 4400
# 4300 nines: the longest integer str() prints
_NINES = "9" * 4300
# the coefficients of t^2, t and 1 merge to 2X, 1 - 4X and 2X for X = _NINES,
# and 1 - 4X has 4301 digits
_MERGED = (f"{_NINES} t^2 + {_NINES} t^2 - {_NINES} t - {_NINES} t - {_NINES} t"
           f" - {_NINES} t + t + {_NINES} + {_NINES}")

CASES: dict[str, list[str]] = {
    # braid
    "braid_sign": ["braid", "sign", "aB"],
    "braid_sign_text": ["--format", "text", "braid", "sign", "B"],
    "braid_compare": ["braid", "compare", "b", ""],
    # the second "--" is the word v: argparse used to drop it, so v was empty
    "braid_compare_double_dash": ["braid", "compare", "--", "a", "--"],
    "braid_reduce": ["braid", "reduce", "abAbaBBAbaBabA"],
    # pins the handle order: the strictly leftmost order gives "ABBBBBA"
    "braid_reduce_order": ["braid", "reduce", "BABABAbAbaBBAbB"],
    # braids in <s2>: handle reduction ends at the power of s2 the lift reads
    "braid_reduce_sigma2": ["braid", "reduce", "abaBA"],
    "braid_reduce_relator": ["braid", "reduce", "abaBAB"],
    "braid_reduce_sigma2_cubed": ["braid", "reduce", "abaBAbb"],
    "braid_floor": ["braid", "floor", "abABab" * 3],
    "braid_bad_letter": ["braid", "sign", "xyz"],
    # klein
    "klein_fill_lo": ["klein", "fill", "1", "0"],
    "klein_fill_dihedral": ["klein", "fill", "0", "1"],
    "klein_fill_finite": ["klein", "fill", "2", "3"],
    # unnormalized slopes: the payload echoes [m, n] as typed, and the
    # classification is that of -(m, n)
    "klein_fill_negative_y": ["klein", "fill", "--", "-1", "0"],
    "klein_fill_negative_finite": ["klein", "fill", "--", "-3", "-2"],
    "klein_fill_negative_dihedral": ["klein", "fill", "--", "0", "-1"],
    "klein_fill_not_primitive": ["klein", "fill", "2", "4"],
    # (10^2200, 10^2200): the diagnostic echoes only the start of the slope
    "klein_fill_not_primitive_long": ["klein", "fill", _HUGE, _HUGE],
    "klein_fill_large": ["klein", "fill", "10000001", "10000000"],
    # the order 4|mn| of the note has 4401 digits
    "klein_fill_too_large": ["klein", "fill", _HUGE_PLUS_ONE, _HUGE],
    "klein_fill_too_long": ["klein", "fill", _LONG, "1"],
    "klein_sign": ["klein", "sign", "x^2 y^-3", "--ordering", "O2"],
    "klein_sign_kernel": ["klein", "sign", "y^-4"],
    # a caret needs an integer after it; "1" is how the identity prints
    "klein_sign_dangling_caret": ["klein", "sign", "x^"],
    "klein_sign_identity": ["klein", "sign", "1"],
    "klein_sign_too_long": ["klein", "sign", f"x^{_LONG}"],
    # slope
    "slope_delta": ["slope", "delta", "2/1", "1/1"],
    "slope_delta_integer": ["slope", "delta", "3", "1/2"],
    "slope_delta_not_primitive": ["slope", "delta", "2/4", "1/1"],
    "slope_delta_not_primitive_long": ["slope", "delta", f"{_HUGE}/{_HUGE}", "1/1"],
    # after a slash the denominator must be an integer
    "slope_delta_empty_denominator": ["slope", "delta", "1/", "2/1"],
    # the second "--" is the slope beta: argparse used to drop it, a traceback
    "slope_delta_double_dash": ["slope", "delta", "--", "0", "--"],
    "slope_delta_too_large": ["slope", "delta", "--", f"{_HUGE}/1", f"1/{_HUGE}"],
    "slope_delta_too_large_text": ["--format", "text", "slope", "delta", "--",
                                   f"{_HUGE}/1", f"1/{_HUGE}"],
    "slope_delta_too_long": ["slope", "delta", f"{_LONG}/1", "1/1"],
    "slope_glue": ["slope", "glue", "--matrix", "0,1,1,0", "2/1"],
    "slope_glue_shear": ["slope", "glue", "--matrix", "1,1,0,1", "0/1"],
    "slope_glue_bad_matrix": ["slope", "glue", "--matrix", "1,2,3", "1/1"],
    "slope_glue_bad_entry": ["slope", "glue", "--matrix", "1,a,0,1", "1/1"],
    # the determinant X^2 - X, X = _NINES, has 8600 digits: str() cannot print it
    "slope_glue_determinant_too_long": ["slope", "glue",
                                        f"--matrix={_NINES},{_NINES},1,{_NINES}",
                                        "1/1"],
    # a unimodular matrix whose image slope has 4401-digit entries
    "slope_glue_too_large": ["slope", "glue", "--matrix", _HUGE_GLUE, "--",
                             f"{_HUGE}/1"],
    "slope_glue_too_large_text": ["--format", "text", "slope", "glue", "--matrix",
                                  _HUGE_GLUE, "--", f"{_HUGE}/1"],
    # group
    "group_abelianize": ["group", "abelianize", DATA + "plus4_figure_eight_pi1.json"],
    "group_abelianize_missing": ["group", "abelianize", "missing.json"],
    "group_abelianize_string_relators": ["group", "abelianize", "string_relators.json"],
    "group_abelianize_string_generators": ["group", "abelianize",
                                           "string_generators.json"],
    "group_abelianize_missing_relators": ["group", "abelianize",
                                          "missing_relators.json"],
    # a 4000-digit relator: the diagnostic echoes only the start of the list
    "group_abelianize_long_relator": ["group", "abelianize", "long_relator.json"],
    "group_fill": ["group", "fill", DATA + "b3_presentation.json", "--mu", "s2",
                   "--longitude", "s1 s2 s1 s1 s2 s1 S2 S2 S2 S2 S2 S2",
                   "--slope", "1/0"],
    # mu^p lambda^q past the letter cap: 10^2200 overflowed, 10^11 ran out of memory
    "group_fill_too_large": ["group", "fill", DATA + "b3_presentation.json",
                             "--mu", "s2", "--longitude", "s1", "--slope",
                             f"{_HUGE}/1"],
    "group_fill_too_large_text": ["--format", "text", "group", "fill",
                                  DATA + "b3_presentation.json", "--mu", "s2",
                                  "--longitude", "s1", "--slope", "100000000000/1"],
    "group_fill_bad_token": ["group", "fill", DATA + "b3_presentation.json",
                             "--mu", "s3", "--longitude", "s2", "--slope", "1"],
    # "ß" and "ss" would both spell their inverse "SS"
    "group_fill_colliding_inverses": ["group", "fill", "colliding_inverses.json",
                                      "--mu", "ß", "--longitude", "ss",
                                      "--slope=-1/1"],
    "group_amalgam": ["group", "amalgam", DATA + "b3_presentation.json",
                      DATA + "klein_bottle_presentation.json",
                      "--pair", "s2 = Y", "--pair", "s1 s2 s1 s1 s2 s1 = Y x x"],
    "group_amalgam_pair_without_equals": ["group", "amalgam",
                                          DATA + "b3_presentation.json",
                                          DATA + "klein_bottle_presentation.json",
                                          "--pair", "s2 Y"],
    # the second file is the malformed one: the diagnostic names it
    "group_amalgam_malformed": ["group", "amalgam", DATA + "b3_presentation.json",
                                "truncated.json", "--pair", "s2 = x"],
    "group_abelianize_not_utf8": ["group", "abelianize", "not_utf8.json"],
    "group_enumerate": ["group", "enumerate", "s3.json"],
    "group_enumerate_subgroup": ["group", "enumerate", "s3.json", "--subgroup", "x"],
    "group_enumerate_inconclusive": ["group", "enumerate", "dihedral.json",
                                     "--max-cosets", "200"],
    "group_enumerate_zero_cap": ["group", "enumerate", "s3.json", "--max-cosets", "0"],
    # the free group on 40 generators never closes: 80 columns stop the table
    # at 25000 cosets, far below the --max-cosets the memory could not hold
    "group_enumerate_table_cap": ["group", "enumerate", "free_group_40.json",
                                  "--max-cosets", "100000000"],
    # splice
    "splice_cert_double_trefoil": ["splice", "cert", DATA + "double_trefoil_splice.json"],
    "splice_cert_double_trefoil_text": ["--format", "text", "splice", "cert",
                                        DATA + "double_trefoil_splice.json"],
    "splice_cert_no_answer": ["splice", "cert", "no_answer_tree.json", "--bound", "4"],
    "splice_cert_no_answer_text": ["--format", "text", "splice", "cert",
                                   "no_answer_tree.json", "--bound", "2"],
    # one past the slope walk's cap: the walk stops at 400 with no pair
    "splice_cert_no_answer_past_cap": ["splice", "cert", "no_answer_tree.json",
                                       "--bound", "401"],
    "splice_cert_user_splice": ["splice", "cert", "user_splice_tree.json"],
    "splice_cert_user_splice_text": ["--format", "text", "splice", "cert",
                                     "user_splice_tree.json"],
    # certified by the L-space interval rule at -2/1, and at 2/1 on the mirror
    "splice_cert_lspace_interval": ["splice", "cert", "lspace_splice_tree.json"],
    "splice_cert_lspace_interval_mirror": ["splice", "cert", "lspace_mirror_tree.json"],
    "splice_cert_forest": ["splice", "cert", "forest_tree.json", "--bound", "2"],
    "splice_cert_splice_pairs": ["splice", "cert", "splice_pairs_forest.json"],
    "splice_cert_poincare_forest": ["splice", "cert", "poincare_forest_tree.json"],
    "splice_cert_bad_node": ["splice", "cert", "bad_node_tree.json"],
    "splice_cert_integer_key": ["splice", "cert", "integer_key_tree.json"],
    "splice_cert_top_level_list": ["splice", "cert", "list_tree.json"],
    "splice_cert_short_matrix": ["splice", "cert", "short_matrix_tree.json"],
    "splice_cert_string_multiplicity": ["splice", "cert",
                                        "string_multiplicity_tree.json"],
    # the string "false" is truthy: it used to supply the B1 rule's primeness
    "splice_cert_string_prime_flag": ["splice", "cert", "string_prime_flag_tree.json"],
    # "nodes" is a 5000-letter string: the diagnostic echoes only its start
    "splice_cert_long_nodes": ["splice", "cert", "long_nodes_tree.json"],
    # a 5000-letter slope key is no slope, not a too-long integer
    "splice_cert_long_slope_key": ["splice", "cert", "long_slope_key_tree.json"],
    "splice_cert_missing_kind": ["splice", "cert", "missing_kind_tree.json"],
    "splice_cert_missing_s": ["splice", "cert", "missing_s_tree.json"],
    "splice_cert_missing_matrix": ["splice", "cert", "missing_matrix_tree.json"],
    # a user piece's name and description must be strings
    "splice_cert_user_fields": ["splice", "cert", "user_fields_tree.json"],
    # a user piece may assert lo, not_lo or unknown, and nothing else
    "splice_cert_bad_status": ["splice", "cert", "bad_status_tree.json"],
    # r has 5000 digits: json.load cannot read it past the 4300-digit limit
    "splice_cert_int_too_long": ["splice", "cert", "long_int_tree.json"],
    # 100000 nested lists: json.load hits the recursion limit on every
    # supported Python (3.13 reads 3000)
    "splice_cert_deep_nesting": ["splice", "cert", "deep_nesting.json"],
    # Sigma(2,3) and Sigma(2,3,1) are S^3: two nontrivial fibres are not LO
    "splice_cert_sigma_2_3": ["splice", "cert", "sigma_2_3_tree.json"],
    "splice_cert_sigma_2_3_1": ["splice", "cert", "sigma_2_3_1_tree.json"],
    # -1/1 and 1/-1 name one slope: an input error, not a first match
    "splice_cert_duplicate_slope": ["splice", "cert", "duplicate_slope_tree.json"],
    # the same assertions in two key orders print the same certificate
    "splice_cert_key_order": ["splice", "cert", "key_order_tree.json"],
    "splice_cert_key_order_reversed": ["splice", "cert",
                                       "key_order_reversed_tree.json"],
    "splice_cert_negative_bound": ["splice", "cert", DATA + "double_trefoil_splice.json",
                                   "--bound", "-3"],
    # T(10^2200 + 1, 10^2200 + 3): the -1/1 and 1/0 fillings close to Brieskorn
    # spheres whose third multiplicity |p - qrs| has 4401 digits
    "splice_cert_too_large": ["splice", "cert", "huge_torus_knot_tree.json"],
    "splice_verify": ["splice", "verify", DATA + "double_trefoil_splice.json",
                      "double_trefoil_cert.json"],
    "splice_verify_forest": ["splice", "verify", "forest_tree.json", "forest_cert.json"],
    "splice_verify_tampered": ["splice", "verify", DATA + "double_trefoil_splice.json",
                               "tampered_cert.json"],
    "splice_verify_wrong_tree": ["splice", "verify", "forest_tree.json",
                                 "double_trefoil_cert.json"],
    "splice_verify_bad_slope": ["splice", "verify", DATA + "double_trefoil_splice.json",
                                "bad_slope_cert.json"],
    "splice_verify_top_level_list": ["splice", "verify", DATA + "double_trefoil_splice.json",
                                     "list_cert.json"],
    "splice_verify_int_components": ["splice", "verify",
                                     DATA + "double_trefoil_splice.json",
                                     "int_components_cert.json"],
    "splice_verify_malformed_cert": ["splice", "verify",
                                     DATA + "double_trefoil_splice.json",
                                     "truncated.json"],
    "splice_verify_null": ["splice", "verify", DATA + "double_trefoil_splice.json",
                           "null_cert.json"],
    # alpha edited to an L-space slope and to the reducible slope
    "splice_verify_lspace_not_lo": ["splice", "verify", "lspace_splice_tree.json",
                                    "lspace_not_lo_cert.json"],
    "splice_verify_lspace_reducible": ["splice", "verify", "lspace_splice_tree.json",
                                       "lspace_reducible_cert.json"],
    # records that re-verify pair by pair but differ from their re-derivation
    "splice_verify_no_hypotheses": ["splice", "verify", "prime_flag_tree.json",
                                    "no_hypotheses_cert.json"],
    "splice_verify_forged_evidence": ["splice", "verify",
                                      DATA + "double_trefoil_splice.json",
                                      "forged_evidence_cert.json"],
    "splice_verify_null_leaf": ["splice", "verify", "forest_tree.json",
                                "null_leaf_cert.json"],
    "splice_verify_unglued_exterior": ["splice", "verify", "unglued_exterior_tree.json",
                                       "double_trefoil_cert.json"],
    "splice_verify_negative_bound": ["splice", "verify",
                                     DATA + "double_trefoil_splice.json",
                                     "negative_bound_cert.json"],
    "splice_verify_too_large": ["splice", "verify", "huge_torus_knot_tree.json",
                                "double_trefoil_cert.json"],
    # hf
    "hf_rank": ["hf", "rank", "--p", "-3", "--q", "1", "--nu", "1", "--ranks", "1"],
    # nu > 5
    "hf_rank_large_nu": ["hf", "rank", "--p", "3", "--q", "1", "--nu", "7",
                         "--ranks", "1"],
    "hf_rank_bad_q": ["hf", "rank", "--p", "1", "--q", "0", "--nu", "0", "--ranks", "1"],
    "hf_rank_bad_ranks": ["hf", "rank", "--p", "1", "--q", "1", "--nu", "0",
                          "--ranks", "1,,2"],
    "hf_rank_ranks_too_long": ["hf", "rank", "--p", "1", "--q", "1", "--nu", "0",
                               "--ranks", f"1,{_LONG}"],
    # cover
    "cover_order": ["cover", "order", "--poly", "t^2 - 3t + 1", "--n", "7"],
    "cover_order_even": ["cover", "order", "--poly", "t^2 - t + 1", "--n", "6"],
    "cover_order_not_normalized": ["cover", "order", "--poly", "t^2 + 1", "--n", "3"],
    # an option value of "--": argparse used to drop it, a traceback
    "cover_order_double_dash": ["cover", "order", "--poly=--", "--n", "3"],
    "cover_order_figure_eight_400": ["cover", "order", "--poly", "t^2 - 3t + 1",
                                     "--n", "400"],
    # L_24000 - 2 has 5016 digits, past the 4300-digit budget
    "cover_order_too_large": ["cover", "order", "--poly", "t^2 - 3t + 1",
                              "--n", "12000"],
    "cover_order_too_large_text": ["--format", "text", "cover", "order", "--poly",
                                   "t^2 - 3t + 1", "--n", "12000"],
    # degree 10^8, answered without writing out the coefficients: not
    # symmetric, and past the degree budget
    "cover_order_wide_not_symmetric": ["cover", "order", "--poly",
                                       "t^100000000 - t + 1", "--n", "2"],
    "cover_order_wide": ["cover", "order", "--poly",
                         "t^100000000 - t^50000000 + 1", "--n", "2"],
    "cover_order_too_long": ["cover", "order", "--poly", f"t^{_LONG} - t + 1",
                             "--n", "2"],
    "cover_order_merged_coefficient_too_long": ["cover", "order", "--poly", _MERGED,
                                                "--n", "3"],
    # a 5000-character unparsed tail: the diagnostics echo only its start
    "cover_order_bad_tail_long": ["cover", "order", "--poly", "t + " + "z" * 5000,
                                  "--n", "3"],
    "cover_order_missing_sign_long": ["cover", "order", "--poly", "t " + "1" * 5000,
                                      "--n", "3"],
    # verify
    "verify_prop43": [*_PROP43, "--verbose-cases"],
    "verify_prop43_text": ["--format", "text", *_PROP43],
    "verify_compatibility_alias": ["verify", "compatibility", "--samples", "3",
                                   "--grid-bound", "2"],
    "verify_nonapplicability": ["verify", "nonapplicability", "--slope-bound", "3"],
    "verify_nonapplicability_text": ["--format", "text", "verify", "nonapplicability",
                                     "--slope-bound", "2"],
    "verify_nonapplicability_zero_bound": ["verify", "nonapplicability",
                                           "--slope-bound", "0"],
    # one past the slope-bound cap: answered before the survey
    "verify_nonapplicability_too_large": ["verify", "nonapplicability",
                                          "--slope-bound", "101"],
    "verify_prop43_zero_samples": ["verify", "proposition-4-3", "--samples", "0"],
    "verify_prop43_negative_samples": ["verify", "proposition-4-3", "--samples", "-3"],
    "verify_prop43_negative_max_len": ["verify", "proposition-4-3", "--max-len", "-1"],
    # 2 conjugators x 120 grid points, words of at most 2 x 10^6 + 35 letters:
    # far past the grid cap, answered before any sampling
    "verify_prop43_too_many_letters": ["verify", "proposition-4-3", "--samples", "1",
                                       "--max-len", "1000000"],
    # an input error, though 10^7 samples would pass the grid cap
    "verify_prop43_zero_grid_bound": ["verify", "proposition-4-3", "--grid-bound", "0",
                                      "--samples", "10000000"],
    # 2 conjugators x 8 grid points, words of at most 2 x 62497 + 7 letters:
    # 2000016 letters, 16 past the grid cap, answered before any sampling
    "verify_prop43_too_many_grid_letters": ["verify", "proposition-4-3",
                                            "--samples", "1", "--grid-bound", "1",
                                            "--max-len", "62497"],
    # usage errors
    "usage_unknown_command": ["nonsense"],
    "usage_missing_subcommand": ["braid"],
    "usage_bad_int": ["klein", "fill", "x", "0"],
    "usage_bad_choice": ["klein", "sign", "y", "--ordering", "O3"],
}

_RUNTIME = re.compile(r'("runtime_ms": )[-+0-9.eE]+')


def capture(argv: list[str]) -> dict:
    """Run one case and return its masked stdout, exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stderr(err):
            code = run(list(argv), out=out)
    finally:
        os.chdir(cwd)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _RUNTIME.sub(r'\1"<masked>"', out.getvalue()),
        "stderr": err.getvalue(),
    }


def _case_path(name: str) -> Path:
    return CASES_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = json.loads(_case_path(name).read_text(encoding="utf-8"))
    assert capture(CASES[name]) == expected


def test_corpus_has_no_stale_cases():
    assert sorted(p.stem for p in CASES_DIR.glob("*.json")) == sorted(CASES)


def test_corpus_covers_every_exit_code():
    codes = {
        json.loads(_case_path(name).read_text(encoding="utf-8"))["exit"]
        for name in CASES
    }
    assert codes == {0, 1, 2}


def test_inconclusive_payload_is_the_answer_plus_a_reason():
    # An exit-2 payload has the keys of some exit-0 payload of its command,
    # its result fields null, and at most a `reason` more.
    keys: dict[int, dict[tuple, list[set]]] = {0: {}, 2: {}}
    for name, argv in CASES.items():
        case = json.loads(_case_path(name).read_text(encoding="utf-8"))
        if argv[0] != "--format" and case["exit"] in keys:
            payload = set(json.loads(case["stdout"])["payload"])
            if case["exit"] == 2:
                payload.discard("reason")
            keys[case["exit"]].setdefault(tuple(argv[:2]), []).append(payload)
    assert keys[2] and set(keys[2]) <= set(keys[0])
    for command, payloads in keys[2].items():
        for payload in payloads:
            assert payload in keys[0][command], command


def test_assertion_key_order_does_not_change_the_answer():
    forward, backward = (
        json.loads(_case_path(name).read_text(encoding="utf-8"))
        for name in ("splice_cert_key_order", "splice_cert_key_order_reversed")
    )
    assert forward["exit"] == 0 and forward["stdout"] == backward["stdout"]


def _splice_cert_cases() -> list[str]:
    # Names only: a case file is read inside the test, so regenerating a new
    # case does not need its file to exist first.
    return [name for name, argv in sorted(CASES.items()) if argv[:2] == ["splice", "cert"]]


@pytest.mark.parametrize("name", _splice_cert_cases())
def test_printed_certificates_verify(name, tmp_path):
    # The certificate that `splice cert` prints is the record `splice verify`
    # reads; an answer other than lo prints none, and an input error no
    # envelope.
    case = json.loads(_case_path(name).read_text(encoding="utf-8"))
    if case["exit"] == 1:
        assert case["stdout"] == ""
        return
    payload = json.loads(case["stdout"])["payload"]
    certificate = payload["certificate"]
    if payload["status"] != "lo":
        assert certificate is None
        return
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(certificate))
    result = capture(["splice", "verify", CASES[name][2], str(cert_path)])
    assert result["exit"] == 0 and result["stderr"] == ""
    assert json.loads(result["stdout"])["payload"]["valid"] is True


def test_definite_splice_answers_exit_0():
    # lo and not_lo are answers (exit 0): a search that found neither is
    # unknown, and a stopped one inconclusive with a null status (exit 2).
    statuses = set()
    for name in _splice_cert_cases():
        case = json.loads(_case_path(name).read_text(encoding="utf-8"))
        if case["exit"] != 1:
            status = json.loads(case["stdout"])["payload"]["status"]
            assert case["exit"] == (0 if status in ("lo", "not_lo") else 2), name
            statuses.add(status)
    assert statuses == {"lo", "not_lo", "unknown", None}


def _regenerate(names: list[str]) -> None:
    CASES_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(CASES):
        text = json.dumps(capture(CASES[name]), indent=2, sort_keys=True)
        _case_path(name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {_case_path(name).relative_to(GOLDEN.parent.parent)}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
