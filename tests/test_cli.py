"""CLI round-trips, exit codes, determinism, bundled data."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bundled import data_file, data_path
from locert import alexander, braid, compat, fpgroup, klein, seifert, slopes
from locert.cli import _build_parser, run
from locert.sampling import random_braid_word
from locert.words import int_str, invert_word, word_power
from test_braid import DELTA_SQ, _planted_central
from test_cli_golden import _RUNTIME, CASES, INPUTS, capture


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    text = buf.getvalue()
    return code, json.loads(text) if text.strip() else None


def test_braid_commands():
    code, result = _run(["braid", "sign", "B"])
    assert code == 0
    assert result["payload"]["sign"] == "positive"
    code, result = _run(["braid", "compare", "b", ""])
    assert result["payload"]["comparison"] == "less"
    code, result = _run(["braid", "reduce", "abA"])
    assert result["payload"]["reduced"] == "Bab"
    code, result = _run(["braid", "floor", "B"])
    assert result["payload"]["floor"] == 0


def test_klein_commands():
    code, result = _run(["klein", "fill", "1", "0"])
    assert code == 0
    assert result["payload"]["classification"] == "infinite_cyclic_quotient_lo"
    code, result = _run(["klein", "sign", "y", "--ordering", "O2"])
    assert result["payload"]["sign"] == "negative"


def test_slope_commands():
    code, result = _run(["slope", "delta", "2/1", "1/1"])
    assert result["payload"]["delta"] == 1
    code, result = _run(["slope", "glue", "--matrix", "0,1,1,0", "2/1"])
    assert result["payload"]["slope"] == "1/2"


def test_group_commands(tmp_path):
    code, result = _run(
        ["group", "abelianize", data_path("plus4_figure_eight_pi1.json")]
    )
    assert code == 0
    assert result["payload"] == {"free_rank": 0, "torsion": [4]}

    b3 = data_path("b3_presentation.json")
    code, result = _run(
        [
            "group",
            "fill",
            b3,
            "--mu",
            "s2",
            "--longitude",
            "s1 s2 s1 s1 s2 s1 S2 S2 S2 S2 S2 S2",
            "--slope",
            "1/0",
        ]
    )
    assert code == 0
    filled = result["payload"]["presentation"]
    assert filled["relators"][-1] == "s2"
    filled_path = tmp_path / "filled.json"
    filled_path.write_text(json.dumps(filled))
    code, result = _run(["group", "enumerate", str(filled_path)])
    assert code == 0
    assert result["payload"]["index"] == 1

    code, result = _run(
        [
            "group",
            "amalgam",
            b3,
            data_path("klein_bottle_presentation.json"),
            "--pair",
            "s2 = Y",
            "--pair",
            "s1 s2 s1 s1 s2 s1 = Y x x",
        ]
    )
    assert code == 0
    merged = result["payload"]["presentation"]
    assert merged["generators"] == ["s1", "s2", "x", "y"]
    merged_path = tmp_path / "merged.json"
    merged_path.write_text(json.dumps(merged))
    code, result = _run(["group", "abelianize", str(merged_path)])
    assert result["payload"] == {"free_rank": 0, "torsion": [4]}


def test_group_enumerate_inconclusive_exit_code(tmp_path):
    pres = {"generators": ["x", "y"], "relators": ["x y X y", "x x"]}
    path = tmp_path / "dihedral.json"
    path.write_text(json.dumps(pres))
    code, result = _run(["group", "enumerate", str(path), "--max-cosets", "200"])
    assert code == 2
    assert result["status"] == "inconclusive"
    assert result["payload"]["index"] is None


def test_splice_commands(tmp_path):
    tree = data_path("double_trefoil_splice.json")
    code, result = _run(["splice", "cert", tree, "--bound", "3"])
    assert code == 0
    cert = result["payload"]["certificate"]
    edge = cert["components"][0]["edge_certificate"]
    assert edge["alpha"] == "-1/1"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, result = _run(["splice", "verify", tree, str(cert_path)])
    assert code == 0
    assert result["payload"]["valid"] is True

    # tampered certificate is rejected but is not an input error
    cert["components"][0]["edge_certificate"]["alpha"] = "1/1"
    cert["components"][0]["edge_certificate"]["image"] = "1/1"
    cert_path.write_text(json.dumps(cert))
    code, result = _run(["splice", "verify", tree, str(cert_path)])
    assert code == 0
    assert result["payload"]["valid"] is False


def test_splice_unknown_exit_code(tmp_path):
    tree = {
        "nodes": [
            {"kind": "user", "name": "mystery"},
            {"kind": "torus_knot", "r": 2, "s": 3},
        ],
        "edges": [{"a": 0, "b": 1, "matrix": [0, 1, 1, 0]}],
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, result = _run(["splice", "cert", str(path)])
    assert code == 2
    assert result["status"] == "unknown"


def test_brieskorn_bit_budget_is_inconclusive(tmp_path):
    # A node of the first 8,000 primes (121,750 bits) certifies.  The 40
    # Mersenne numbers 2^e - 1 of the primes e below 14,000, pairwise coprime
    # and each under the 4300-digit limit, hold 552,452 bits: past the 2^19
    # budget, they stop before the coprimality pass.
    sieve = bytearray([1]) * 82_000
    for n in range(2, 287):
        if sieve[n]:
            sieve[n * n::n] = bytearray(len(range(n * n, 82_000, n)))
    primes = [n for n in range(2, 82_000) if sieve[n]]
    mersenne = [2**e - 1 for e in primes if e < 14_000][-40:]
    path = tmp_path / "tree.json"
    answers = []
    for multiplicities in (primes[:8000], mersenne):
        tree = {"nodes": [{"kind": "brieskorn", "multiplicities": multiplicities}]}
        path.write_text(json.dumps(tree))
        code, result = _run(["splice", "cert", str(path)])
        payload = result["payload"]
        answers.append((code, payload["status"], payload.get("reason")))
    assert answers == [
        (0, "lo", None),
        (2, None, "a Brieskorn node's multiplicities hold more than 524288 bits in all"),
    ]


def test_hf_and_cover_commands():
    code, result = _run(
        ["hf", "rank", "--p", "-3", "--q", "1", "--nu", "1", "--ranks", "1"]
    )
    assert result["payload"]["rank"] == 5
    code, result = _run(["cover", "order", "--poly", "1", "--n", "7"])
    assert result["payload"]["order"] == 1
    code, result = _run(["cover", "order", "--poly", "t^2 - t + 1", "--n", "6"])
    assert result["payload"]["order"] == "infinite"
    assert "note" in result["payload"]  # even n: descent to the double cover
    code, result = _run(["cover", "order", "--poly", "t^2 - 3t + 1", "--n", "2"])
    assert result["payload"]["order"] == 5
    assert "note" in result["payload"]


def test_verify_commands():
    code, result = _run(
        ["verify", "proposition-4-3", "--samples", "12", "--seed", "5"]
    )
    assert code == 0
    assert result["payload"]["total_failures"] == 0
    assert result["payload"]["wrong_ordering_control_failures"] >= 1
    code, result = _run(["verify", "nonapplicability"])
    assert code == 0
    assert result["payload"]["lo_slopes"] == [[1, 0]]
    assert result["payload"]["b3_quotient_index"] == 1


@pytest.mark.parametrize("failing", ["samples", "control"])
def test_failed_check_is_not_an_input_error(monkeypatch, capsys, failing):
    # a sample that fails the check, or a wrong-ordering control that finds
    # no failure, is a failed check: status error, exit 3
    real = compat.verify_compatibility

    def verify(conjugator, grid_bound, force_ordering=None):
        report = real(conjugator, grid_bound, force_ordering)
        if (force_ordering is not None) == (failing == "control"):
            failures = () if failing == "control" else ((1, 1),)
            report = report._replace(failures=failures)
        return report

    monkeypatch.setattr(compat, "verify_compatibility", verify)
    code, result = _run(["verify", "proposition-4-3", "--samples", "2",
                         "--grid-bound", "1"])
    assert code == 3 and result["status"] == "error"
    assert capsys.readouterr().err == ""
    payload = result["payload"]
    assert payload["total_failures"] == (2 if failing == "samples" else 0)
    assert (payload["wrong_ordering_control_failures"] == 0) == (failing == "control")


def test_verify_compat_alias():
    code, result = _run(["verify", "compatibility", "--samples", "3"])
    assert code == 0


def test_seeded_determinism():
    args = ["verify", "proposition-4-3", "--samples", "8", "--seed", "42"]
    _, first = _run(args)
    _, second = _run(args)
    assert first["payload"] == second["payload"]
    assert json.dumps(first["payload"], sort_keys=True) == json.dumps(
        second["payload"], sort_keys=True
    )


def test_payload_round_trip():
    _, result = _run(["braid", "sign", "aB"])
    assert json.loads(json.dumps(result)) == result


def test_input_error_exit_codes(tmp_path, capsys):
    assert run(["braid", "sign", "xyz"]) == 1
    assert run(["slope", "delta", "2/4", "1/1"]) == 1
    assert run(["group", "abelianize", str(tmp_path / "missing.json")]) == 1
    assert run(["nonsense"]) == 1
    assert run(["hf", "rank", "--p", "1", "--q", "0", "--nu", "0", "--ranks", "1"]) == 1
    capsys.readouterr()


def test_a_long_option_that_is_no_integer_is_echoed_briefly(capsys):
    # argparse's "invalid int value" echoes only the start of the text
    assert run(["klein", "fill", "z" * 5000, "0"]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument m: invalid int value: '{'z' * 39}...\n"
    )


def _raiser(exc):
    def handler(*args):
        raise exc

    return handler


@pytest.mark.parametrize("layer, command", [("dd_normal_form", "reduce"),
                                            ("delta_floor", "floor")])
def test_braid_caps_are_input_errors(monkeypatch, capsys, layer, command):
    monkeypatch.setattr(braid, layer, _raiser(ValueError("cap hit")))
    assert run(["braid", command, "ab"]) == 1
    assert capsys.readouterr().err == "error: cap hit\n"


# Every command that reads the DD order; none runs handle reduction.
_ORDER_QUERIES = {
    "braid sign": ["braid", "sign", "abA"],
    "braid compare": ["braid", "compare", "A", "bA"],
    "braid reduce": ["braid", "reduce", "abA"],
    "braid floor": ["braid", "floor", "abA"],
    "verify proposition-4-3": ["verify", "proposition-4-3", "--samples", "1",
                               "--grid-bound", "1"],
}


@pytest.mark.parametrize("command", sorted(_ORDER_QUERIES))
def test_step_cap_does_not_reach_the_order(monkeypatch, command):
    # the DD order and the normal form are read from the lift, which has no
    # step cap: a word that handle reduction gives up on still gets its answer
    argv = _ORDER_QUERIES[command]
    code, uncapped = _run(argv)
    monkeypatch.setattr(braid, "STEP_CAP", 0)
    with pytest.raises(OverflowError, match="handle reduction exceeded 0 steps"):
        braid.handle_reduce(braid.parse_word("abA"))
    capped_code, capped = _run(argv)
    assert code == capped_code == 0
    for result in (uncapped, capped):
        del result["runtime_ms"]
    assert capped == uncapped


def test_braid_sign_and_reduce_render_only_the_normal_form(monkeypatch):
    # the echo is the parsed text, so word_str runs only on the normal form
    calls = []
    render = braid.word_str

    def counted(word):
        calls.append(word)
        return render(word)

    monkeypatch.setattr(braid, "word_str", counted)
    text = " abAbaBB\tAbaBabA "
    code, result = _run(["braid", "sign", text])
    assert code == 0 and result["payload"]["word"] == "abAbaBBAbaBabA"
    assert calls == []
    code, result = _run(["braid", "reduce", text])
    assert code == 0 and result["payload"]["word"] == "abAbaBBAbaBabA"
    assert calls == [braid.parse_word(result["payload"]["reduced"])]


def _reduced(word):
    code, result = _run(["braid", "reduce", braid.word_str(word)])
    assert code == 0, result
    return result["payload"]["reduced"]


def test_reduce_answers_powers_of_sigma2_from_the_lift(monkeypatch):
    # planted-trivial words times s2^k: the lift's s2^k is the word handle
    # reduction ends at too, and nothing is peeled
    rng = random.Random(2013)
    words = [_planted_central(rng, rng.randint(0, 1142))
             + word_power(braid.SIGMA2, k)
             for k in range(-5, 6) for _ in range(6)]
    assert max(len(w) for w in words) <= 2005
    expected = [braid.word_str(braid.handle_reduce(w)) for w in words]
    assert expected == [braid.word_str(word_power(braid.SIGMA2, k))
                        for k in range(-5, 6) for _ in range(6)]
    monkeypatch.setattr(braid, "_peel", _raiser(AssertionError("peeled")))
    assert [_reduced(w) for w in words] == expected


def test_reduce_peels_the_peripheral_subgroup_outside_sigma2():
    # s2^k Delta^2l with l != 0 lies in <s2, Delta^2> but not in <s2>: its
    # word depends on (k, l) only, holds s1 with the sign of l, and is the
    # normal form of handle reduction's word
    rng = random.Random(2014)
    for k in range(-5, 6):
        for l in (-2, -1, 1, 2):
            element = word_power(braid.SIGMA2, k) + word_power(DELTA_SQ, l)
            words = [_planted_central(rng, rng.randint(0, 200)) + element
                     for _ in range(3)]
            reduced = {_reduced(w) for w in words}
            assert reduced == {braid.word_str(braid.dd_normal_form(
                braid.handle_reduce(w))) for w in words}
            (text,) = reduced
            assert braid.peripheral_parse(words[0]) == (k, l)
            assert braid.is_trivial(braid.parse_word(text) + invert_word(element))
            assert set(text) & {"a", "A"} == {"a" if l > 0 else "A"}


def test_reduce_matches_handle_reduction_on_random_words():
    # the same braid as handle reduction's word, and the same word as its
    # normal form
    rng = random.Random(2015)
    words = [random_braid_word(rng, 40) for _ in range(1000)]
    in_sigma2 = [braid.peripheral_parse(w) for w in words]
    assert sum(p is not None and p.l == 0 for p in in_sigma2) >= 50
    for word in words:
        handled = braid.handle_reduce(word)
        reduced = braid.parse_word(_reduced(word))
        assert braid.is_trivial(reduced + invert_word(handled))
        assert reduced == braid.dd_normal_form(handled)


def test_reduce_answers_sigma2_powers_past_the_step_cap(monkeypatch):
    # ``braid reduce`` runs no handle reduction, so no word meets the step
    # cap, in <s2> or outside it.  The cap is lowered here; test_braid runs a
    # planted word past the real one.
    monkeypatch.setattr(braid, "STEP_CAP", 100)
    word = _planted_central(random.Random(2012), 480)
    assert len(word) == 840
    with pytest.raises(OverflowError, match="handle reduction exceeded"):
        braid.handle_reduce(word)
    code, result = _run(["braid", "reduce", braid.word_str(word)])
    assert code == 0 and result["status"] == "ok"
    assert result["payload"]["reduced"] == "" and result["payload"]["trivial"]
    monkeypatch.setattr(braid, "STEP_CAP", 0)
    code, result = _run(["braid", "reduce", "abaBA"])
    assert code == 0 and result["payload"]["reduced"] == "b"
    code, result = _run(["braid", "reduce", "abA"])
    assert code == 0 and result["payload"]["reduced"] == "Bab"


_S3 = str(INPUTS / "s3.json")
_B3 = data_path("b3_presentation.json")
_TREE = data_path("double_trefoil_splice.json")
# One answering command per subcommand, and one layer call it makes.
_PROBES = {
    "braid sign": (["braid", "sign", "aB"], braid, "dd_sign"),
    "braid compare": (["braid", "compare", "a", "b"], braid, "dd_compare"),
    "braid reduce": (["braid", "reduce", "abA"], braid, "dd_normal_form"),
    "braid floor": (["braid", "floor", "abA"], braid, "delta_floor"),
    "klein fill": (["klein", "fill", "2", "3"], klein, "klein_fill"),
    "klein sign": (["klein", "sign", "x y"], klein, "k_sign"),
    "slope delta": (["slope", "delta", "2/1", "1/1"], slopes, "intersection_number"),
    "slope glue": (["slope", "glue", "--matrix", "0,1,1,0", "2/1"], slopes,
                   "apply_gluing"),
    "group abelianize": (["group", "abelianize", _S3], fpgroup, "abelianization"),
    "group fill": (["group", "fill", _B3, "--mu", "s2", "--longitude", "s1",
                    "--slope", "1/0"], fpgroup, "dehn_fill"),
    "group amalgam": (["group", "amalgam", _B3,
                       data_path("klein_bottle_presentation.json"), "--pair", "s2 = Y"],
                      fpgroup, "amalgam"),
    "group enumerate": (["group", "enumerate", _S3], fpgroup, "enumerate_table"),
    "splice cert": (["splice", "cert", _TREE], seifert, "certificate_search"),
    "splice verify": (["splice", "verify", _TREE,
                       str(INPUTS / "double_trefoil_cert.json")], seifert,
                      "verify_certificate"),
    "hf rank": (["hf", "rank", "--p", "5", "--q", "1", "--nu", "1", "--ranks", "1"],
                slopes, "hf_surgery_rank"),
    "cover order": (["cover", "order", "--poly", "t^2 - 3t + 1", "--n", "3"],
                    alexander, "branched_cover_order"),
    "verify proposition-4-3": (["verify", "proposition-4-3", "--samples", "1",
                                "--grid-bound", "1"], compat, "verify_compatibility"),
    "verify nonapplicability": (["verify", "nonapplicability", "--slope-bound", "1"],
                                compat, "jsjlo_nonapplicability_report"),
}


def _commands(parser, prefix=""):
    """Each subcommand of ``parser``, an alias once."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            names = {}
            for name, sub in action.choices.items():
                names.setdefault(sub, name)
            for sub, name in names.items():
                yield from _commands(sub, f"{prefix} {name}".strip())
            return
    yield prefix


def test_probes_cover_every_subcommand():
    assert sorted(_commands(_build_parser())) == sorted(_PROBES)


@pytest.mark.parametrize("command", sorted(_PROBES))
def test_a_layer_overflow_is_inconclusive(monkeypatch, command):
    # ``run`` answers a budget for every handler: exit 2 with the layer's
    # message as reason and the command's own citations
    argv, module, name = _PROBES[command]
    code, ok = _run(argv)
    assert code == 0
    monkeypatch.setattr(module, name, _raiser(OverflowError("probe")))
    code, result = _run(argv)
    assert code == 2 and result["status"] == "inconclusive"
    assert result["payload"]["reason"] == "probe"
    assert result["citations"] == ok["citations"]


@pytest.mark.parametrize("case", ["verify_prop43_too_many_grid_letters",
                                  "verify_nonapplicability_too_large"])
def test_caps_answer_before_the_work(monkeypatch, case):
    for module, name in ((compat, "random_braid_words"), (braid, "_lift"),
                         (compat, "klein_fill")):
        monkeypatch.setattr(module, name, _raiser(RuntimeError(name)))
    assert run(CASES[case], out=io.StringIO()) == 2


def test_other_runtime_errors_surface(monkeypatch):
    # only ValueError and OSError are input errors; anything else is a fault
    # of the program and must not print as one
    for exc in (KeyError("k"), RuntimeError("r"), RecursionError("deep")):
        monkeypatch.setattr(braid, "dd_normal_form", _raiser(exc))
        with pytest.raises(type(exc)):
            run(["braid", "reduce", "ab"])


def test_integers_at_the_digit_limit_still_print():
    # Past the limit the answer is inconclusive (golden case
    # slope_delta_too_large); |10^2150 * 10^2149 + 1| has 4300 digits.
    code, result = _run(
        ["slope", "delta", "--", "1" + "0" * 2150 + "/1", "-1/1" + "0" * 2149]
    )
    assert code == 0 and result["payload"]["delta"] == 10**4299 + 1


def test_an_unprintable_int_nested_in_a_list_prints_as_null(monkeypatch):
    # only the refused int is dropped; the list around it and its printable
    # neighbours print as they are
    result = [3, [10**4400, "x", -1, 2.5], None, {"k": 10**4299}]
    monkeypatch.setattr(slopes, "intersection_number", lambda a, b: result)
    code, out = _run(["slope", "delta", "2/1", "1/1"])
    assert code == 2 and out["status"] == "inconclusive"
    assert out["payload"]["delta"] == [3, [None, "x", -1, 2.5], None, {"k": 10**4299}]
    with pytest.raises(OverflowError) as refused:
        int_str(10**4400)
    assert out["payload"]["reason"] == str(refused.value)


def test_closed_stdout_keeps_the_exit_code():
    # 80 KB of output, more than a pipe buffer holds: the print itself meets
    # the closed pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = ["--format", "text", "braid", "reduce", "a" * 40000]
    child = subprocess.Popen(
        [sys.executable, "-m", "locert.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert child.stdout.readline() == "status: ok\n"
    child.stdout.close()
    assert child.wait(timeout=60) == 0
    assert child.stderr.read() == ""
    child.stderr.close()


_PROP43 = ["verify", "proposition-4-3", "--samples", "3", "--grid-bound", "2"]
# One process runs these in order on its one parser; each must answer as it
# does first in a fresh process.
_SEQUENCE = [
    # a usage error after an append action has fired, then valid queries
    ["group", "enumerate", "s3.json", "--subgroup", "x", "--max-cosets", "z"],
    ["klein", "fill", "1", "0"],
    ["group", "enumerate", "s3.json", "--subgroup", "x", "--subgroup", "y"],
    ["group", "enumerate", "s3.json", "--subgroup", "x"],
    ["group", "enumerate", "s3.json"],
    ["group", "amalgam", data_path("b3_presentation.json"),
     data_path("klein_bottle_presentation.json"),
     "--pair", "s2 = Y", "--pair", "s1 s2 s1 s1 s2 s1 = Y x x"],
    ["group", "amalgam", data_path("b3_presentation.json"),
     data_path("klein_bottle_presentation.json"), "--pair", "s2 = Y"],
    ["--format", "text", "braid", "sign", "B"],
    ["braid", "sign", "B"],
    [*_PROP43, "--verbose-cases"],
    _PROP43,
]


def test_reused_parser_keeps_no_state_between_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    codes = []
    for argv in _SEQUENCE:
        result = capture(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "locert.cli", *argv], env=env, cwd=INPUTS,
            capture_output=True, text=True, timeout=60,
        )
        assert result == {
            "argv": argv,
            "exit": fresh.returncode,
            "stdout": _RUNTIME.sub(r'\1"<masked>"', fresh.stdout),
            "stderr": fresh.stderr,
        }
        codes.append(result["exit"])
    assert codes == [1] + [0] * (len(_SEQUENCE) - 1)


def test_text_format():
    buf = io.StringIO()
    code = run(["--format", "text", "braid", "sign", "B"], out=buf)
    assert code == 0
    text = buf.getvalue()
    assert "status: ok" in text and "sign: positive" in text


def test_bundled_data():
    poly = data_file("alexander_polynomials.json")["polynomials"]
    assert poly["conway"] == "1"
    tree = data_file("double_trefoil_splice.json")
    assert len(tree["nodes"]) == 2
