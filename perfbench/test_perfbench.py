"""Self-checks of the benchmark: the tracer counts what the program does,
and the verdict references agree with the program on small inputs."""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import references as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from locert import alexander, braid, cli, compat, klein, seifert, slopes  # noqa: E402
from locert.sampling import random_braid_words  # noqa: E402


def _traced(argv: list[str]) -> tuple[int, dict]:
    tracer = tr.Tracer()
    with tracer:
        code = cli.run(argv, out=io.StringIO())
    return code, tracer.summary()


def _calls(summary: dict, name: str) -> int:
    return summary["functions"].get(name, [0, 0, 0])[0]


def test_prop43_counts_match_compat_reports():
    samples, seed, bound, max_len = 4, 3, 5, 8
    code, summary = _traced([
        "verify", "proposition-4-3", "--samples", str(samples), "--seed", str(seed),
        "--grid-bound", str(bound), "--max-len", str(max_len),
    ])
    assert code == 0
    reports = [compat.verify_compatibility(w, bound) for w in random_braid_words(seed, samples, max_len)]
    reports.append(compat.verify_compatibility(braid.SIGMA1, bound, force_ordering=klein.KleinOrderingId.O1))
    checked = sum(r.checked for r in reports)
    assert checked == (samples + 1) * ((2 * bound + 1) ** 2 - 1)
    assert _calls(summary, "braid.conj_sign") == checked
    assert summary["counters"]["compat.grid_points"] == checked
    # k_sign is reached through compat's own `from .klein import k_sign` copy.
    assert _calls(summary, "klein.k_sign") == sum(r.positives for r in reports)


def test_no_answer_splice_counts_every_slope_tried(tmp_path):
    bound = 30
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(workloads._NO_ANSWER_TREE))
    code, summary = _traced(["splice", "cert", str(tree_path), "--bound", str(bound)])
    assert code == 2
    tree = seifert.SpliceTree.from_json(workloads._NO_ANSWER_TREE)
    f = tree.edges[0].matrix
    mu_b = slopes.apply_gluing(f, slopes.Slope(0, 1))
    # The splice shortcut tries mu_a on side a and mu_b on side b, and the
    # longitude on side a only when mu_b is left-orderable.
    shortcut = 2 + (seifert.slope_lo_verdict(tree.nodes[1], mu_b).status is seifert.LOStatus.LO)
    expected = len(seifert.enumerate_slopes(bound)) + shortcut
    assert _calls(summary, "seifert.slope_lo_verdict") == expected
    assert summary["counters"]["seifert.certificates_found"] == 0


def test_self_time_is_duration_minus_children():
    code, summary = _traced(["braid", "floor", "abABab" * 20])
    assert code == 0
    functions = summary["functions"]
    for calls, total, self_ns in functions.values():
        assert 0 <= self_ns <= total
    root_total = functions["cli.run"][1]
    assert sum(v[2] for v in functions.values()) == root_total


def test_uninstall_restores_every_binding():
    originals = (braid.handle_reduce, compat.k_sign, seifert.apply_gluing, cli.run)
    tracer = tr.Tracer()
    with tracer:
        assert braid.handle_reduce is not originals[0]
        assert compat.k_sign is not originals[1]
        assert seifert.apply_gluing is not originals[2]
    assert (braid.handle_reduce, compat.k_sign, seifert.apply_gluing, cli.run) == originals


def test_cover_order_references_agree_with_program():
    for poly, top in ((ref.FIGURE_EIGHT, 40), (ref.TREFOIL, 24), ("t^4 - t^3 + t^2 - t + 1", 20), ("2t^2 - 3t + 2", 20)):
        parsed = alexander.parse_poly(poly)
        for n in range(2, top + 1):
            assert ref.cover_order(poly, n) == alexander.branched_cover_order(parsed, n), (poly, n)


def test_planted_words_are_trivial():
    rng = random.Random(5)
    for n in (16, 100, 600):
        word = workloads._planted_trivial(rng, n)
        assert braid.is_trivial(braid.parse_word(word))
