"""Committed mutants: one-line edits to decision kernels that the tests kill.

Each entry names a file of the repository, a text that occurs in it exactly
once (``tests/test_mutants.py`` checks that), the text that replaces it, a
witness CLI query whose output the edit changes, and the test expected to
fail under it.  The witness runs in ``tests/golden/inputs``, as the golden
cases do; that its output changes rules out an equivalent mutant.

Run from the repository root (stdlib and pytest only):

    python tests/mutants.py

Each mutant is applied to a fresh temporary copy of ``src``, ``tests`` and
``perfbench``.  The script runs the witness before and after the edit, then
the expected killer, and only when that passes tier-1 with ``-x`` (less
``tests/test_mutants.py``, whose site check any edit fails); it
prints one line per mutant (killed, killed elsewhere, survived, or an error
when the killer run neither passes nor fails a test, as for a killer id that
is not collected) and the score.  It exits 1 unless every mutant is killed
by its expected killer and every witness changes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = "tests/test_cli_golden.py::test_cli_output_matches_golden"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    witness: list[str]  # CLI argv, run in tests/golden/inputs
    killer: str  # pytest node id


MUTANTS = [
    # S^3 is a Brieskorn node with at most two nontrivial fibres
    Mutant(
        "zhs_two_fibres",
        "src/locert/seifert.py",
        "if len(nontrivial) < 3:",
        "if len(nontrivial) < 2:",
        ["splice", "cert", "sigma_2_3_tree.json"],
        f"{_GOLDEN}[splice_cert_sigma_2_3]",
    ),
    Mutant(
        "hf_rank_large_nu",
        "src/locert/slopes.py",
        "max(0, (2 * nu - 1) * q - p)",
        "max(0, (2 * nu - 1 - (nu > 5)) * q - p)",
        ["hf", "rank", "--p", "3", "--q", "1", "--nu", "7", "--ranks", "1"],
        f"{_GOLDEN}[hf_rank_large_nu]",
    ),
    # the torsion of a filling along an unnormalized slope
    Mutant(
        "klein_fill_signed_torsion",
        "src/locert/klein.py",
        "else (4 * abs(n),)",
        "else (4 * n,)",
        ["klein", "fill", "--", "-3", "-2"],
        f"{_GOLDEN}[klein_fill_negative_finite]",
    ),
    # a tree that components() rejects is a report, not an input error
    Mutant(
        "verify_catches_bad_tree",
        "src/locert/seifert.py",
        "    except ValueError as exc:",
        "    except OverflowError as exc:",
        ["splice", "verify", "unglued_exterior_tree.json", "double_trefoil_cert.json"],
        f"{_GOLDEN}[splice_verify_unglued_exterior]",
    ),
    # a definite not_lo answer exits 0, as lo does
    Mutant(
        "splice_cert_not_lo_exit",
        "src/locert/cli.py",
        'return "unknown" if verdict is seifert.LOStatus.UNKNOWN else "ok"',
        'return "unknown" if certificate is None else "ok"',
        ["splice", "cert", "poincare_forest_tree.json"],
        f"{_GOLDEN}[splice_cert_poincare_forest]",
    ),
    # on the base line, s2^k with k > 0 lies below 1: Delta^2 is its own floor
    Mutant(
        "delta_floor_base_line",
        "src/locert/braid.py",
        "if x == 0 and exponent_sum(word) - 6 * h > 0:",
        "if x == 0 and exponent_sum(word) - 6 * h >= 0:",
        ["braid", "floor", "abaaba"],
        "tests/test_braid.py::test_delta_floor_bound_exceeded_is_unreachable_for_valid_words",
    ),
    # a handle s1^e s2^m s1^-e becomes s2^-e s1^m s2^e, not s2^e s1^m s2^-e
    Mutant(
        "handle_rewrite_conjugator_sign",
        "src/locert/braid.py",
        "(1, e1 - sgn), (2, -sgn), (1, m), (2, sgn), (1, e2 + sgn)",
        "(1, e1 - sgn), (2, sgn), (1, m), (2, -sgn), (1, e2 + sgn)",
        ["braid", "reduce", "abAbaBBAbaBabA"],
        f"{_GOLDEN}[braid_reduce]",
    ),
    # Proposition 4.3 pairs O1 with the conjugators that commute with s2
    Mutant(
        "prop43_swapped_klein_ordering",
        "src/locert/compat.py",
        "elif braid.commutes_with_sigma2(conjugator):",
        "elif not braid.commutes_with_sigma2(conjugator):",
        ["verify", "proposition-4-3", "--samples", "6", "--seed", "5",
         "--grid-bound", "3", "--max-len", "6", "--verbose-cases"],
        f"{_GOLDEN}[verify_prop43]",
    ),
    # phi(s2) = y^-1, so s2^k Delta^2l maps to x^2l y^(-k-l)
    Mutant(
        "phi_peripheral_sigma2_image",
        "src/locert/compat.py",
        "return KleinElement(2 * l, -k - l)",
        "return KleinElement(2 * l, k - l)",
        ["verify", "proposition-4-3", "--samples", "6", "--seed", "5",
         "--grid-bound", "3", "--max-len", "6", "--verbose-cases"],
        "tests/test_compat.py::test_phi_peripheral_examples",
    ),
    # a relator row holds exponent sums, so inverse letters count -1
    Mutant(
        "abelianize_inverse_letters",
        "src/locert/fpgroup.py",
        "row[abs(x) - 1] += 1 if x > 0 else -1",
        "row[abs(x) - 1] += 1",
        ["group", "abelianize", "../../../src/locert/data/plus4_figure_eight_pi1.json"],
        "tests/test_fpgroup.py::test_abelianization_examples",
    ),
    # the backward scan walks the inverse column
    Mutant(
        "coset_backward_scan_column",
        "src/locert/fpgroup.py",
        "nxt = table[b][word[j] ^ 1]",
        "nxt = table[b][word[j]]",
        ["group", "enumerate", "s3.json"],
        f"{_GOLDEN}[group_enumerate]",
    ),
    # G = H - lc^s, whose resultant with Delta gives the order
    Mutant(
        "cover_order_g_sign",
        "src/locert/alexander.py",
        "g[0] -= lc**s",
        "g[0] += lc**s",
        ["cover", "order", "--poly", "t^2 - 3t + 1", "--n", "7"],
        f"{_GOLDEN}[cover_order]",
    ),
    # e is the degree of G, one less than its coefficient count
    Mutant(
        "cover_order_lc_shift",
        "src/locert/alexander.py",
        "shift = n - (len(g) - 1) - s * d",
        "shift = n - len(g) - s * d",
        ["cover", "order", "--poly", "2t^2 - 3t + 2", "--n", "3"],
        "tests/test_alexander.py::test_five_two_orders",
    ),
]

_COPIED = ("src", "tests", "perfbench", "pyproject.toml")
_RUNTIME = re.compile(r'("runtime_ms": )[-+0-9.eE]+')


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in _COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _env(copy: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _witness(copy: Path, argv: list[str]) -> tuple:
    """Exit code, masked stdout and stderr of one CLI query."""
    out = subprocess.run(
        [sys.executable, "-m", "locert.cli", *argv], cwd=copy / "tests/golden/inputs",
        env=_env(copy), capture_output=True, text=True, timeout=120,
    )
    return out.returncode, _RUNTIME.sub(r"\1<masked>", out.stdout), out.stderr


def _pytest(copy: Path, *args: str) -> tuple[int, str]:
    """Exit code of a pytest run in ``copy`` and its first FAILED or ERROR line."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=_env(copy), capture_output=True, text=True, timeout=1800,
    )
    failed = [line for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return out.returncode, failed[0] if failed else ""


def apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text does not match exactly once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_mutant(mutant: Mutant) -> tuple[str, bool]:
    """(outcome line, whether the entry holds: killed by its killer and its
    witness changed)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        before = _witness(copy, mutant.witness)
        apply(copy, mutant)
        changed = _witness(copy, mutant.witness) != before
        note = "" if changed else "  (witness output unchanged)"
        code, _ = _pytest(copy, mutant.killer)
        if code == 1:  # pytest's code for a failed test
            return f"killed    {mutant.name}  by {mutant.killer}{note}", changed
        if code != 0:
            return f"error     {mutant.name}  killer run exited {code}{note}", False
        # test_mutants checks the sites in the copy, and the edit moved one
        code, failed = _pytest(copy, "--continue-on-collection-errors",
                               "--ignore=tests/test_mutants.py")
        if code != 0:
            return f"killed    {mutant.name}  elsewhere: {failed}{note}", False
        return f"survived  {mutant.name}{note}", False


def main() -> int:
    held = 0
    for mutant in MUTANTS:
        line, ok = run_mutant(mutant)
        held += ok
        print(line, flush=True)
    print(f"{held} of {len(MUTANTS)} mutants killed by their expected killer, "
          "each with a changed witness")
    return 0 if held == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
