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
        "return sum(m > 1 for m in self.multiplicities) < 3",
        "return sum(m > 1 for m in self.multiplicities) < 2",
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
    # Moser on a mirror: its p/q filling is the -p/q filling of the positive knot
    Mutant(
        "moser_mirror_chirality",
        "src/locert/seifert.py",
        "d = abs(piece.chirality * p - q * piece.r * piece.s)",
        "d = abs(p - q * piece.r * piece.s)",
        ["splice", "verify", "lspace_mirror_tree.json", "tampered_cert.json"],
        "tests/test_seifert.py::test_moser_fillings",
    ),
    # Moser's one reducible filling is p = qrs
    Mutant(
        "moser_reducible_shift",
        "src/locert/seifert.py",
        "if eff.p == eff.q * k.r * k.s:",
        "if eff.p == eff.q * k.r * k.s + 1:",
        ["splice", "verify", "lspace_splice_tree.json", "lspace_reducible_cert.json"],
        f"{_GOLDEN}[splice_verify_lspace_reducible]",
    ),
    # |p - qrs| = 1 is a lens space, here S^3, named Sigma(1)
    Mutant(
        "moser_lens_is_sigma_1",
        "src/locert/seifert.py",
        "if d > 1 else (1,)",
        "if d >= 1 else (1,)",
        ["splice", "verify", "lspace_splice_tree.json", "lspace_lens_cert.json"],
        f"{_GOLDEN}[splice_verify_lspace_lens]",
    ),
    # S^3 beside another component is no prime summand: an input error
    Mutant(
        "s3_summand_accepted",
        "src/locert/seifert.py",
        "if len(closed) + len(glued) > 1:",
        "if len(closed) + len(glued) > 2:",
        ["splice", "cert", "s3_summand_tree.json"],
        f"{_GOLDEN}[splice_cert_s3_summand]",
    ),
    # the shell walk yields primitive slopes only
    Mutant(
        "primitive_slopes_gcd_filter",
        "src/locert/slopes.py",
        "if gcd(p, m) == 1:",
        "if gcd(p, m) >= 1:",
        ["verify", "nonapplicability", "--slope-bound", "3"],
        "tests/test_seifert.py::test_enumerate_slopes_order",
    ),
    # -1/0 is the meridian 1/0
    Mutant(
        "make_slope_meridian_sign",
        "src/locert/slopes.py",
        "if q < 0 or (q == 0 and p < 0):",
        "if q < 0:",
        ["slope", "glue", "--matrix=-1,0,0,1", "1/0"],
        "tests/test_slopes.py::test_normalization",
    ),
    # a signed run of digits past the limit is too long, not unreadable
    Mutant(
        "parse_int_signed_too_long",
        "src/locert/words.py",
        'if digits[:1] in ("+", "-"):',
        'if digits[:1] == "+":',
        ["slope", "delta", "--", "-" + "1" * 4301, "1/1"],
        "tests/test_slopes.py::"
        "test_a_long_text_that_is_no_integer_gets_the_callers_message",
    ),
    # an unprintable result is a budget (inconclusive), not an input error
    Mutant(
        "int_str_overflow",
        "src/locert/words.py",
        "raise OverflowError(",
        "raise ValueError(",
        ["slope", "delta", "--", "1" + "0" * 2200 + "/1", "1/1" + "0" * 2200],
        f"{_GOLDEN}[slope_delta_too_large]",
    ),
    # on the ray (1, 1) the remainder a^-1 r is s2^(e - 2), which is >= 1 iff
    # e - 2 <= 0: the tie that ``braid_reduce`` meets
    Mutant(
        "dd_peel_base_ray_tie",
        "src/locert/braid.py",
        "not nx and e <= 2",
        "not nx and e < 2",
        ["braid", "reduce", "abAbaBBAbaBabA"],
        f"{_GOLDEN}[braid_reduce]",
    ),
    # a negative braid's form is the inverse of its inverse's peel
    Mutant(
        "dd_negative_inverts_the_peel",
        "src/locert/braid.py",
        "return invert_word(_peel(*_lift(inverse, _BASE), -k))",
        "return _peel(*_lift(inverse, _BASE), -k)",
        ["braid", "reduce", "BABABAbAbaBBAbB"],
        f"{_GOLDEN}[braid_reduce_order]",
    ),
    # only the base ray, not the whole base line, marks a power of s2:
    # s2^k Delta^2l with l != 0 is peeled
    Mutant(
        "dd_base_line_is_not_the_base_ray",
        "src/locert/braid.py",
        "if not x and not h:",
        "if not x:",
        ["braid", "reduce", "bbabaaba"],
        f"{_GOLDEN}[braid_reduce_peripheral]",
    ),
    # word_str's table maps each letter to its own character
    Mutant(
        "word_str_table_swaps_a_and_b",
        "src/locert/braid.py",
        'b"BA\\xffab"',
        'b"BA\\xffba"',
        ["braid", "reduce", "abAbaBBAbaBabA"],
        f"{_GOLDEN}[braid_reduce]",
    ),
    # every str.isspace character is dropped, not only the space
    Mutant(
        "parse_word_split_on_space",
        "src/locert/braid.py",
        "text.split()",
        'text.split(" ")',
        ["braid", "sign", " a\tb A \n"],
        f"{_GOLDEN}[braid_sign_whitespace]",
    ),
    # read_word's table maps a to s1 and A to its inverse
    Mutant(
        "read_word_table_swaps_a_and_A",
        "src/locert/braid.py",
        'b"\\xff\\xfe" + bytes(30) + b"\\x01\\x02"',
        'b"\\x01\\xfe" + bytes(30) + b"\\xff\\x02"',
        ["braid", "reduce", "abAbaBBAbaBabA"],
        f"{_GOLDEN}[braid_reduce]",
    ),
    # a bad first letter is refused, as a later one is
    Mutant(
        "read_word_bad_first_letter",
        "src/locert/braid.py",
        "if bad >= 0:",
        "if bad > 0:",
        ["braid", "sign", "xyz"],
        f"{_GOLDEN}[braid_bad_letter]",
    ),
    # the inverse word reads the letters last to first
    Mutant(
        "invert_word_reverses",
        "src/locert/words.py",
        "tuple(map(neg, reversed(word)))",
        "tuple(map(neg, word))",
        ["braid", "reduce", "BABABAbAbaBBAbB"],
        f"{_GOLDEN}[braid_reduce_order]",
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
    # Delta^2l moves a lifted point on by l half-turns, not back
    Mutant(
        "conj_sign_delta_half_turns",
        "src/locert/braid.py",
        "h + l",
        "h - l",
        ["verify", "proposition-4-3", "--samples", "6", "--seed", "5",
         "--grid-bound", "3", "--max-len", "6", "--verbose-cases"],
        f"{_GOLDEN}[verify_prop43]",
    ),
    # s2^k sets y -= k x, as s2 sets y -= x in the lift
    Mutant(
        "conj_sign_sigma2_shear",
        "src/locert/braid.py",
        "y - k * x",
        "y + k * x",
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
    # the grid leaves out the origin only: the axes k = 0 and l = 0 stay
    Mutant(
        "prop43_grid_origin_only",
        "src/locert/compat.py",
        "for l in span if k or l)",
        "for l in span if k and l)",
        ["verify", "proposition-4-3", "--samples", "6", "--seed", "5",
         "--grid-bound", "3", "--max-len", "6", "--verbose-cases"],
        f"{_GOLDEN}[verify_prop43]",
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
    # SNF folds a row the pivot does not divide, so Z/2 + Z/3 reads [6]
    Mutant(
        "snf_divisibility_fold",
        "src/locert/fpgroup.py",
        "if m[i][j] % pivot != 0:",
        "if m[i][j] % pivot != 0 and False:",
        ["group", "abelianize", "z6.json"],
        "tests/test_fpgroup.py::test_smith_normal_form_known_values",
    ),
    # the backward scan walks the inverse column
    Mutant(
        "coset_backward_scan_column",
        "src/locert/fpgroup.py",
        "nxt = backward[j][b]",
        "nxt = forward[j][b]",
        ["group", "enumerate", "s3.json"],
        f"{_GOLDEN}[group_enumerate]",
    ),
    # a relator cycle that is complete but ends off alpha is a coincidence
    Mutant(
        "coset_closed_cycle_off_alpha",
        "src/locert/fpgroup.py",
        "if f == alpha:  # the relator cycle closes at alpha",
        "if True:  # the relator cycle closes at alpha",
        ["verify", "nonapplicability", "--slope-bound", "3"],
        "tests/test_fpgroup.py::test_column_table_matches_the_row_major_oracle",
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
    # a gluing matrix is unimodular: determinant 0 is refused too
    Mutant(
        "apply_gluing_singular",
        "src/locert/slopes.py",
        "if abs(m.det()) != 1:",
        "if abs(m.det()) > 1:",
        ["slope", "glue", "--matrix", "1,0,0,0", "1/1"],
        "tests/test_slopes.py::test_apply_gluing_examples",
    ),
    # a bare integer p is the slope p/1
    Mutant(
        "parse_slope_bare_integer",
        "src/locert/slopes.py",
        "if slash else 1)",
        "if slash else 0)",
        ["slope", "delta", "3", "1/2"],
        "tests/test_slopes.py::test_parse_and_format",
    ),
    # an echo of exactly 40 characters is shown whole
    Mutant(
        "brief_repr_cut_boundary",
        "src/locert/words.py",
        "return text if len(text) <= _ECHO_CHARS",
        "return text if len(text) < _ECHO_CHARS",
        ["slope", "delta", "z" * 38, "1/1"],
        "tests/test_slopes.py::test_brief_repr_echoes_only_the_start",
    ),
    # s1 moving x from below 0 onto the base line is a half-turn
    Mutant(
        "lift_half_open_onto_base_line",
        "src/locert/braid.py",
        "if x < 0 <= new or new <= 0 < x:",
        "if x < 0 < new or new <= 0 < x:",
        ["braid", "sign", "aA"],
        "tests/test_braid.py::test_lift_examples",
    ),
    # a prime user piece may not deny its own 0-filling
    Mutant(
        "prime_not_lo_checks_the_meridian",
        "src/locert/seifert.py",
        "statuses.get(Slope(0, 1)) is _NOT_LO",
        "statuses.get(Slope(1, 0)) is _NOT_LO",
        ["splice", "cert", "prime_not_lo_tree.json"],
        f"{_GOLDEN}[splice_cert_prime_not_lo]",
    ),
    # the B1 rule needs a prime 0-filling, which a user piece only asserts
    Mutant(
        "user_b1_needs_primeness",
        "src/locert/seifert.py",
        "if p == 0 and piece.prime_zero_filling:",
        "if p == 0:",
        ["splice", "cert", "user_zero_filling_not_prime_tree.json"],
        f"{_GOLDEN}[splice_cert_user_zero_filling_not_prime]",
    ),
    # p/q = rs - r - s is an L-space filling: the interval is closed
    Mutant(
        "lspace_threshold_inclusive",
        "src/locert/seifert.py",
        "not_lo = eff.p >= threshold * eff.q",
        "not_lo = eff.p > threshold * eff.q",
        ["splice", "cert", "lspace_threshold_tree.json", "--bound", "3"],
        f"{_GOLDEN}[splice_cert_lspace_threshold]",
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
