"""Orderings compatibility for the trefoil / Klein-bottle gluing."""

import io
import json
import random
from math import gcd

import pytest

from locert import compat
from locert.braid import (
    DELTA_SQ,
    SIGMA1,
    SIGMA2,
    commutes_with_sigma2,
    conj_sign,
    delta_floor,
    is_trivial,
    parse_word,
)
from locert.cli import run
from locert.compat import (
    jsjlo_nonapplicability_report,
    phi_peripheral,
    proposition_4_3_report,
    verify_compatibility,
)
from locert.klein import KleinElement, KleinOrderingId, k_sign
from locert.sampling import random_braid_words
from locert.slopes import make_slope
from locert.words import Sign3, invert_word, word_power
from test_klein import k_multiply


def test_phi_peripheral_examples():
    assert phi_peripheral(1, 0) == KleinElement(0, -1)
    assert phi_peripheral(0, 1) == KleinElement(2, -1)
    assert phi_peripheral(0, 0) == KleinElement(0, 0)


def test_phi_peripheral_is_a_homomorphism():
    rng = random.Random(6001)
    for _ in range(100):
        k1, l1, k2, l2 = (rng.randint(-6, 6) for _ in range(4))
        combined = phi_peripheral(k1 + k2, l1 + l2)
        product = k_multiply(phi_peripheral(k1, l1), phi_peripheral(k2, l2))
        assert combined == product


def test_klein_ordering_choice():
    assert verify_compatibility(SIGMA1, 1).ordering is KleinOrderingId.O2
    assert verify_compatibility(parse_word("bbb"), 1).ordering is KleinOrderingId.O1
    assert verify_compatibility(DELTA_SQ, 1).ordering is KleinOrderingId.O1


def test_choice_is_o1_iff_commutes_with_sigma2():
    for word in random_braid_words(6002, 40, 10):
        chosen = verify_compatibility(word, 1).ordering
        assert (chosen is KleinOrderingId.O1) == commutes_with_sigma2(word)


def test_compatibility_key_conjugators():
    assert verify_compatibility(SIGMA1, 4).failures == ()
    assert verify_compatibility((), 4).failures == ()
    assert verify_compatibility(DELTA_SQ, 4).failures == ()


def test_compatibility_sampled_conjugators():
    for word in random_braid_words(6003, 60, 10):
        report = verify_compatibility(word, 5)
        assert report.failures == (), report.conjugator
        # both sign classes of the grid get exercised
        assert report.positives == report.checked // 2


def test_wrong_ordering_control():
    report = verify_compatibility(SIGMA1, 4, force_ordering=KleinOrderingId.O1)
    assert (1, 0) in report.failures
    # and for a commuting conjugator the wrong choice is O2
    report = verify_compatibility((), 4, force_ordering=KleinOrderingId.O2)
    assert report.failures


def _row_signs(conjugator, bound):
    """The grid's signs by rows: g^-1 s2^k Delta^2l g = x_k Delta^2l with
    x_k = g^-1 s2^k g, since Delta^2 is central.  With m the Delta^2 floor
    of x_k, x_k Delta^2l is positive iff l > -m, or l = -m and x_k is not
    Delta^2m itself, and trivial iff l = -m and it is."""
    signs = {}
    for k in range(-bound, bound + 1):
        row = invert_word(conjugator) + word_power(SIGMA2, k) + conjugator
        m = delta_floor(row)
        exact = is_trivial(row + word_power(DELTA_SQ, -m))
        for l in range(-bound, bound + 1):
            if k == 0 and l == 0:
                continue
            if l == -m:
                signs[k, l] = Sign3.TRIVIAL if exact else Sign3.POSITIVE
            else:
                signs[k, l] = Sign3.POSITIVE if l > -m else Sign3.NEGATIVE
    return signs


def test_row_floors_reproduce_the_grid():
    bound = 5
    conjugators = random_braid_words(6004, 24, 12) + [(), SIGMA1, SIGMA2]
    cases = [(g, None) for g in conjugators] + [(SIGMA1, KleinOrderingId.O1)]
    for conjugator, forced in cases:
        signs = _row_signs(conjugator, bound)
        for (k, l), sign in signs.items():
            word = word_power(SIGMA2, k) + word_power(DELTA_SQ, l)
            assert conj_sign(word, conjugator) is sign, (conjugator, k, l)
        report = verify_compatibility(conjugator, bound, force_ordering=forced)
        positive = [point for point, sign in signs.items() if sign is Sign3.POSITIVE]
        failures = tuple(
            point for point in positive
            if k_sign(phi_peripheral(*point), report.ordering)
            is not Sign3.POSITIVE
        )
        assert (report.checked, report.positives, report.failures) == (
            len(signs), len(positive), failures)


def test_report_serialization():
    report = verify_compatibility(SIGMA1, 3)
    assert report.ordering is KleinOrderingId.O2
    assert report.failures == ()
    assert report.checked == 48
    # `verify proposition-4-3 --verbose-cases` serializes one case per report
    buf = io.StringIO()
    argv = ["verify", "proposition-4-3", "--samples", "4", "--seed", "2",
            "--grid-bound", "3", "--verbose-cases"]
    assert run(argv, out=buf) == 0
    cases = json.loads(buf.getvalue())["payload"]["cases"]
    words = random_braid_words(2, 4, 10)
    assert len(cases) == len(words)
    for case, word in zip(cases, words):
        report = verify_compatibility(word, 3)
        assert case == {
            "conjugator": report.conjugator,
            "ordering": report.ordering.value,
            "failures": len(report.failures),
        }


def test_nonapplicability_report():
    report = jsjlo_nonapplicability_report(5)
    # y is the unique left-orderable slope on the Klein side
    assert report["lo_slopes"] == [[1, 0]]
    assert len(report["klein_slopes"]) == 40
    assert report["b3_quotient_index"] == 1
    assert "s2" in report["pullback_slope"]
    assert "trivial group" in report["conclusion"]
    assert not commutes_with_sigma2(SIGMA1)


def test_nonapplicability_survey_lists_each_slope_once_in_order():
    # The survey's (m, n) ranges against normalizing every primitive (m, n)
    # with |m|, |n| <= bound up to sign, deduplicating and sorting.
    for bound in range(1, 8):
        normalized = {
            tuple(make_slope(m, n))
            for m in range(-bound, bound + 1)
            for n in range(-bound, bound + 1)
            if gcd(m, n) == 1
        }
        surveyed = jsjlo_nonapplicability_report(bound)["klein_slopes"]
        assert [tuple(s["slope"]) for s in surveyed] == sorted(normalized)


def _refuse(*args):
    raise AssertionError("the work started")


def test_nonapplicability_slope_bound_cap(monkeypatch):
    # answered before the survey calls klein_fill
    monkeypatch.setattr(compat, "klein_fill", _refuse)
    with pytest.raises(OverflowError, match="^the slope bound passes the survey's cap of 100$"):
        jsjlo_nonapplicability_report(101)


def test_verify_compatibility_checks_its_grid_bound():
    # its own check, not only the report's: the grid needs B >= 1
    for grid_bound in (0, -1):
        with pytest.raises(ValueError, match="^grid_bound must be >= 1$"):
            verify_compatibility(SIGMA1, grid_bound)


def test_proposition_4_3_report_checks_input_then_its_cap(monkeypatch):
    # each input check answers before the cap, which every one of these
    # requests would pass, and the cap answers before any sampling
    monkeypatch.setattr(compat, "random_braid_words", _refuse)
    for args, message in (((0, 1, 10**6), "--samples must be >= 1"),
                          ((1, -1, 10**6), "--max-len must be >= 0"),
                          ((1, 10**22, -(10**21)), "grid_bound must be >= 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            proposition_4_3_report(0, *args, False)
    # 2 conjugators x 8 grid points x (2 x 62497 + 7) letters: 16 past the cap
    with pytest.raises(OverflowError, match="^the conjugated grid words would pass "
                                            "the 2000000-letter cap$"):
        proposition_4_3_report(0, 1, 62497, 1, False)

