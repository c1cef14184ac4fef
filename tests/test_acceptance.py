"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Budgets are asserted where the criterion states one.
"""

import copy
import random
import time
from contextlib import contextmanager

from bundled import data_file
from locert import braid
from locert.braid import (
    SIGMA1,
    SIGMA2,
    Ordering,
    conj_sign,
    dd_compare,
    dd_sign,
    handle_reduce,
    is_trivial,
)
from locert.compat import verify_compatibility
from locert.fpgroup import Presentation, check_closed_table, enumerate_table
from locert.klein import KleinElement, KleinOrderingId, k_sign
from locert.alexander import branched_cover_order, evaluate_at_int, parse_poly
from locert.sampling import random_braid_word
from locert.seifert import (
    BrieskornZHS,
    LOStatus,
    SpliceTree,
    TorusKnotPiece,
    certificate_search,
    slope_lo_verdict,
    torus_knot_lspace_verdict,
    verify_certificate,
    zhs_lo_status,
)
from locert.slopes import hf_surgery_rank, make_slope, primitive_slopes
from locert.words import Sign3, invert_word, word_power
from test_braid import DELTA_SQ
from test_klein import k_conjugate_ordering, k_inverse, k_multiply


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:2d} FAIL {description} ({elapsed * 1000:.1f} ms)")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} exceeded budget: {elapsed:.3f}s >= {budget_s}s"
        )
    print(f"ACCEPTANCE {number:2d} PASS {description} ({elapsed * 1000:.1f} ms)")


def test_criterion_1_union_abelianization():
    pres = Presentation.from_json(data_file("plus4_figure_eight_pi1.json"))
    from locert.fpgroup import abelianization

    abelianization(pres)  # warm any lazy setup before timing
    with criterion(1, "union presentation abelianizes to Z/4Z", 0.010):
        ab = abelianization(pres)
        assert ab.free_rank == 0
        assert ab.torsion == (4,)


def test_criterion_2_meridian_quotient_trivial():
    pres = Presentation.parse(["s1", "s2"], ["s1 s2 s1 S2 S1 S2", "s2"])
    with criterion(2, "coset enumeration certifies B3/<<s2>> trivial", 0.100):
        closed = enumerate_table(pres, [], 10_000)
        assert closed is not None
        assert closed.index == 1
        assert check_closed_table(pres, [], closed)


def test_criterion_3_dd_ordering_suite():
    rng = random.Random(303)
    with criterion(
        3, "DD trichotomy / cone closure / left invariance, 1000 each", 5.0
    ):
        for _ in range(1000):
            w = random_braid_word(rng, 20)
            sign = dd_sign(w)
            anti = dd_sign(invert_word(w))
            if sign is Sign3.TRIVIAL:
                assert anti is Sign3.TRIVIAL and is_trivial(w)
            else:
                assert {sign, anti} == {Sign3.POSITIVE, Sign3.NEGATIVE}
        pairs = 0
        while pairs < 1000:
            u = random_braid_word(rng, 20)
            v = random_braid_word(rng, 20)
            if dd_sign(u) is Sign3.POSITIVE and dd_sign(v) is Sign3.POSITIVE:
                assert dd_sign(u + v) is Sign3.POSITIVE
                pairs += 1
        for _ in range(1000):
            f = random_braid_word(rng, 20)
            u = random_braid_word(rng, 20)
            v = random_braid_word(rng, 20)
            assert dd_compare(u, v) is dd_compare(f + u, f + v)


def test_criterion_4_conjugate_bound():
    rng = random.Random(304)
    with criterion(
        4, "Delta^-2 < b^-1 s2^k b < Delta^2 for 500 braids, k in [-5,5]", 10.0
    ):
        for _ in range(500):
            beta = random_braid_word(rng, 8)
            beta_inv = invert_word(beta)
            for k in range(-5, 6):
                conj = beta_inv + word_power(SIGMA2, k) + beta
                assert dd_compare(word_power(DELTA_SQ, -1), conj) is Ordering.LESS
                assert dd_compare(conj, DELTA_SQ) is Ordering.LESS


def test_criterion_5_conjugate_restriction_grid():
    rng = random.Random(305)
    with criterion(
        5, "conjugated DD restriction matches conj_sign on [-4,4]^2, 200 conjugators"
    ):
        for _ in range(200):
            gamma = random_braid_word(rng, 10)
            # The restriction lemma: Delta^2 dominates, and s2's sign flips
            # exactly when gamma lies outside <s2, Delta^2>.
            s2_sign = -1 if braid.commutes_with_sigma2(gamma) else 1
            start = braid.lifted_point(gamma)
            for k in range(-4, 5):
                for l in range(-4, 5):
                    if k == 0 and l == 0:
                        continue
                    expected = l > 0 if l else s2_sign * k > 0
                    actual = conj_sign(k, l, start) is Sign3.POSITIVE
                    assert actual == expected, (gamma, k, l)


def test_criterion_6_compatibility_proposition():
    rng = random.Random(306)
    with criterion(
        6, "compatibility holds for 200 conjugators at bound 5; control fails"
    ):
        for _ in range(200):
            gamma = random_braid_word(rng, 10)
            report = verify_compatibility(gamma, 5)
            assert not report.failures, report.conjugator
            expected_ordering = (
                KleinOrderingId.O1
                if braid.commutes_with_sigma2(gamma)
                else KleinOrderingId.O2
            )
            assert report.ordering is expected_ordering
        control = verify_compatibility(
            SIGMA1, 5, force_ordering=KleinOrderingId.O1
        )
        assert len(control.failures) >= 1


def test_criterion_7_word_problem_cross_validation():
    rng = random.Random(307)
    with criterion(
        7, "handle reduction agrees with the modular quotient on 2000 words", 30.0
    ):
        for _ in range(2000):
            w = random_braid_word(rng, 64)
            # the step cap must never be approached
            reduced = handle_reduce(w)
            assert (reduced == ()) == is_trivial(w)


def test_criterion_8_klein_normality_exhaustive():
    with criterion(8, "Klein conjugation swaps O1/O2 exactly by parity, |a|,|b| <= 6"):
        for a in range(-6, 7):
            for b in range(-6, 7):
                g = KleinElement(a, b)
                for ordering in (KleinOrderingId.O1, KleinOrderingId.O2):
                    conjugated = k_conjugate_ordering(g, ordering)
                    if a % 2 == 0:
                        assert conjugated is ordering
                    else:
                        assert conjugated is not ordering
                    # cone-level agreement on the same grid
                    for c in range(-6, 7):
                        for d in range(-6, 7):
                            h = KleinElement(c, d)
                            pulled = k_multiply(k_multiply(k_inverse(g), h), g)
                            assert k_sign(h, conjugated) is k_sign(pulled, ordering)


def test_criterion_9_fox_formula():
    conway = parse_poly("1")
    trefoil = parse_poly("t^2 - t + 1")
    fig8 = parse_poly("t^2 - 3t + 1")
    branched_cover_order(conway, 2)  # warm-up outside the timed window
    with criterion(9, "branched-cover orders: Conway, trefoil, figure eight", 0.100):
        for n in range(2, 13):
            assert branched_cover_order(conway, n) == 1
        assert branched_cover_order(trefoil, 2) == 3
        assert branched_cover_order(trefoil, 6) is None
        assert branched_cover_order(fig8, 2) == 5
        for poly in (trefoil, fig8):
            assert branched_cover_order(poly, 2) == abs(evaluate_at_int(poly, -1))


def test_criterion_10_double_trefoil_certificate():
    tree = SpliceTree.from_json(data_file("double_trefoil_splice.json"))
    with criterion(10, "double-trefoil splice certificate found and verified", 1.0):
        outcome = certificate_search(tree, search_bound=3)
        assert outcome.status is LOStatus.LO
        record = outcome.certificate
        edge = record["components"][0]["edge_certificate"]
        assert edge["verdict_a"]["status"] == LOStatus.LO.value
        assert edge["verdict_b"]["status"] == LOStatus.LO.value
        ok, report = verify_certificate(tree, record)
        assert ok, report
        tampered = copy.deepcopy(record)
        tampered["components"][0]["edge_certificate"].update(alpha="1/1", image="1/1")
        ok, _ = verify_certificate(tree, tampered)
        assert not ok


def test_criterion_11_slope_corollary_shapes():
    trefoil = TorusKnotPiece(2, 3, 1)
    with criterion(11, "slope families finite/cofinite; rules agree with each "
                          "other and with the HF rank"):
        not_lo = set()
        for n in range(-10, 11):
            slope = make_slope(1, n) if n >= 0 else make_slope(-1, -n)
            if slope_lo_verdict(trefoil, slope).status is LOStatus.NOT_LO:
                not_lo.add(n)
        # finite, and only the trivial and +1 fillings fail
        assert not_lo == {0, 1}
        for n in range(-10, 0):
            assert slope_lo_verdict(trefoil, make_slope(n, 1)).status is LOStatus.LO
        # where both the homology-sphere classification and the L-space
        # interval apply, they agree; Moser's multiplicities (r, s, |cp - qrs|)
        # are the oracle
        disagreements = 0
        for chirality in (1, -1):
            knot = TorusKnotPiece(2, 3, chirality)
            for p in (1, -1):
                for q in range(0, 11):
                    d = abs(chirality * p - q * 6)
                    if d <= 1:
                        continue
                    zhs = zhs_lo_status(BrieskornZHS((2, 3, d)))
                    interval = torus_knot_lspace_verdict(knot, make_slope(p, q))
                    if zhs.status is not interval.status:
                        disagreements += 1
        assert disagreements == 0
        # Heegaard Floer: the filling is an L-space (rank |p|, with nu = g and
        # every large-surgery rank 1) iff the rule table answers not_lo
        checked = reducible = 0
        for r, s in ((2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (4, 5)):
            genus = (r - 1) * (s - 1) // 2
            for chirality in (1, -1):
                knot = TorusKnotPiece(r, s, chirality)
                for slope in primitive_slopes(20):
                    if slope.q == 0:
                        continue
                    verdict = slope_lo_verdict(knot, slope)
                    if verdict.status is LOStatus.UNKNOWN:
                        reducible += 1
                        continue
                    rank = hf_surgery_rank(chirality * slope.p, slope.q, genus, (1,))
                    lspace = rank == abs(slope.p)
                    assert lspace == (verdict.status is LOStatus.NOT_LO), (knot, slope)
                    checked += 1
        # one reducible slope rs/1 (c rs/1 on the mirror) per knot and chirality
        assert (checked, reducible) == (6120, 12)


def test_criterion_12_surgery_rank_sweep():
    with criterion(12, "surgery rank >= |p| on a 10^4 sweep; -3 maps to 5", 1.0):
        assert hf_surgery_rank(-3, 1, 1, (1,)) == 5
        count = 0
        rank_patterns = [(1,), (1, 1), (2,), (3, 1), (2, 2)]
        for p in range(-125, 125):
            for q in range(1, 9):
                for nu in range(0, 5):
                    ranks = rank_patterns[(p + q + nu) % len(rank_patterns)]
                    value = hf_surgery_rank(p, q, nu, ranks)
                    assert value >= abs(p)
                    if p < 0 and nu > 0:
                        assert value > abs(p)
                    count += 1
        assert count == 10_000
