"""Mechanized compatibility check for the trefoil / Klein-bottle gluing.

The graph manifold obtained by gluing the trefoil exterior (fundamental
group B3, peripheral subgroup <s2, Delta^2>) to the twisted I-bundle over
the Klein bottle (group K, peripheral subgroup <y, x^2>) along

    phi(s2) = y^-1,    phi(Delta^2) = y^-1 x^2

arises from +4-surgery on the figure-eight knot.  The slope-pair
certificate method cannot left-order its fundamental group: the Klein
side has a single left-orderable slope (y), whose pullback s2 normally
generates all of B3.  Orderability is instead certified through the
Bludov-Glass amalgamation criterion with the normal families

    L1 = all conjugates of the Dubrovina-Dubrovin ordering of B3,
    L2 = the two orderings O1, O2 of K,

and this module verifies the compatibility condition exhaustively on
peripheral grids: for each conjugator, every positive s2^k Delta^(2l)
must map to a positive element of K in the matching ordering, which is O2
when the conjugator does not commute with s2 and O1 when it does.  The
quantifier over the peripheral subgroup factors through the sign pattern
of (k, l), so a grid that hits every sign class covers the general case.

Both reports raise OverflowError past a cap: 2,000,000 conjugated grid
letters in all (before sampling), and a Klein-slope survey bound past 100.
"""

from __future__ import annotations

from typing import NamedTuple

from . import braid
from .fpgroup import Presentation, enumerate_table
from .klein import (
    KleinElement,
    KleinFillKind,
    KleinOrderingId,
    k_sign,
    klein_fill,
)
from .sampling import random_braid_words
from .slopes import primitive_slopes
from .words import GroupWord, Sign3, word_power

__all__ = [
    "CompatReport",
    "phi_peripheral",
    "verify_compatibility",
    "proposition_4_3_report",
    "jsjlo_nonapplicability_report",
]

# The caps: ``proposition_4_3_report`` counts (samples + 1) ((2B + 1)^2 - 1)
# (2 max_len + 7B) letters for grid bound B, the length of the conjugated
# grid words g^-1 w g, and ``jsjlo_nonapplicability_report`` surveys O(B^2)
# slopes for bound B.  ``braid.conj_sign`` builds no such word and walks
# |g| + |w| letters a point, so the letter cap over-counts the walk by up
# to max_len letters a point; the count is kept, so every request answers
# as before.
_MAX_GRID_LETTERS = 2_000_000
_MAX_SLOPE_BOUND = 100


def phi_peripheral(k: int, l: int) -> KleinElement:
    """Image of s2^k Delta^(2l) under the gluing: y^-k (y^-1 x^2)^l, which
    normalizes to x^(2l) y^(-k-l) since x^2 is central."""
    return KleinElement(2 * l, -k - l)


class CompatReport(NamedTuple):
    conjugator: str
    ordering: KleinOrderingId
    checked: int
    positives: int
    failures: tuple[tuple[int, int], ...]


def verify_compatibility(
    conjugator: GroupWord,
    grid_bound: int,
    force_ordering: KleinOrderingId | None = None,
) -> CompatReport:
    """Check, on the grid (k, l) in [-B, B]^2 minus the origin, that every
    peripheral element positive in the conjugated ordering maps to a
    positive element of K in the chosen ordering.

    ``force_ordering`` overrides the case split; forcing the wrong
    ordering is expected to produce failures and guards the test suite
    against sign-convention drift.

    The 2B + 1 powers of s2 and of Delta^2 are built once per call, and
    each grid point costs one ``braid.conj_sign``: a walk of the conjugator
    from the base point and of the grid word on from there, |g| + |w|
    letters, with no conjugated word built.
    """
    if grid_bound < 1:
        raise ValueError("grid_bound must be >= 1")
    if force_ordering is not None:
        ordering = force_ordering
    elif braid.commutes_with_sigma2(conjugator):
        ordering = KleinOrderingId.O1
    else:
        ordering = KleinOrderingId.O2
    failures = []
    checked = 0
    positives = 0
    span = range(-grid_bound, grid_bound + 1)
    delta_sq_powers = [word_power(braid.DELTA_SQ, l) for l in span]
    for k in span:
        s2_power = word_power(braid.SIGMA2, k)
        for l, delta_sq_power in zip(span, delta_sq_powers):
            if k == 0 and l == 0:
                continue
            checked += 1
            word = s2_power + delta_sq_power
            if braid.conj_sign(word, conjugator) is not Sign3.POSITIVE:
                continue
            positives += 1
            if k_sign(phi_peripheral(k, l), ordering) is not Sign3.POSITIVE:
                failures.append((k, l))
    return CompatReport(
        braid.word_str(conjugator),
        ordering,
        checked,
        positives,
        tuple(failures),
    )


def proposition_4_3_report(
    seed: int, samples: int, max_len: int, grid_bound: int, verbose_cases: bool
) -> dict:
    """``verify_compatibility`` on ``samples`` random conjugators of at most
    ``max_len`` letters drawn from ``seed``, and on s1 with O1 forced (the
    wrong-ordering control, which must fail); with ``verbose_cases``, one
    case per conjugator."""
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    if max_len < 0:
        raise ValueError("--max-len must be >= 0")
    if grid_bound < 1:
        raise ValueError("grid_bound must be >= 1")
    points = (samples + 1) * ((2 * grid_bound + 1) ** 2 - 1)
    if points * (2 * max_len + 7 * grid_bound) > _MAX_GRID_LETTERS:
        raise OverflowError(
            f"the conjugated grid words would pass the {_MAX_GRID_LETTERS}-letter cap"
        )
    failures = 0
    cases = [] if verbose_cases else None
    for word in random_braid_words(seed, samples, max_len):
        report = verify_compatibility(word, grid_bound)
        failures += len(report.failures)
        if cases is not None:
            cases.append({"conjugator": report.conjugator,
                          "ordering": report.ordering.value,
                          "failures": len(report.failures)})
    control = verify_compatibility(
        braid.SIGMA1, grid_bound, force_ordering=KleinOrderingId.O1
    )
    return {"total_failures": failures, "cases": cases,
            "wrong_ordering_control_failures": len(control.failures)}


def jsjlo_nonapplicability_report(slope_bound: int) -> dict:
    """Survey every primitive Klein-side slope with |m|, |n| <= bound,
    exhibit y as the unique left-orderable one, pull it back through the
    gluing to the meridian s2, and certify that B3 / <<s2>> is trivial by
    coset enumeration.  Slopes are taken up to sign, normalized to n > 0
    or (m, n) = (1, 0), and listed in (m, n) order."""
    # A bound below 1 surveys no slope, not even y = (1, 0).
    if slope_bound < 1:
        raise ValueError("slope_bound must be >= 1")
    if slope_bound > _MAX_SLOPE_BOUND:
        raise OverflowError(
            f"the slope bound passes the survey's cap of {_MAX_SLOPE_BOUND}"
        )

    survey = []
    lo_slopes = []
    for slope in sorted(primitive_slopes(slope_bound)):
        kind = klein_fill(slope).kind
        survey.append({"slope": list(slope), "classification": kind.value})
        if kind is KleinFillKind.INFINITE_CYCLIC_QUOTIENT_LO:
            lo_slopes.append(list(slope))

    # phi(s2^k Delta^2l) = y^(-k-l) x^2l, so the class of y pulls back to
    # the class of s2, the meridian of the trefoil.
    b3 = Presentation.parse(["s1", "s2"], ["s1 s2 s1 S2 S1 S2", "s2"])
    return {
        "klein_slopes": survey,
        "lo_slopes": lo_slopes,
        "pullback_slope": "s2 (the trefoil meridian)",
        "b3_quotient_index": enumerate_table(b3, [], max_cosets=1000).index,
        "conclusion": (
            "the unique left-orderable slope on the Klein-bottle side is y; its "
            "pullback through the gluing is the meridian s2, and B3/<<s2>> is "
            "the trivial group, which is not left-orderable; hence no slope "
            "pair is left-orderable on both sides and the slope-pair splice "
            "criterion cannot apply.  Orderability holds anyway through the "
            "Bludov-Glass compatibility of the conjugate-DD family with "
            "{O1, O2}, verified separately on peripheral grids."
        ),
    }
