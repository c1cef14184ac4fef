"""Slope calculus on torus boundaries.

A slope is a primitive class p*mu + q*lambda in the peripheral lattice,
kept projectively: we normalize q >= 0, with (1, 0) for the trivial
filling slope.  Slopes are column vectors and gluing matrices act on the
left; all arithmetic is exact.

With lambda the longitude (the class that bounds), |H1| of the filling
along p/q is |p|, and for a union along a gluing f the first homology has
order Delta(f(lambda_1), lambda_2), the minimal geometric intersection
number of the glued longitudes; value 0 encodes infinite homology in both
cases.

``primitive_slopes(bound)`` walks the normalized slopes with |p|, q <=
bound in the order (max(|p|, q), q, p), one shell max(|p|, q) = m at a
time, lazily; the splice certificate search tries them in that order, and
the Klein-bottle survey sorts them into (p, q) order.

``hf_surgery_rank(p, q, nu, ranks)`` is the rational surgery formula for
the total Heegaard Floer rank of the p/q surgery on a knot; it is at least
|p|, with equality exactly at the L-space slopes.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd
from typing import NamedTuple

from .words import brief_repr, int_str, parse_int

__all__ = [
    "Slope",
    "GluingMatrix",
    "make_slope",
    "parse_slope",
    "slope_str",
    "primitive_slopes",
    "intersection_number",
    "apply_gluing",
    "invert_gluing",
    "union_homology_order",
    "hf_surgery_rank",
]


class Slope(NamedTuple):
    p: int
    q: int


# Builds a NamedTuple without its Python-level __new__, the construction
# convention stated at ``seifert.LOSlopeVerdict``: here for the slopes that
# ``make_slope`` and ``primitive_slopes`` return, and imported by
# ``seifert`` for its verdicts.
_new_tuple = tuple.__new__
# The longitude 0/1, which bounds in the knot exterior (also the B1 rule's
# slope and the second splice candidate in ``seifert``).
_LONGITUDE = _new_tuple(Slope, (0, 1))


class GluingMatrix(NamedTuple):
    """Row-major 2x2 integer matrix ((a, b), (c, d)) acting on column
    vectors (p, q)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c


def make_slope(p: int, q: int) -> Slope:
    """Normalize to the canonical projective representative: gcd 1, q >= 0,
    and (1, 0) when q = 0."""
    if p == 0 and q == 0:
        raise ValueError("slope (0, 0) is not primitive")
    g = gcd(p, q)
    if g != 1:
        raise ValueError(f"slope {brief_repr((p, q))} is not primitive")
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _new_tuple(Slope, (p, q))


def parse_slope(text: str) -> Slope:
    p_txt, slash, q_txt = text.partition("/")
    message = f"cannot parse slope {brief_repr(text)}: expected p/q or p"
    p = parse_int(p_txt, message)
    return make_slope(p, parse_int(q_txt, message) if slash else 1)


def slope_str(s: Slope) -> str:
    """``p/q``; OverflowError (``int_str``) past the digit limit."""
    try:
        return f"{s.p}/{s.q}"
    except ValueError:  # str() refuses an int past the digit limit
        return f"{int_str(s.p)}/{int_str(s.q)}"


def primitive_slopes(bound: int) -> Iterator[Slope]:
    """All normalized primitive slopes with |p| <= bound and 0 <= q <=
    bound, in the deterministic order (max(|p|, q), q, p) that the search
    commits to.  Generated shell by shell in that order, so nothing is
    sorted or stored: shell m holds -m/q and m/q for q < m, then p/m for
    -m <= p <= m."""
    new, slope = _new_tuple, Slope  # locals: read once per slope yielded
    if bound >= 1:
        yield new(slope, (1, 0))
    for m in range(1, bound + 1):
        for q in range(1, m):
            if gcd(m, q) == 1:
                yield new(slope, (-m, q))
                yield new(slope, (m, q))
        for p in range(-m, m + 1):
            if gcd(p, m) == 1:
                yield new(slope, (p, m))


def intersection_number(alpha: Slope, beta: Slope) -> int:
    """Delta(alpha, beta) = |p q' - p' q|; zero iff projectively equal."""
    return abs(alpha.p * beta.q - beta.p * alpha.q)


def _require_unimodular(m: GluingMatrix) -> None:
    if abs(m.det()) != 1:
        raise ValueError(
            f"matrix {brief_repr(tuple(m))} has determinant {brief_repr(m.det())}"
        )


def apply_gluing(m: GluingMatrix, alpha: Slope) -> Slope:
    _require_unimodular(m)
    return make_slope(m.a * alpha.p + m.b * alpha.q, m.c * alpha.p + m.d * alpha.q)


def invert_gluing(m: GluingMatrix) -> GluingMatrix:
    _require_unimodular(m)
    e = m.det()
    return GluingMatrix(e * m.d, -e * m.b, -e * m.c, e * m.a)


def union_homology_order(f: GluingMatrix) -> int:
    """|H1| of the union of two knot exteriors glued by f: Delta(f(lambda),
    lambda) for the longitude lambda = 0/1 of each side, with 0 meaning
    positive first Betti number and 1 certifying an integer homology
    sphere."""
    return intersection_number(apply_gluing(f, _LONGITUDE), _LONGITUDE)


def hf_surgery_rank(p: int, q: int, nu: int, ranks: tuple[int, ...]) -> int:
    """Total Heegaard Floer rank of the p/q surgery (q > 0) on a knot with
    the nonnegative invariant nu and large-surgery homology ranks ``ranks``
    (all >= 1).

    For nu > 0 the formula reads
        p + 2 max(0, (2 nu - 1) q - p) + q * sum(rank - 1),
    and for nu = 0 it collapses to |p| + q * sum(rank - 1).  The value is
    always >= |p|, with equality characterizing L-space surgeries.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if any(r < 1 for r in ranks):
        raise ValueError("all ranks must be >= 1")
    extra = q * sum(r - 1 for r in ranks)
    if nu == 0:
        return abs(p) + extra
    return p + 2 * max(0, (2 * nu - 1) * q - p) + extra
