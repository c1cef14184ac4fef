"""The Klein-bottle group K = <x, y | x y x^-1 = y^-1>.

Every element has a unique normal form x^a y^b, and the relation forces
the group law (a, b)(c, d) = (a + c, (-1)^c b + d).  K is the fundamental
group of the twisted I-bundle over the Klein bottle, with peripheral
subgroup <y, x^2>.

Two left orderings are of interest, both built from the short exact
sequence 1 -> <<y>> -> K -> <x> -> 1: an element is positive when it maps
to a positive power of x, and the orderings differ on the kernel, where
y is positive in the first ordering and negative in the second.  The pair
is closed under conjugation: conjugating by x^a y^b swaps the two
orderings exactly when a is odd (x inverts y; y-conjugation and the
central x^2 fix both cones).  No command multiplies or conjugates, so
the group law and this closure live in the tests, which check them on
the normal form.

This layer imports only ``slopes`` and ``words``: its orderings meet those
of B3 only in ``compat``, through the gluing.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .slopes import Slope, brief_repr, int_str, make_slope, parse_int
from .words import Sign3

__all__ = [
    "KleinElement",
    "KleinOrderingId",
    "KleinFillKind",
    "KleinFillResult",
    "k_sign",
    "klein_fill",
    "parse_element",
    "element_str",
]


class KleinElement(NamedTuple):
    """Normal form x^a y^b."""

    a: int
    b: int


class KleinOrderingId(Enum):
    O1 = "O1"  # y positive on the kernel
    O2 = "O2"  # y negative on the kernel


class KleinFillKind(Enum):
    INFINITE_CYCLIC_QUOTIENT_LO = "infinite_cyclic_quotient_lo"
    FREE_PRODUCT_OF_FINITE_NOT_LO = "free_product_of_finite_not_lo"
    FINITE_NOT_LO = "finite_not_lo"


class KleinFillResult(NamedTuple):
    """Kind, abelian invariants (Z^free_rank plus torsion) and a note."""

    kind: KleinFillKind
    free_rank: int
    torsion: tuple[int, ...]
    note: str


IDENTITY = KleinElement(0, 0)


def k_sign(g: KleinElement, ordering: KleinOrderingId) -> Sign3:
    """Sign of g in the chosen ordering; trichotomy is immediate from the
    normal form."""
    if g.a != 0:
        return Sign3.POSITIVE if g.a > 0 else Sign3.NEGATIVE
    if g.b == 0:
        return Sign3.TRIVIAL
    positive = g.b > 0 if ordering is KleinOrderingId.O1 else g.b < 0
    return Sign3.POSITIVE if positive else Sign3.NEGATIVE


def klein_fill(slope: Slope) -> KleinFillResult:
    """Classify the Dehn filling of the twisted I-bundle along the slope
    (m, n), the class y^m x^(2n) of the peripheral subgroup <y, x^2>.  The
    pair need not be normalized: (m, n) and (-m, -n) fill alike, and
    ``slopes.make_slope`` raises ValueError unless it is primitive.

    The slope y gives the infinite cyclic quotient <x>, the only filling
    with left-orderable fundamental group.  The slope x^2 gives the
    infinite dihedral group Z/2 * Z/2 (set x^2 = 1: then (xy)^2 = 1 as
    well), which has torsion.  Every other primitive slope gives a finite
    group: killing y^m x^(2n) with m, n nonzero forces x^(4n) = 1 and
    y^(2m) = 1, leaving a quotient of order 4|mn|, which ``slopes.int_str``
    prints (OverflowError past the digit limit).

    The abelianization is Z^2 modulo the exponent sums in (x, y) of the
    relators x y x^-1 y and y^m x^(2n), the rows [0, 2] and [2n, m].  For
    n = 0 (so m = +-1) that leaves Z.  Otherwise the matrix has determinant
    -4n and content gcd(2, m): Z/2 + Z/2|n| for even m, Z/4|n| for odd m.
    """
    m, n = slope
    make_slope(m, n)  # ValueError unless primitive
    if n == 0:
        return KleinFillResult(
            KleinFillKind.INFINITE_CYCLIC_QUOTIENT_LO, 1, (),
            "quotient is the infinite cyclic group <x>; surjects onto Z",
        )
    torsion = (2, 2 * abs(n)) if m % 2 == 0 else (4 * abs(n),)
    if m == 0:
        return KleinFillResult(
            KleinFillKind.FREE_PRODUCT_OF_FINITE_NOT_LO, 0, torsion,
            "quotient is Z/2 * Z/2 (infinite dihedral); torsion "
            "obstructs left-orderability",
        )
    return KleinFillResult(
        KleinFillKind.FINITE_NOT_LO, 0, torsion,
        f"finite quotient of order {int_str(4 * abs(m * n))} (elliptic filling); "
        "finite nontrivial groups are not left-orderable",
    )


_ELEMENT_RE = re.compile(r"\s*(?:(x)(?:\^(-?\d+))?)?\s*(?:(y)(?:\^(-?\d+))?)?\s*")


def parse_element(text: str) -> KleinElement:
    """Parse ``x^a y^b``: either factor or both may be omitted, a bare x or
    y means exponent 1, and ``1`` is the identity.  An exponent past the
    digit limit gets ``slopes.parse_int``'s "too long" ValueError."""
    if text.strip() == "1":
        return IDENTITY
    message = f"cannot parse Klein element {brief_repr(text)}"
    match = _ELEMENT_RE.fullmatch(text)
    if not match:
        raise ValueError(message)
    x, a, y, b = match.groups()
    return KleinElement(
        parse_int(a or "1", message) if x else 0,
        parse_int(b or "1", message) if y else 0,
    )


def element_str(g: KleinElement) -> str:
    if g == IDENTITY:
        return "1"
    parts = []
    if g.a:
        parts.append("x" if g.a == 1 else f"x^{g.a}")
    if g.b:
        parts.append("y" if g.b == 1 else f"y^{g.b}")
    return " ".join(parts)
