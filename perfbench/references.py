"""Verdict references for the benchmark.

Each reference reaches its answer by a route the checked CLI path does not
take: closed forms from the literature, a different algorithm, or the
construction of the input itself.  Nothing here calls the function whose
output it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

FIGURE_EIGHT = "t^2 - 3t + 1"
TREFOIL = "t^2 - t + 1"

# Ascending integer coefficients of normalized Alexander polynomials
# (Delta(1) = +-1, symmetric), keyed by the CLI spelling.
POLYNOMIALS = {
    FIGURE_EIGHT: (1, -3, 1),
    TREFOIL: (1, -1, 1),
    "t^4 - t^3 + t^2 - t + 1": (1, -1, 1, -1, 1),  # T(2, 5)
    "2t^2 - 3t + 2": (2, -3, 2),  # the knot 5_2
}


def lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def figure_eight_cover_order(n: int) -> int:
    """|H1| of the n-fold branched cover of the figure eight: L_2n - 2."""
    return lucas(2 * n) - 2


def trefoil_cover_order(n: int) -> int | None:
    """|H1| of the n-fold branched cover of the trefoil by n mod 6
    (None when infinite)."""
    return {0: None, 1: 1, 5: 1, 2: 3, 4: 3, 3: 4}[n % 6]


def _matmul(a, b):
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _det(m) -> Fraction:
    m = [row[:] for row in m]
    size = len(m)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for j in range(c, size):
                m[r][j] -= f * m[c][j]
    return det


def companion_cover_order(coeffs: tuple[int, ...], n: int) -> int | None:
    """|H1| of the n-fold branched cover from the companion matrix C of
    Delta / a_d: |a_d^n det(C^n - I)| = |Res(Delta, t^n - 1)|, which equals
    the order because |Res(Delta, t - 1)| = |Delta(1)| = 1.  None when
    infinite."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    comp = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        comp[i][i - 1] = Fraction(1)
    for i in range(d):
        comp[i][d - 1] = Fraction(-coeffs[i], lead)
    power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    base, k = comp, n
    while k:
        if k & 1:
            power = _matmul(power, base)
        base = _matmul(base, base)
        k >>= 1
    for i in range(d):
        power[i][i] -= 1
    value = abs(Fraction(lead) ** n * _det(power))
    if value == 0:
        return None
    if value.denominator != 1:
        raise ArithmeticError("resultant is not an integer")
    return int(value)


def cover_order(poly: str, n: int) -> int | None:
    if poly == FIGURE_EIGHT:
        return figure_eight_cover_order(n)
    if poly == TREFOIL:
        return trefoil_cover_order(n)
    return companion_cover_order(POLYNOMIALS[poly], n)


def normalized_slope(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def slope_delta(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] * b[1] - b[0] * a[1])


def slope_glue(matrix: tuple[int, int, int, int], s: tuple[int, int]) -> str:
    a, b, c, d = matrix
    p, q = normalized_slope(a * s[0] + b * s[1], c * s[0] + d * s[1])
    return f"{p}/{q}"


def klein_fill_kind(m: int, n: int) -> str:
    """Filling classification of the twisted I-bundle along y^m x^2n: only
    the slope y (n = 0) leaves a left-orderable (infinite cyclic) group."""
    if n == 0:
        return "infinite_cyclic_quotient_lo"
    if m == 0:
        return "free_product_of_finite_not_lo"
    return "finite_not_lo"


def klein_sign(a: int, b: int, ordering: str) -> str:
    """Sign of x^a y^b: the x-exponent decides, and on the kernel <y> the
    ordering O1 makes y positive and O2 makes it negative."""
    if a:
        return "positive" if a > 0 else "negative"
    if b == 0:
        return "trivial"
    positive = b > 0 if ordering == "O1" else b < 0
    return "positive" if positive else "negative"


def symmetric_group_order(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def coxeter_presentation(n: int) -> dict:
    """Coxeter presentation of the symmetric group S_n on s1 .. s(n-1)."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"s{i} s{i}" for i in range(1, n)]
    rels += [f"s{i} s{i + 1} " * 3 for i in range(1, n - 1)]
    rels += [f"s{i} s{j} s{i} s{j}" for i in range(1, n) for j in range(i + 2, n)]
    return {"generators": gens, "relators": [r.strip() for r in rels]}


# The (2, 3, 7) triangle group is infinite, so its coset enumeration can
# only end at the coset cap.
TRIANGLE_237 = {
    "generators": ["a", "b"],
    "relators": ["a a", "b b b", "a b " * 7],
}

# Abelian invariants known from the topology, by bundled data file.
ABELIANIZATIONS = {
    "plus4_figure_eight_pi1.json": (0, [4]),  # +4 surgery on the figure eight
    "b3_presentation.json": (1, []),  # trefoil group: H1 of a knot exterior
    "klein_bottle_presentation.json": (1, [2]),  # Klein bottle group
}
