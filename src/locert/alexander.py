"""Homology of cyclic branched covers from the Alexander polynomial.

Fox's theorem (in Weber's formulation): the first homology of the n-fold
cyclic branched cover of a knot K is finite iff the Alexander polynomial
of K has no zero at an n-th root of unity, and its order is then

    |H1| = | prod_{i=1..n-1} Delta_K(zeta_n^i) |.

That product is |Res(Delta_K, t^n - 1)|, because |Res(Delta_K, t - 1)| =
|Delta_K(1)| = 1.  It is computed exactly in O(d^2 log n) operations on
integers for Delta of degree d: t^n is reduced modulo Delta by
square-and-multiply, and the resultant with the remainder is one Sylvester
determinant of at most 2d - 1 rows.  A vanishing resultant encodes the
infinite case.  No floating-point evaluation anywhere: the criterion is
about exact vanishing.  Orders of more than MAX_ORDER_DIGITS decimal digits,
and Delta of degree past _MAX_DEGREE, are not computed (OverflowError).

Polynomials are integer Laurent polynomials, stored as exponent ->
coefficient maps; multiplying by a power of t changes the resultant only
by a unit, so the Laurent ambiguity is harmless under absolute values.
"""

from __future__ import annotations

import re

from .words import brief_repr, parse_int

__all__ = [
    "IntLaurentPoly",
    "MAX_ORDER_DIGITS",
    "parse_poly",
    "poly_str",
    "evaluate_at_int",
    "validate_alexander",
    "branched_cover_order",
]

# exponent -> coefficient, zero coefficients dropped
IntLaurentPoly = dict[int, int]


# CPython's default limit for int -> str conversion, so that every order
# returned can be printed.
MAX_ORDER_DIGITS = 4300
_ORDER_CEILING = 10**MAX_ORDER_DIGITS
# H and lc^s in t^k = H / lc^s modulo Delta grow about as fast as the order
# of the k-fold cover.  Past twice the budget the order is taken to be out
# of reach, which bounds the work for every n.
_POWER_BITS_CAP = 2 * _ORDER_CEILING.bit_length()
_TOO_LARGE = f"the order exceeds the {MAX_ORDER_DIGITS}-digit budget"
# The Sylvester determinant costs O(d^3) operations on integers: t^200 -
# t^100 + 1 takes 0.5 s at n = 2 and 1.5 s at n = 100 to 10^4 (CPython 3.11,
# one core of a 2-CPU host).  Larger coefficients and larger n cost more.
_MAX_DEGREE = 200


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*\*?\s*(?:t(?:\s*(?:\^|\*\*)\s*(?P<exp1>-?\d+))?)?
          | t(?:\s*(?:\^|\*\*)\s*(?P<exp2>-?\d+))?
        )""",
    re.VERBOSE,
)


def parse_poly(text: str) -> IntLaurentPoly:
    """Parse strings like ``t^2 - t + 1``, ``3t^-1 + 2``, ``1``.  Like terms
    merge; a merged coefficient past MAX_ORDER_DIGITS digits, which ``str``
    could not print, is a ValueError."""
    out: IntLaurentPoly = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {brief_repr(text[pos:])}")
        sign_txt = m.group("sign")
        if sign_txt is None and not first:
            raise ValueError(f"missing +/- before {brief_repr(text[pos:])}")
        sign = -1 if sign_txt == "-" else 1
        coeff_txt = m.group("coeff")
        if coeff_txt is not None:
            coeff = sign * _read_int(coeff_txt)
            has_t = "t" in text[m.start() : m.end()]
            exp = _read_int(m.group("exp1")) if m.group("exp1") else (1 if has_t else 0)
        else:
            coeff = sign
            exp = _read_int(m.group("exp2")) if m.group("exp2") else 1
        out[exp] = out.get(exp, 0) + coeff
        pos = m.end()
        first = False
    if any(abs(c) >= _ORDER_CEILING for c in out.values()):
        raise ValueError(
            f"a coefficient is too long: over {MAX_ORDER_DIGITS} digits once "
            "like terms merge"
        )
    return {e: c for e, c in out.items() if c}


def _read_int(digits: str) -> int:
    """``int`` of a digit run that ``_TERM_RE`` matched; past the digit limit,
    the only way that can fail, ``parse_int``'s "too long" ValueError."""
    return parse_int(digits, f"invalid integer {digits!r}")


def poly_str(poly: IntLaurentPoly) -> str:
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            t = "t" if e == 1 else f"t^{e}"
            body = t if mag == 1 else f"{mag}{t}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def evaluate_at_int(poly: IntLaurentPoly, t: int) -> int:
    """Exact evaluation at a nonzero integer (negative exponents need
    t = +-1)."""
    out = 0
    for e, c in poly.items():
        if e < 0 and abs(t) != 1:
            raise ValueError("negative exponents need |t| = 1")
        out += c * t**e
    return out


def _ascending_coeffs(poly: IntLaurentPoly) -> list[int]:
    """Shift the Laurent polynomial to an ordinary polynomial with nonzero
    constant term and return ascending coefficients."""
    lo = min(poly)
    hi = max(poly)
    return [poly.get(e + lo, 0) for e in range(hi - lo + 1)]


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free exact determinant of a nonempty square matrix."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _resultant(f: list[int], g: list[int]) -> int:
    """Sylvester resultant of two integer polynomials (ascending coeffs),
    ``f`` of degree at least 1 and ``g`` nonzero, so the Sylvester matrix
    has at least one row."""
    df = len(f) - 1
    dg = len(g) - 1
    if dg == 0:
        return g[0] ** df
    size = df + dg
    rows = []
    fd = f[::-1]  # descending
    gd = g[::-1]
    for i in range(dg):
        rows.append([0] * i + fd + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gd + [0] * (size - dg - 1 - i))
    return _bareiss_det(rows)


def validate_alexander(poly: IntLaurentPoly) -> list[str]:
    """The standard Alexander normalizations that ``poly`` fails, Delta(1) =
    +-1 and Delta(t) = +- t^k Delta(1/t); empty when it satisfies both.
    Works on the exponents present, so the degree costs nothing."""
    failed = []
    if sum(poly.values()) not in (1, -1):
        failed.append("value at t = 1 is not a unit")
    span = min(poly) + max(poly) if poly else 0
    mirror = {span - e: c for e, c in poly.items()}
    if not (poly and mirror in (poly, {e: -c for e, c in poly.items()})):
        failed.append("not symmetric under t -> 1/t up to units")
    return failed


def _reduce_mod(p: list[int], s: int, delta: list[int]) -> tuple[list[int], int]:
    """Reduce p / lc^s modulo delta (ascending coefficients, leading
    coefficient lc) to H / lc^s' with H integral and of degree below deg
    delta.  A step scales by lc only when the coefficient it removes is not
    divisible by lc, and s' is the least exponent that keeps H integral."""
    d = len(delta) - 1
    lc = delta[-1]
    for j in range(len(p) - 1, d - 1, -1):
        if p[j] % lc:
            p = [c * lc for c in p]
            s += 1
        q = p[j] // lc
        if q:
            for i, c in enumerate(delta, j - d):
                p[i] -= q * c
    p = p[:d]
    while s and not any(c % lc for c in p):
        p = [c // lc for c in p]
        s -= 1
    return p, s


def _square(h: list[int]) -> list[int]:
    out = [0] * (2 * len(h) - 1)
    for i, a in enumerate(h):
        if a:
            for j, b in enumerate(h, i):
                out[j] += a * b
    return out


def _power_of_t_mod(delta: list[int], n: int) -> tuple[list[int], int]:
    """(H, s) with t^n = H / lc^s modulo delta, by square-and-multiply.

    Raises OverflowError once H or lc^s outgrows _POWER_BITS_CAP bits."""
    lc_bits = abs(delta[-1]).bit_length() - 1  # 2^(s * lc_bits) <= |lc|^s
    h, s = _reduce_mod([0, 1], 0, delta)
    for bit in bin(n)[3:]:
        h, s = _reduce_mod(_square(h), 2 * s, delta)
        if bit == "1":
            h, s = _reduce_mod([0] + h, s, delta)
        if (
            max(abs(c) for c in h).bit_length() > _POWER_BITS_CAP
            or s * lc_bits > _POWER_BITS_CAP
        ):
            raise OverflowError(_TOO_LARGE)
    return h, s


def branched_cover_order(poly: IntLaurentPoly, n: int) -> int | None:
    """|H1| of the n-fold cyclic branched cover; None when infinite.

    Computed as |Res(Delta, t^n - 1)|, which equals the absolute product of
    Delta over the nontrivial n-th roots of unity since |Delta(1)| = 1; the
    resultant vanishes exactly when some zero of Delta is an n-th root of
    unity.  With lc the leading coefficient and d the degree of Delta,
    t^n = H / lc^s modulo Delta for an integral H of degree below d, and

        Res(Delta, t^n - 1) = lc^(n - e) Res(Delta, G) / lc^(s d)

    with G = H - lc^s of degree e.  That takes O(d^2 log n) operations on
    integers of O(n) digits and one Sylvester determinant of at most
    2d - 1 rows.  Raises OverflowError when the order has more than
    MAX_ORDER_DIGITS digits, when an intermediate grows past twice that
    budget, or when d passes _MAX_DEGREE.
    """
    if n < 2:
        raise ValueError("cover order n must be >= 2")
    if sum(poly.values()) not in (1, -1):
        raise ValueError(f"polynomial {poly_str(poly)} has Delta(1) != +-1")
    if max(poly) - min(poly) > _MAX_DEGREE:
        raise OverflowError(f"the degree exceeds the budget of {_MAX_DEGREE}")
    coeffs = _ascending_coeffs(poly)
    d = len(coeffs) - 1
    if d == 0:
        return 1
    lc = coeffs[-1]
    g, s = _power_of_t_mod(coeffs, n)
    g[0] -= lc**s  # G = H - lc^s
    while g and not g[-1]:
        g.pop()
    if not g:
        return None
    res = _resultant(coeffs, g)
    if not res:
        return None
    # shift <= 0 whenever |lc| > 1, so lc^shift never grows the order.
    shift = n - (len(g) - 1) - s * d
    order = abs(res * lc**shift if shift >= 0 else res // lc**-shift)
    if order >= _ORDER_CEILING:
        raise OverflowError(_TOO_LARGE)
    return order
