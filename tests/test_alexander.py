"""Branched-cover homology orders by exact resultants."""

import random
import re

import pytest

from locert.alexander import (
    MAX_ORDER_DIGITS,
    _ascending_coeffs,
    _power_of_t_mod,
    branched_cover_order,
    evaluate_at_int,
    parse_poly,
    poly_str,
    validate_alexander,
)

TREFOIL = parse_poly("t^2 - t + 1")
FIGURE_EIGHT = parse_poly("t^2 - 3t + 1")
ONE = parse_poly("1")
FIVE_TWO = parse_poly("2t^2 - 3t + 2")


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# --- test-local oracle: the Sylvester determinant of Delta against
# (t^n - 1)/(t - 1), an (n + d - 1)-square matrix, by Bareiss elimination.


def _oracle_det(m: list[list[int]]) -> int:
    n = len(m)
    m = [row[:] for row in m]
    sign, prev = 1, 1
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


def oracle_cover_order(poly, n: int) -> int | None:
    lo, hi = min(poly), max(poly)
    f = [poly.get(e, 0) for e in range(hi, lo - 1, -1)]  # descending
    g = [1] * n  # (t^n - 1)/(t - 1), degree n - 1
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return abs(f[0] ** dg)
    size = df + dg
    rows = [[0] * i + f + [0] * (size - df - 1 - i) for i in range(dg)]
    rows += [[0] * i + g + [0] * (size - dg - 1 - i) for i in range(df)]
    res = _oracle_det(rows)
    return abs(res) if res else None


def lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# Cyclotomic polynomials with value 1 at t = 1 (Phi_6, Phi_10, Phi_12):
# a factor Phi_m makes the order infinite exactly when m divides n.
CYCLOTOMIC_UNITS = ({0: 1, 1: -1, 2: 1}, {0: 1, 1: -1, 2: 1, 3: -1, 4: 1},
                    {0: 1, 2: -1, 4: 1})


def random_alexander_like(rng: random.Random):
    """Random Laurent Delta of degree 0-8 with Delta(1) = +-1; neither
    symmetric nor monic in general, of either leading sign, and with a
    cyclotomic factor one time in three."""
    while True:
        d = rng.randint(0, 8)
        factor = {0: 1}
        if d >= 2 and rng.random() < 1 / 3:
            factor = rng.choice([c for c in CYCLOTOMIC_UNITS if max(c) <= d])
        coeffs = [rng.randint(-5, 5) for _ in range(d - max(factor) + 1)]
        coeffs[0] += rng.choice((1, -1)) - sum(coeffs)
        if coeffs[0] and coeffs[-1]:
            shift = rng.randint(-3, 3)
            poly = poly_mul(factor, {e: c for e, c in enumerate(coeffs) if c})
            return {e + shift: c for e, c in poly.items()}


def test_parse_poly():
    assert TREFOIL == {2: 1, 1: -1, 0: 1}
    assert parse_poly("3t^-1 + 2") == {-1: 3, 0: 2}
    assert parse_poly("-t + t") == {}
    assert parse_poly("t**2 - 1") == {2: 1, 0: -1}
    assert parse_poly("2*t - 1") == {1: 2, 0: -1}
    with pytest.raises(ValueError):
        parse_poly("t^2 + + 1")
    with pytest.raises(ValueError):
        parse_poly("u^2")
    with pytest.raises(ValueError):
        parse_poly("")
    # each digit run past the 4300-digit limit of int() is too long: a
    # coefficient, an exponent after it, and a bare t's exponent
    long = "1" + "0" * 4400
    for text in (f"{long}t + 1", f"2t^{long} + 1", f"t^-{long}"):
        with pytest.raises(ValueError, match=r"^integer '-?10+\.\.\.' is too long: over 4300"):
            parse_poly(text)


def test_a_merged_coefficient_past_the_digit_limit_is_too_long():
    # each coefficient reads, but like terms merge past what str() prints
    nines = "9" * MAX_ORDER_DIGITS
    assert parse_poly(f"{nines}t - 1 + 1") == {1: 10**MAX_ORDER_DIGITS - 1}
    merged = (f"{nines}t + t", f"-{nines} - 1", f"{nines}t^2 - {nines}t - {nines}t + 1")
    for text in merged:
        with pytest.raises(ValueError, match=r"^a coefficient is too long: over 4300 "
                                             r"digits once like terms merge$"):
            parse_poly(text)


def test_poly_str_round_trip():
    for poly in (TREFOIL, FIGURE_EIGHT, {0: -1}, {3: 2, -1: -5}):
        assert parse_poly(poly_str(poly)) == poly


NOT_SYMMETRIC = "not symmetric under t -> 1/t up to units"
TOO_LARGE = r"^the order exceeds the 4300-digit budget$"
DEGREE = r"^the degree exceeds the budget of 200$"


def test_validate_alexander():
    assert validate_alexander(TREFOIL) == []
    assert validate_alexander(FIGURE_EIGHT) == []
    assert validate_alexander(parse_poly("t - 2")) == [NOT_SYMMETRIC]
    assert validate_alexander(parse_poly("t + 1")) == ["value at t = 1 is not a unit"]
    assert validate_alexander(parse_poly("t^2 + 1")) == [
        "value at t = 1 is not a unit"
    ]
    assert validate_alexander({}) == ["value at t = 1 is not a unit", NOT_SYMMETRIC]
    # only the exponents present are read, so a wide polynomial costs nothing
    assert validate_alexander(parse_poly("t^100000000 - t + 1")) == [NOT_SYMMETRIC]
    assert validate_alexander(parse_poly("t^100000000 - t^50000000 + 1")) == []


def _listed_failures(poly):
    # the check on the written-out coefficient list, as a reference
    coeffs = [poly.get(e, 0) for e in range(min(poly), max(poly) + 1)] if poly else []
    failed = []
    if not (coeffs and evaluate_at_int(poly, 1) in (1, -1)):
        failed.append("value at t = 1 is not a unit")
    if not (coeffs and coeffs in (coeffs[::-1], [-c for c in coeffs[::-1]])):
        failed.append(NOT_SYMMETRIC)
    return failed


def test_validate_alexander_matches_the_coefficient_list():
    rng = random.Random(20110603)
    for _ in range(500):
        lo = rng.randint(-4, 4)
        half = [rng.randint(-2, 2) for _ in range(rng.randint(0, 4))]
        sign = rng.choice((1, -1))
        coeffs = half + [rng.randint(-3, 3)] + [sign * c for c in reversed(half)]
        if rng.random() < 0.5:
            coeffs[rng.randrange(len(coeffs))] += rng.choice((1, -1))
        poly = {lo + i: c for i, c in enumerate(coeffs) if c}
        assert validate_alexander(poly) == _listed_failures(poly), poly


def test_conway_orders_are_one():
    for n in range(2, 13):
        assert branched_cover_order(ONE, n) == 1


def test_trefoil_orders():
    # n = 2: the determinant |Delta(-1)| = 3
    # n = 3: product over cube roots: (-2w)(-2w^2) = 4w^3 = 4
    # n = 4: Delta(i) Delta(-1) Delta(-i) = (-i)(3)(i) = 3
    # n = 5: the 5-fold cover is the Poincare sphere, |H1| = 1
    # n = 6: t^2 - t + 1 divides t^6 - 1, so the homology is infinite
    assert branched_cover_order(TREFOIL, 2) == 3
    assert branched_cover_order(TREFOIL, 3) == 4
    assert branched_cover_order(TREFOIL, 4) == 3
    assert branched_cover_order(TREFOIL, 5) == 1
    assert branched_cover_order(TREFOIL, 6) is None
    assert branched_cover_order(TREFOIL, 12) is None


def test_figure_eight_orders():
    # n = 2: |Delta(-1)| = 5
    # n = 3: Delta(w) = -4w, so the product is 16w^3 = 16
    assert branched_cover_order(FIGURE_EIGHT, 2) == 5
    assert branched_cover_order(FIGURE_EIGHT, 3) == 16
    # no root of t^2 - 3t + 1 is a root of unity (real roots != +-1)
    for n in range(2, 13):
        assert branched_cover_order(FIGURE_EIGHT, n) is not None


def test_determinant_cross_check():
    # order at n = 2 equals |Delta(-1)| for every valid polynomial
    for poly in (ONE, TREFOIL, FIGURE_EIGHT, poly_mul(TREFOIL, FIGURE_EIGHT)):
        assert branched_cover_order(poly, 2) == abs(evaluate_at_int(poly, -1))


def test_multiplicativity():
    rng = random.Random(5001)
    basics = [ONE, TREFOIL, FIGURE_EIGHT]
    for _ in range(30):
        f = rng.choice(basics)
        g = rng.choice(basics)
        n = rng.randint(2, 9)
        fg = poly_mul(f, g)
        of, og, ofg = (
            branched_cover_order(f, n),
            branched_cover_order(g, n),
            branched_cover_order(fg, n),
        )
        if of is not None and og is not None:
            assert ofg == of * og
        else:
            assert ofg is None


def test_infinite_iff_cyclotomic_factor():
    # t^2 - t + 1 is the 6th cyclotomic polynomial: infinite exactly when
    # 6 divides n
    for n in range(2, 13):
        expect_infinite = n % 6 == 0
        assert (branched_cover_order(TREFOIL, n) is None) == expect_infinite
    # (t^2 - t + 1)(t^2 - 3t + 1): same verdict pattern as the trefoil
    prod = poly_mul(TREFOIL, FIGURE_EIGHT)
    for n in range(2, 13):
        assert (branched_cover_order(prod, n) is None) == (n % 6 == 0)


def test_laurent_shift_invariance():
    shifted = {e - 1: c for e, c in TREFOIL.items()}
    for n in range(2, 9):
        assert branched_cover_order(shifted, n) == branched_cover_order(TREFOIL, n)


def test_normalization_guard():
    with pytest.raises(
        ValueError, match=re.escape("polynomial t + 1 has Delta(1) != +-1") + "$"
    ):
        branched_cover_order(parse_poly("t + 1"), 3)
    with pytest.raises(ValueError, match=r"^cover order n must be >= 2$"):
        branched_cover_order(TREFOIL, 1)


def test_degree_budget():
    # degree 200 is answered, and checked against |Delta(-1)|; past it the
    # degree alone is refused, before any coefficient list is written out
    wide = parse_poly("t^200 - t^100 + 1")
    assert branched_cover_order(wide, 2) == abs(evaluate_at_int(wide, -1))
    for text in ("t^201 - t^101 + 1", "t^100000000 - t^50000000 + 1",
                 "t^-100 - t + t^101"):
        poly = parse_poly(text)
        with pytest.raises(OverflowError, match=DEGREE):
            branched_cover_order(poly, 3)


def test_matches_sylvester_oracle_on_random_polynomials():
    rng = random.Random(20110602)
    seen = {"non-symmetric": 0, "non-monic": 0, "negative leading": 0, "infinite": 0}
    for _ in range(120):
        poly = random_alexander_like(rng)
        lead = poly[max(poly)]
        seen["non-symmetric"] += NOT_SYMMETRIC in validate_alexander(poly)
        seen["non-monic"] += abs(lead) != 1
        seen["negative leading"] += lead < 0
        for n in (2, 3, 4, 5, 6, 7, 12, rng.randint(8, 50)):
            expected = oracle_cover_order(poly, n)
            seen["infinite"] += expected is None
            assert branched_cover_order(poly, n) == expected, (poly_str(poly), n)
    assert all(seen.values()), seen


def test_matches_sylvester_oracle_on_knots():
    for poly in (TREFOIL, FIGURE_EIGHT, FIVE_TWO, poly_mul(TREFOIL, FIVE_TWO),
                 parse_poly("-2t^2 + 5t - 2"), parse_poly("t^4 - t^3 + t^2 - t + 1")):
        for n in range(2, 51):
            assert branched_cover_order(poly, n) == oracle_cover_order(poly, n)


def test_matches_sylvester_oracle_where_the_power_of_lc_drops():
    # At n = 27 one reduction leaves every coefficient of H divisible by
    # lc = 8, so _reduce_mod lowers s there; random polynomials rarely
    # reach that branch.
    poly = parse_poly("8t^6 + 12t^5 + 4t^4 - 47t^3 + 4t^2 + 12t + 8")
    order = branched_cover_order(poly, 27)
    assert order == oracle_cover_order(poly, 27)
    assert len(str(order)) == 43


def test_the_power_of_lc_never_raises_the_order():
    # With t^n = H / lc^s modulo Delta and e = deg(H - lc^s), the shift
    # n - e - s d is at most 0 when |lc| > 1.  A prime p dividing lc leaves
    # a p-unit coefficient, since Delta(1) = +-1, so the p-adic Newton
    # polygon of Delta ends in a slope sigma >= v_p(lc) / d; its root alpha
    # has v_p(alpha) = -sigma, and lc^s alpha^n = H(alpha) gives
    # s v_p(lc) >= (n - deg H) sigma.
    rng = random.Random(20110603)
    shifts = []
    while len(shifts) < 300:
        coeffs = _ascending_coeffs(random_alexander_like(rng))
        lc, d = coeffs[-1], len(coeffs) - 1
        if abs(lc) < 2:
            continue
        n = rng.randint(2, 120)
        g, s = _power_of_t_mod(coeffs, n)
        g[0] -= lc**s
        while g and not g[-1]:
            g.pop()
        if g:
            shifts.append(n - (len(g) - 1) - s * d)
    assert max(shifts) == 0


def test_five_two_orders():
    # n = 2: |Delta(-1)| = 7
    # n = 3: Delta(w) = -5w, so the product is 25w^3 = 25
    # n = 4: Delta(i) Delta(-1) Delta(-i) = (-3i)(7)(3i) = 63
    # Delta is not monic, so each value needs the factor lc^(n - e) of
    # Res(Delta, t^n - 1) = lc^(n - e) Res(Delta, G) / lc^(s d).
    assert [branched_cover_order(FIVE_TWO, n) for n in range(2, 9)] == [
        7, 25, 63, 121, 175, 169, 63
    ]


def test_figure_eight_lucas_closed_form_at_large_n():
    for n in (2, 3, 50, 400, 10_000):
        assert branched_cover_order(FIGURE_EIGHT, n) == lucas(2 * n) - 2
    assert len(str(lucas(20_000) - 2)) <= MAX_ORDER_DIGITS


def test_trefoil_period_six_at_large_n():
    expected = {0: None, 1: 1, 2: 3, 3: 4, 4: 3, 5: 1}
    for n in range(10**6, 10**6 + 12):
        assert branched_cover_order(TREFOIL, n) == expected[n % 6]
    assert branched_cover_order(TREFOIL, 10**400 + 1) == 1


def test_orders_past_the_digit_budget_raise():
    # L_24000 - 2 has 5016 digits
    with pytest.raises(OverflowError, match=TOO_LARGE):
        branched_cover_order(FIGURE_EIGHT, 12_000)
    # intermediates outgrow the budget long before n is reached
    with pytest.raises(OverflowError, match=TOO_LARGE):
        branched_cover_order(FIGURE_EIGHT, 10**100)
    # 2t - 1: t^n = 1 / 2^n modulo Delta, and the order is 2^n - 1
    assert branched_cover_order(parse_poly("2t - 1"), 100) == 2**100 - 1
    with pytest.raises(OverflowError, match=TOO_LARGE):
        branched_cover_order(parse_poly("2t - 1"), 10**100)
