"""Slope calculus: intersection numbers, gluings, framings, homology."""

import random

import pytest

from locert.slopes import (
    GluingMatrix,
    Slope,
    apply_gluing,
    brief_repr,
    intersection_number,
    invert_gluing,
    make_slope,
    parse_int,
    parse_slope,
    slope_str,
    union_homology_order,
)

MERIDIAN = Slope(1, 0)
LONGITUDE_SLOPE = Slope(0, 1)
# Identifies each meridian with the other longitude: the splice gluing.
SPLICE_MATRIX = GluingMatrix(0, 1, 1, 0)


def _random_slope(rng):
    from math import gcd

    while True:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if (p, q) != (0, 0) and gcd(p, q) == 1:
            return make_slope(p, q)


def _matmul(m, n):
    return GluingMatrix(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def _random_unimodular(rng):
    # product of elementary shears and swaps is unimodular
    m = GluingMatrix(1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(-3, 3)
        shear = (
            GluingMatrix(1, k, 0, 1)
            if rng.random() < 0.5
            else GluingMatrix(1, 0, k, 1)
        )
        m = _matmul(m, shear)
        if rng.random() < 0.3:
            m = _matmul(m, GluingMatrix(0, 1, 1, 0))
    return m


def _preferred_meridians(f):
    """(f^-1(lambda), f(lambda)): the splice pairs' meridian slopes."""
    return apply_gluing(invert_gluing(f), LONGITUDE_SLOPE), apply_gluing(
        f, LONGITUDE_SLOPE
    )


def test_normalization():
    assert make_slope(1, -1) == Slope(-1, 1)
    assert make_slope(-1, 0) == Slope(1, 0)
    assert make_slope(-2, -3) == Slope(2, 3)
    with pytest.raises(ValueError):
        make_slope(2, 4)
    with pytest.raises(ValueError):
        make_slope(0, 0)


def test_parse_and_format():
    assert parse_slope("3/2") == Slope(3, 2)
    assert parse_slope("-1/1") == Slope(-1, 1)
    assert parse_slope("5") == Slope(5, 1)
    # after a slash the denominator must be an integer; the message names
    # the text and the expected form
    for text in ("1/", "1/ ", "/1", "1/x", "x", "1/2/3"):
        with pytest.raises(ValueError, match=r"^cannot parse slope .*: expected p/q or p$"):
            parse_slope(text)
    assert slope_str(Slope(-1, 1)) == "-1/1"
    # an entry str() refuses for its length is a budget, not an input error
    budget = r"^an integer in the result exceeds the 4300-digit budget$"
    with pytest.raises(OverflowError, match=budget):
        slope_str(Slope(1, 10**5000))


def test_an_integer_past_the_digit_limit_is_too_long():
    # 4300 digits still parse; past them the message says so and echoes 20
    # characters, not the whole text
    assert parse_int("9" * 4300, "bad") == 10**4300 - 1
    assert parse_slope(f"1/{'9' * 4300}") == Slope(1, 10**4300 - 1)
    too_long = r"^integer '1{20}\.\.\.' is too long: over 4300 digits$"
    for text in ("1" * 4301, f"1/{'1' * 4301}", f"{'1' * 4301}/x"):
        with pytest.raises(ValueError, match=too_long):
            parse_slope(text)
    # a bad text of at most 4300 characters gets the caller's message
    with pytest.raises(ValueError, match="^bad$"):
        parse_int("1" * 4299 + "x", "bad")


def test_a_long_text_that_is_no_integer_gets_the_callers_message():
    # only a sign and digits, with space around them, are read as a too-long
    # integer, however long the text is
    for text in ("-" + "1" * 4301, " +" + "1" * 4301 + " "):
        with pytest.raises(ValueError, match=r"^integer '[ +-]*1+\.\.\.' is too long"):
            parse_int(text, "bad")
    for text in ("z" * 5000, "1" * 4301 + "x", "+-" + "1" * 4301, "1_" * 2500):
        with pytest.raises(ValueError, match="^bad$"):
            parse_int(text, "bad")
    with pytest.raises(ValueError, match=r"^cannot parse slope 'z{39}\.\.\.: "):
        parse_slope("z" * 5000)


def test_intersection_number_examples():
    assert intersection_number(MERIDIAN, LONGITUDE_SLOPE) == 1
    assert intersection_number(make_slope(2, 1), make_slope(1, 1)) == 1
    for n in range(2, 7):
        assert intersection_number(make_slope(n, 1), make_slope(1, n)) == n * n - 1


def test_intersection_number_symmetry_and_zero():
    rng = random.Random(3001)
    for _ in range(100):
        a, b = _random_slope(rng), _random_slope(rng)
        assert intersection_number(a, b) == intersection_number(b, a)
    assert intersection_number(make_slope(3, 5), make_slope(-3, -5)) == 0


def test_apply_gluing_examples():
    assert apply_gluing(SPLICE_MATRIX, make_slope(2, 1)) == Slope(1, 2)
    assert apply_gluing(GluingMatrix(1, 0, 0, 1), make_slope(3, 4)) == Slope(3, 4)
    assert apply_gluing(GluingMatrix(1, 1, 0, 1), LONGITUDE_SLOPE) == Slope(1, 1)
    with pytest.raises(
        ValueError, match=r"^matrix \(2, 0, 0, 1\) has determinant 2$"
    ):
        apply_gluing(GluingMatrix(2, 0, 0, 1), MERIDIAN)


def test_gluing_diagnostics_echo_only_the_start():
    # a matrix of 2200-digit entries, and a determinant str() cannot print
    big, nines = 10**2200, 10**4300 - 1
    # repr refuses an int past the digit limit, alone or in a container
    assert brief_repr(10**4300) == brief_repr([1, -(10**5000)]) == "<over 4300 digits>"
    with pytest.raises(ValueError, match=r"^matrix \(10{38}\.\.\. has determinant "
                                         r"9{40}\.\.\.$"):
        apply_gluing(GluingMatrix(big, 1, 1, 1), MERIDIAN)
    with pytest.raises(ValueError, match=r"^matrix \(9{39}\.\.\. has determinant "
                                         r"<over 4300 digits>$"):
        invert_gluing(GluingMatrix(nines, nines, 1, nines))
    with pytest.raises(ValueError, match=r"^slope \(10{38}\.\.\. is not primitive$"):
        make_slope(big, big)


def test_gluing_preserves_delta_and_composes():
    rng = random.Random(3002)
    for _ in range(100):
        m = _random_unimodular(rng)
        n = _random_unimodular(rng)
        a, b = _random_slope(rng), _random_slope(rng)
        assert intersection_number(
            apply_gluing(m, a), apply_gluing(m, b)
        ) == intersection_number(a, b)
        assert apply_gluing(_matmul(m, n), a) == apply_gluing(
            m, apply_gluing(n, a)
        )
        assert apply_gluing(invert_gluing(m), apply_gluing(m, a)) == a


def test_splice_framing():
    assert _preferred_meridians(SPLICE_MATRIX) == (MERIDIAN, MERIDIAN)
    # the identity gluing is not a homology-sphere splice
    identity = GluingMatrix(1, 0, 0, 1)
    assert union_homology_order(identity) == 0
    f = GluingMatrix(1, 1, 1, 0)
    assert union_homology_order(f) == 1
    mu1, mu2 = _preferred_meridians(f)
    assert intersection_number(mu1, LONGITUDE_SLOPE) == 1
    assert intersection_number(mu2, LONGITUDE_SLOPE) == 1


def test_splice_framing_duality_property():
    rng = random.Random(3003)
    found = 0
    while found < 40:
        f = _random_unimodular(rng)
        if union_homology_order(f) != 1:
            continue
        found += 1
        mu1, mu2 = _preferred_meridians(f)
        assert intersection_number(mu1, LONGITUDE_SLOPE) == 1
        assert intersection_number(mu2, LONGITUDE_SLOPE) == 1
        assert apply_gluing(f, mu1) == LONGITUDE_SLOPE
        assert apply_gluing(f, LONGITUDE_SLOPE) == mu2


def test_splice_matrix_swaps_p_and_q():
    rng = random.Random(3004)
    for _ in range(60):
        s = _random_slope(rng)
        assert apply_gluing(SPLICE_MATRIX, s) == make_slope(s.q, s.p)


def test_union_homology_order():
    assert union_homology_order(SPLICE_MATRIX) == 1
    assert union_homology_order(GluingMatrix(1, 0, 0, 1)) == 0
    # f(lambda) = (b, d) column, so the off-diagonal b sets the order
    assert union_homology_order(GluingMatrix(1, 2, 0, 1)) == 2


def test_brief_repr_echoes_only_the_start():
    assert brief_repr("maybe") == "'maybe'"
    assert brief_repr([1, "x"]) == "[1, 'x']"
    assert brief_repr("z" * 38) == "'" + "z" * 38 + "'"  # 40 characters
    assert brief_repr("z" * 39) == "'" + "z" * 39 + "..."
    assert brief_repr(-(10**4000)) == "-" + "1" + "0" * 38 + "..."
    with pytest.raises(ValueError, match=r"^cannot parse slope 'zzz.*z\.\.\.: "):
        parse_slope("z" * 1000)
