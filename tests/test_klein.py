"""Klein-bottle group: normal forms, the two orderings, fillings."""

import random
from math import gcd, prod

import pytest

from locert.fpgroup import (
    Presentation,
    abelianization,
    check_closed_table,
    enumerate_table,
    smith_normal_form,
)
from locert.klein import (
    IDENTITY,
    KleinElement,
    KleinFillKind,
    KleinOrderingId,
    KleinPeripheral,
    element_str,
    k_conjugate_ordering,
    k_inverse,
    k_multiply,
    k_sign,
    klein_fill,
    parse_element,
)
from locert.words import Sign3, word_power

O1 = KleinOrderingId.O1
O2 = KleinOrderingId.O2


def klein_presentation() -> Presentation:
    """<x, y | x y x^-1 y>."""
    return Presentation(("x", "y"), ((1, 2, -1, 2),))


def filled_presentation(slope: KleinPeripheral) -> Presentation:
    """The quotient K / <<y^m x^(2n)>> written out: the reference for
    ``klein_fill``'s closed-form invariants and its coset-enumeration check."""
    relator = word_power((2,), slope.m) + word_power((1, 1), slope.n)
    base = klein_presentation()
    return Presentation(base.generators, base.relators + (relator,))


def _invariants(slope: KleinPeripheral) -> tuple[int, tuple[int, ...]]:
    result = klein_fill(slope)
    return result.free_rank, result.torsion


def _oracle_multiply(g: KleinElement, h: KleinElement) -> KleinElement:
    """Independent oracle: represent x^a y^b by the affine map
    m(t, u) = (t + a, b + (-1)^a u) on Z^2; composition satisfies
    m_g o m_h = m_(hg), so gh is extracted from m_h o m_g at (0, 0)."""

    def as_map(e):
        return lambda t, u: (t + e.a, e.b + ((-1) ** (e.a % 2)) * u)

    t, u = as_map(h)(*as_map(g)(0, 0))
    # recover b from the translation part: u = b + (-1)^a * 0
    return KleinElement(t, u)


def _grid(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            yield KleinElement(a, b)


def test_group_law_examples():
    assert k_multiply(KleinElement(1, 1), KleinElement(1, 1)) == KleinElement(2, 0)
    assert k_multiply(KleinElement(0, 3), KleinElement(0, -3)) == IDENTITY
    for b in range(-3, 4):
        for d in range(-3, 4):
            assert k_multiply(KleinElement(2, b), KleinElement(0, d)) == KleinElement(
                2, b + d
            )


def test_group_law_against_affine_oracle():
    rng = random.Random(2001)
    for _ in range(300):
        g = KleinElement(rng.randint(-6, 6), rng.randint(-6, 6))
        h = KleinElement(rng.randint(-6, 6), rng.randint(-6, 6))
        assert k_multiply(g, h) == _oracle_multiply(g, h)


def test_group_axioms_sampled():
    rng = random.Random(2002)
    for _ in range(200):
        g, h, k = (
            KleinElement(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)
        )
        assert k_multiply(k_multiply(g, h), k) == k_multiply(g, k_multiply(h, k))
        assert k_multiply(g, IDENTITY) == g
        assert k_multiply(IDENTITY, g) == g
        assert k_multiply(g, k_inverse(g)) == IDENTITY
        assert k_multiply(k_inverse(g), g) == IDENTITY


def test_inverse_formula():
    for g in _grid(4):
        sign = -1 if g.a % 2 else 1
        assert k_inverse(g) == KleinElement(-g.a, -sign * g.b)


def test_sign_examples():
    assert k_sign(KleinElement(0, 1), O1) is Sign3.POSITIVE
    assert k_sign(KleinElement(0, 1), O2) is Sign3.NEGATIVE
    assert k_sign(KleinElement(-1, 7), O1) is Sign3.NEGATIVE
    assert k_sign(IDENTITY, O1) is Sign3.TRIVIAL


def test_orderings_are_left_orderings():
    for ordering in (O1, O2):
        for g in _grid(4):
            signs = {k_sign(g, ordering), k_sign(k_inverse(g), ordering)}
            if g == IDENTITY:
                assert signs == {Sign3.TRIVIAL}
            else:
                assert signs == {Sign3.POSITIVE, Sign3.NEGATIVE}
        # cone closure
        for g in _grid(3):
            for h in _grid(3):
                if (
                    k_sign(g, ordering) is Sign3.POSITIVE
                    and k_sign(h, ordering) is Sign3.POSITIVE
                ):
                    assert k_sign(k_multiply(g, h), ordering) is Sign3.POSITIVE


def test_conjugation_rule_examples():
    assert k_conjugate_ordering(KleinElement(1, 0), O1) is O2
    assert k_conjugate_ordering(KleinElement(0, 1), O1) is O1
    assert k_conjugate_ordering(KleinElement(2, 0), O2) is O2


def test_normality_exact():
    # Conjugation by x^a y^b maps O1 to O1 iff a is even, verified at the
    # cone level: h in gPg^-1 iff g^-1 h g in P.
    for g in _grid(6):
        for ordering in (O1, O2):
            conjugated = k_conjugate_ordering(g, ordering)
            for h in _grid(6):
                pulled = k_multiply(k_multiply(k_inverse(g), h), g)
                assert k_sign(h, conjugated) is k_sign(pulled, ordering)


def test_peripheral_subgroup_abelian():
    for m1 in range(-3, 4):
        for n1 in range(-3, 4):
            g = KleinElement(2 * n1, m1)
            h = KleinElement(2 * m1, n1)
            assert k_multiply(g, h) == k_multiply(h, g)


def test_fill_classification():
    assert (
        klein_fill(KleinPeripheral(1, 0)).kind
        is KleinFillKind.INFINITE_CYCLIC_QUOTIENT_LO
    )
    assert (
        klein_fill(KleinPeripheral(0, 1)).kind
        is KleinFillKind.FREE_PRODUCT_OF_FINITE_NOT_LO
    )
    result = klein_fill(KleinPeripheral(1, 1))
    assert result.kind is KleinFillKind.FINITE_NOT_LO
    assert result.free_rank == 0
    assert prod(result.torsion) == 4
    with pytest.raises(ValueError, match=r"^slope \(2, 2\) is not primitive$"):
        klein_fill(KleinPeripheral(2, 2))
    with pytest.raises(ValueError, match=r"^slope \(0, 0\) is not primitive$"):
        klein_fill(KleinPeripheral(0, 0))


def test_fill_abelianization_evidence():
    assert abelianization(klein_presentation()).free_rank == 1
    assert _invariants(KleinPeripheral(1, 0)) == (1, ())
    assert _invariants(KleinPeripheral(0, 1)) == (0, (2, 2))
    # the exponent-sum matrix of klein_fill's closed form is that of the
    # presentation
    for m in range(-12, 13):
        for n in range(-12, 13):
            if gcd(m, n) == 1:
                slope = KleinPeripheral(m, n)
                expected = abelianization(filled_presentation(slope))
                assert _invariants(slope) == expected, slope
    # no relator is written out, so a large slope costs no more than a small one
    assert _invariants(KleinPeripheral(10**7 + 1, 10**7)) == (0, (4 * 10**7,))
    # an order 4|mn| too long to print is past the budget, not bad input
    with pytest.raises(
        OverflowError, match=r"^an integer in the result exceeds the 4300-digit budget$"
    ):
        klein_fill(KleinPeripheral(10**2200 + 1, 10**2200))


def test_fill_invariants_match_smith_normal_form():
    # The closed form against the general Smith normal form of the relation
    # matrix [[0, 2], [2n, m]], on seeded primitive slopes of every size up
    # to 10^40, of both signs, and on the axis slopes.
    rng = random.Random(2203)
    slopes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    while len(slopes) < 300:
        m, n = (rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 40))
                for _ in range(2))
        if gcd(m, n) == 1:
            slopes.append((m, n))
    for m, n in slopes:
        factors = smith_normal_form([[0, 2], [2 * n, m]], 2)
        expected = (2 - len(factors), tuple(d for d in factors if d > 1))
        assert _invariants(KleinPeripheral(m, n)) == expected, (m, n)


def test_fill_agrees_with_coset_enumeration():
    # Exhaustive agreement for primitive slopes with |m|, |n| <= 5: the
    # finite fillings close with index 4|mn| and the two infinite ones do
    # not close at a generous cap.
    for m in range(-5, 6):
        for n in range(-5, 6):
            if gcd(m, n) != 1:
                continue
            slope = KleinPeripheral(m, n)
            result = klein_fill(slope)
            filled = filled_presentation(slope)
            if result.kind is KleinFillKind.FINITE_NOT_LO:
                closed = enumerate_table(filled, [], 3000)
                assert closed.index == 4 * abs(m * n)
                assert check_closed_table(filled, [], closed)
            else:
                with pytest.raises(
                    OverflowError,
                    match="^the coset table did not close within 3000 cosets$",
                ):
                    enumerate_table(filled, [], 3000)


def test_element_parsing():
    assert parse_element("x^2 y^-3") == KleinElement(2, -3)
    assert parse_element("y") == KleinElement(0, 1)
    assert parse_element("x") == KleinElement(1, 0)
    assert parse_element("1".replace("1", "")) == IDENTITY
    assert element_str(KleinElement(2, -3)) == "x^2 y^-3"
    assert element_str(IDENTITY) == "1"
    assert parse_element(element_str(KleinElement(-4, 9))) == KleinElement(-4, 9)
    assert parse_element(element_str(IDENTITY)) == IDENTITY
    assert parse_element("xy") == KleinElement(1, 1)
    # a caret needs an integer after it, and an exponent needs its caret
    for text in ("z^2", "x^", "x^y", "xy^", "x2", "y x", "11"):
        with pytest.raises(ValueError):
            parse_element(text)
    # an exponent past the 4300-digit limit of int() is too long, on either factor
    long = "1" + "0" * 4400
    for text in (f"x^{long}", f"x y^-{long}"):
        with pytest.raises(ValueError, match=r"^integer '-?10+\.\.\.' is too long: over 4300"):
            parse_element(text)


def test_element_diagnostics_echo_only_the_start():
    message = r"^cannot parse Klein element 'x\^z{37}\.\.\.$"
    with pytest.raises(ValueError, match=message):
        parse_element("x^" + "z" * 5000)
