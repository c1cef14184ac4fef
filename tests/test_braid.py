"""B3 word problem, handle reduction, and the DD ordering."""

import random
from itertools import groupby

import pytest

from locert import braid
from locert.braid import (
    DELTA,
    DELTA_SQ,
    SIGMA1,
    SIGMA2,
    STEP_CAP,
    Ordering,
    PeripheralElement,
    commutes_with_sigma2,
    conj_sign,
    dd_compare,
    dd_sign,
    delta_floor,
    exponent_sum,
    handle_reduce,
    is_trivial,
    modular_image,
    parse_word,
    peripheral_parse,
    word_str,
)
from locert.sampling import random_braid_word, random_braid_words
from locert.words import Sign3, free_reduce_word, invert_word, word_power

BRAID_RELATOR = parse_word("abaBAB")


def test_parse_and_format_round_trip():
    for text in ("", "a", "abAB", "BBBaa"):
        assert word_str(parse_word(text)) == text
    assert parse_word("a b A") == (1, 2, -1)
    with pytest.raises(ValueError):
        parse_word("abc")


def test_free_reduce():
    assert free_reduce_word(parse_word("aA")) == ()
    assert free_reduce_word(parse_word("abBA")) == ()
    assert free_reduce_word(parse_word("aba")) == parse_word("aba")


def test_exponent_sum():
    assert exponent_sum(DELTA_SQ) == 6
    assert exponent_sum(parse_word("BBB")) == -3
    assert exponent_sum(parse_word("abAB")) == 0


def test_modular_image():
    assert modular_image(DELTA_SQ) == ()
    assert modular_image(SIGMA1) == (("b", 2), ("a", 1))
    assert modular_image(BRAID_RELATOR) == ()
    # cross-check: Delta^2 = (s1 s2)^3 in B3
    assert is_trivial(DELTA_SQ + word_power(parse_word("ab"), -3))


def test_is_trivial():
    assert is_trivial(BRAID_RELATOR)
    assert not is_trivial(DELTA_SQ)
    assert is_trivial(())


def test_sigma2_power_recognition():
    # A word equals s2^k iff it parses as the peripheral element (k, 0).
    assert peripheral_parse(parse_word("bbb")) == PeripheralElement(3, 0)
    assert peripheral_parse(SIGMA1) is None
    assert peripheral_parse(parse_word("Aba")) is None
    assert peripheral_parse(()) == PeripheralElement(0, 0)
    assert peripheral_parse(word_power(SIGMA2, -4)) == PeripheralElement(-4, 0)


def test_handle_reduce_examples():
    assert handle_reduce(parse_word("abA")) == parse_word("Bab")
    assert handle_reduce(parse_word("Aba")) == parse_word("baB")
    assert handle_reduce(parse_word("aA")) == ()


def test_handle_reduce_output_shape_and_soundness():
    rng = random.Random(1001)
    for _ in range(300):
        word = random_braid_word(rng, 40)
        reduced = handle_reduce(word)
        # same group element: both independent projections agree
        assert exponent_sum(reduced) == exponent_sum(word)
        assert modular_image(reduced) == modular_image(word)
        # s1 occurs with one sign only
        signs = {x > 0 for x in reduced if abs(x) == 1}
        assert len(signs) <= 1


def test_handle_reduce_step_cap(monkeypatch):
    monkeypatch.setattr(braid, "STEP_CAP", 0)
    with pytest.raises(
        OverflowError, match=r"^handle reduction exceeded 0 steps on a word of 3 letters$"
    ):
        handle_reduce(parse_word("abA"))


def test_word_problem_cross_check():
    rng = random.Random(1002)
    for _ in range(400):
        word = random_braid_word(rng, 48)
        assert is_trivial(word) == (handle_reduce(free_reduce_word(word)) == ())


def test_lift_examples():
    # (x, y, h): the image of the ray (0, 1) and the half-turns
    base = braid._BASE
    assert braid._lift((), base) == (0, 1, 0)
    assert braid._lift(SIGMA1, base) == (1, 1, 0)
    assert braid._lift(word_power(SIGMA1, -1), base) == (-1, 1, -1)
    assert braid._lift(word_power(SIGMA2, 3), base) == (0, 1, 0)
    assert braid._lift(DELTA, base) == (1, 0, 0)
    assert braid._lift(DELTA_SQ, base) == (0, -1, 1)
    assert braid._lift(word_power(DELTA_SQ, -2), base) == (0, 1, -2)


def test_lift_walks_on_from_any_lifted_point():
    # walking v from the lifted point of u gives the lifted point of v u
    rng = random.Random(2025)
    for _ in range(300):
        u = random_braid_word(rng, 40)
        v = random_braid_word(rng, 40)
        start = braid._lift(u, braid._BASE)
        assert braid._lift(v, start) == braid._lift(v + u, braid._BASE)


def test_dd_sign_examples():
    assert dd_sign(parse_word("B")) is Sign3.POSITIVE
    assert dd_sign(SIGMA1) is Sign3.POSITIVE
    assert dd_sign(SIGMA2) is Sign3.NEGATIVE
    assert dd_sign(()) is Sign3.TRIVIAL
    assert dd_sign(DELTA_SQ) is Sign3.POSITIVE


def test_dd_trichotomy_and_inverse():
    rng = random.Random(1003)
    for _ in range(300):
        word = random_braid_word(rng, 20)
        sign = dd_sign(word)
        opposite = dd_sign(invert_word(word))
        if sign is Sign3.TRIVIAL:
            assert opposite is Sign3.TRIVIAL
            assert is_trivial(word)
        else:
            assert {sign, opposite} == {Sign3.POSITIVE, Sign3.NEGATIVE}


def test_dd_cone_closure():
    rng = random.Random(1004)
    found = 0
    while found < 200:
        u = random_braid_word(rng, 16)
        v = random_braid_word(rng, 16)
        if dd_sign(u) is Sign3.POSITIVE and dd_sign(v) is Sign3.POSITIVE:
            assert dd_sign(u + v) is Sign3.POSITIVE
            found += 1


def test_dd_compare_examples():
    assert dd_compare((), parse_word("B")) is Ordering.LESS
    assert dd_compare(SIGMA2, ()) is Ordering.LESS
    assert dd_compare(DELTA_SQ, DELTA_SQ) is Ordering.EQUAL


def test_dd_left_invariance():
    rng = random.Random(1005)
    for _ in range(200):
        f = random_braid_word(rng, 12)
        u = random_braid_word(rng, 12)
        v = random_braid_word(rng, 12)
        assert dd_compare(u, v) is dd_compare(f + u, f + v)


def test_conj_sign_examples():
    assert conj_sign(parse_word("B"), ()) is Sign3.POSITIVE
    assert conj_sign(parse_word("aBA"), SIGMA1) is Sign3.POSITIVE
    assert conj_sign(SIGMA2, SIGMA1) is Sign3.POSITIVE


def test_conj_identity_matches_dd():
    rng = random.Random(1006)
    for _ in range(100):
        word = random_braid_word(rng, 16)
        assert conj_sign(word, ()) is dd_sign(word)


def test_delta_floor_examples():
    assert delta_floor(parse_word("B")) == 0
    assert delta_floor(word_power(DELTA, 4)) == 2
    assert delta_floor(word_power(DELTA_SQ, -1) + parse_word("B")) == -1
    assert delta_floor(()) == 0


def test_delta_floor_bracket_and_cofinality():
    rng = random.Random(1007)
    for _ in range(120):
        word = random_braid_word(rng, 14)
        m = delta_floor(word)
        assert -len(word) <= m <= len(word)
        assert dd_compare(word_power(DELTA_SQ, m), word) is not Ordering.GREATER
        assert dd_compare(word, word_power(DELTA_SQ, m + 1)) is Ordering.LESS


def test_malyutin_floor_subadditivity():
    # From the product inequalities: floor(ab) lies between
    # floor(a) + floor(b) and floor(a) + floor(b) + 1.
    rng = random.Random(1008)
    for _ in range(120):
        a = random_braid_word(rng, 10)
        b = random_braid_word(rng, 10)
        fa, fb, fab = delta_floor(a), delta_floor(b), delta_floor(a + b)
        assert fa + fb <= fab <= fa + fb + 1


def test_conjugate_bound():
    # Delta^-2 < b^-1 s2^k b < Delta^2 for every braid b and integer k.
    rng = random.Random(1009)
    for _ in range(100):
        beta = random_braid_word(rng, 12)
        for k in range(-5, 6):
            conj = invert_word(beta) + word_power(SIGMA2, k) + beta
            assert dd_compare(word_power(DELTA_SQ, -1), conj) is Ordering.LESS
            assert dd_compare(conj, DELTA_SQ) is Ordering.LESS


def test_property_s_instance():
    # For beta not commuting with s2 and k != 0, the conjugate
    # beta^-1 s2^k beta is 1-positive iff k > 0.  It is not a power of s2
    # (the only candidate exponent is its exponent sum), so its DD sign is
    # positive exactly when it is 1-positive.
    rng = random.Random(1010)
    checked = 0
    while checked < 60:
        beta = random_braid_word(rng, 10)
        if commutes_with_sigma2(beta):
            continue
        checked += 1
        for k in (-3, -1, 1, 2):
            conj = invert_word(beta) + word_power(SIGMA2, k) + beta
            assert not is_trivial(conj + word_power(SIGMA2, -exponent_sum(conj)))
            assert (dd_sign(conj) is Sign3.POSITIVE) == (k > 0)


def test_commutes_with_sigma2():
    assert commutes_with_sigma2(word_power(SIGMA2, 5))
    assert commutes_with_sigma2(DELTA_SQ)
    assert not commutes_with_sigma2(SIGMA1)


def test_delta_squared_is_central():
    rng = random.Random(1011)
    for _ in range(60):
        word = random_braid_word(rng, 16)
        commutator = DELTA_SQ + word + word_power(DELTA_SQ, -1) + invert_word(word)
        assert is_trivial(commutator)


def test_peripheral_parse():
    # s2 Delta^2
    assert peripheral_parse(parse_word("babaaba")) == PeripheralElement(1, 1)
    # s2^2 Delta^2
    assert peripheral_parse(parse_word("bbabaaba")) == PeripheralElement(2, 1)
    assert peripheral_parse(SIGMA1) is None
    assert peripheral_parse(()) == PeripheralElement(0, 0)
    # scrambled representative of s2^-1 Delta^-2
    word = word_power(DELTA_SQ, -1) + word_power(SIGMA2, -1)
    assert peripheral_parse(word) == PeripheralElement(-1, -1)


def test_delta_floor_bound_exceeded_is_unreachable_for_valid_words():
    # The Malyutin bound always suffices; spot-check at the boundary.
    assert delta_floor(DELTA_SQ) == 1
    assert delta_floor(word_power(DELTA_SQ, -1)) == -1


def test_sampler_determinism():
    assert random_braid_words(7, 5, 12) == random_braid_words(7, 5, 12)


# --- differential tests against straightforward reference versions --------
#
# The oracles are simple, slower versions of handle_reduce, delta_floor and
# peripheral_parse: a handle reduction that rebuilds the syllable list on
# every step (same handle order, so the same words and step counts), a
# floor search that brackets at m = -L and L + 1 and decides each
# comparison by handle reduction, and a recognizer that tries all 2L+1
# exponents through the central quotient.  The handle order itself is
# pinned by the golden case braid_reduce_order.


def _oracle_syllables(word):
    stack = []
    for x in word:
        gen = 1 if abs(x) == 1 else 2
        exp = 1 if x > 0 else -1
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return stack


def _oracle_letters(sylls):
    out = []
    for gen, exp in sylls:
        out.extend([gen if exp > 0 else -gen] * abs(exp))
    return tuple(out)


def _oracle_handle_reduce(word, step_cap=STEP_CAP):
    s = _oracle_syllables(word)
    steps = 0
    scan_from = 0
    while True:
        i = scan_from
        found = -1
        while i + 2 < len(s):
            if s[i][0] == 1 and (s[i][1] > 0) != (s[i + 2][1] > 0):
                found = i
                break
            i += 1
        if found < 0 and scan_from > 0:
            scan_from = 0
            continue
        if found < 0:
            return _oracle_letters(s)
        steps += 1
        if steps > step_cap:
            raise ValueError("oracle step cap")
        e1 = s[found][1]
        sgn = 1 if e1 > 0 else -1
        m = s[found + 1][1]
        e2 = s[found + 2][1]
        pieces = [[1, e1 - sgn], [2, -sgn], [1, m], [2, sgn], [1, e2 + sgn]]
        stack = s[:found]
        low = len(stack)
        for gen, exp in pieces:
            if exp == 0:
                continue
            if stack and stack[-1][0] == gen:
                stack[-1][1] += exp
                if stack[-1][1] == 0:
                    stack.pop()
                    low = min(low, len(stack))
            else:
                stack.append([gen, exp])
        j = found + 3
        while j < len(s):
            gen, exp = s[j]
            if stack and stack[-1][0] == gen:
                stack[-1][1] += exp
                if stack[-1][1] == 0:
                    stack.pop()
                    low = min(low, len(stack))
                j += 1
            else:
                stack.extend(s[j:])
                break
        s = stack
        scan_from = max(0, low - 2)


def _reference_dd_sign(word):
    # the letter-level definition: scan the handle-reduced letters for s1;
    # an s1-free reduced word is a power of s2, positive iff negative
    reduced = handle_reduce(word)
    if not reduced:
        return Sign3.TRIVIAL
    for x in reduced:
        if abs(x) == 1:
            return Sign3.POSITIVE if x > 0 else Sign3.NEGATIVE
    return Sign3.POSITIVE if reduced[0] < 0 else Sign3.NEGATIVE


def _reduced_at_most(m, word):
    # Delta^2m <= word, decided by handle reduction
    return _reference_dd_sign(word_power(DELTA_SQ, -m) + word) is not Sign3.NEGATIVE


def _oracle_delta_floor(word):
    bound = len(word)

    def at_most(m):
        return _reduced_at_most(m, word)

    lo, hi = -bound, bound + 1
    if not at_most(lo) or at_most(hi):
        raise ValueError("oracle bound")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _oracle_peripheral_parse(word):
    img = modular_image(word)
    esum = exponent_sum(word)
    for k in range(-len(word), len(word) + 1):
        if modular_image(word_power(SIGMA2, k)) != img:
            continue
        if (esum - k) % 6 != 0:
            continue
        l = (esum - k) // 6
        if is_trivial(word + word_power(DELTA_SQ, -l) + word_power(SIGMA2, -k)):
            return PeripheralElement(k, l)
    return None


def _planted_trivial(rng, max_len):
    # u v u^-1 v^-1 with v a conjugate of a relator: trivial, not freely so.
    u = random_braid_word(rng, max_len // 4)
    v = u + BRAID_RELATOR + invert_word(u)
    return u + v + invert_word(u) + invert_word(v)


def _random_word(rng, min_len, max_len):
    """A word of min_len to max_len letters, drawn as ``random_braid_word``
    draws one of 0 to max_len."""
    length = rng.randint(min_len, max_len)
    return tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))


def _oracle_steps(word):
    """Fewest step_cap values the oracle accepts, by bisection."""
    lo, hi = -1, 1
    while True:
        try:
            _oracle_handle_reduce(word, step_cap=hi)
            break
        except ValueError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _oracle_handle_reduce(word, step_cap=mid)
            hi = mid
        except ValueError:
            lo = mid
    return hi


def test_handle_reduce_matches_oracle_on_random_words():
    rng = random.Random(2001)
    for _ in range(2000):
        word = random_braid_word(rng, 700)
        assert handle_reduce(word) == _oracle_handle_reduce(word), word_str(word)


def test_handle_reduce_matches_oracle_on_planted_trivial_words():
    rng = random.Random(2002)
    for _ in range(300):
        word = _planted_trivial(rng, 400)
        assert is_trivial(word)
        assert handle_reduce(word) == _oracle_handle_reduce(word) == ()


def test_handle_reduce_step_count_matches_oracle(monkeypatch):
    rng = random.Random(2003)
    for _ in range(150):
        word = random_braid_word(rng, 160)
        steps = _oracle_steps(word)
        monkeypatch.setattr(braid, "STEP_CAP", steps)
        handle_reduce(word)
        if steps:
            monkeypatch.setattr(braid, "STEP_CAP", steps - 1)
            message = (f"^handle reduction exceeded {steps - 1} steps on a word "
                       f"of {len(word)} letters$")
            with pytest.raises(OverflowError, match=message):
                handle_reduce(word)


def test_handle_reduce_long_word():
    rng = random.Random(2004)
    word = _random_word(rng, 16384, 16384)
    reduced = handle_reduce(word)
    assert exponent_sum(reduced) == exponent_sum(word)
    assert modular_image(reduced) == modular_image(word)
    assert len({x > 0 for x in reduced if abs(x) == 1}) <= 1


def test_delta_floor_matches_oracle():
    rng = random.Random(2005)
    for _ in range(300):
        word = random_braid_word(rng, 30)
        assert delta_floor(word) == _oracle_delta_floor(word)
    for m in range(-6, 7):
        for tail in ((), SIGMA1, parse_word("B"), parse_word("ab")):
            word = word_power(DELTA_SQ, m) + tail
            assert delta_floor(word) == _oracle_delta_floor(word)
    for _ in range(4):
        word = _random_word(rng, 200, 300)
        assert delta_floor(word) == _oracle_delta_floor(word)


def test_peripheral_parse_matches_oracle():
    rng = random.Random(2006)
    for _ in range(1500):
        word = random_braid_word(rng, 30)
        assert peripheral_parse(word) == _oracle_peripheral_parse(word)
    for k in range(-8, 9):
        for l in range(-8, 9):
            word = list(word_power(SIGMA2, k) + word_power(DELTA_SQ, l))
            for _ in range(3):
                i = rng.randint(0, len(word))
                x = rng.choice((1, -1, 2, -2))
                word[i:i] = [x, -x]
            word = tuple(word)
            assert peripheral_parse(word) == PeripheralElement(k, l)
            assert _oracle_peripheral_parse(word) == PeripheralElement(k, l)


# --- the lift against handle reduction ------------------------------------


def _reference_syllables(word):
    # free reduction, then each run of one generator is a syllable
    reduced = free_reduce_word(word)
    return [[gen, sum(1 if x > 0 else -1 for x in run)]
            for gen, run in groupby(reduced, abs)]


def _unreduced_delta_floor(word):
    # the doubling search from m = 0 that delta_floor ran before the lift,
    # each comparison decided by handle reduction on the input word
    bound = len(word)

    def at_most(m):
        return _reduced_at_most(m, word)

    up = at_most(0)
    limit = bound + 1 if up else -bound
    inside, step = 0, 1
    while True:
        m = min(step, limit) if up else max(-step, limit)
        if at_most(m) is not up:
            break
        assert m != limit, "range exhausted"
        inside, step = m, 2 * step
    lo, hi = (inside, m) if up else (m, inside)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _grid_words(conjugators, bound):
    for g in conjugators:
        for k in range(-bound, bound + 1):
            for l in range(-bound, bound + 1):
                yield invert_word(g) + word_power(SIGMA2, k) + word_power(DELTA_SQ, l) + g


def _sign_test_words():
    rng = random.Random(2007)
    words = [random_braid_word(rng, 50) for _ in range(3000)]
    words += [_random_word(rng, 512, 8192) for _ in range(12)]
    words += [_planted_trivial(rng, 400) for _ in range(200)]
    words += [_planted_trivial(rng, rng.randint(512, 8192)) for _ in range(12)]
    conjugators = random_braid_words(2008, 24, 10) + [(), SIGMA1, SIGMA2, DELTA_SQ]
    words += list(_grid_words(conjugators, 4))
    # pure powers of s2, the reduced words without an s1 syllable
    words += [word_power(SIGMA2, k) for k in range(-5, 6)]
    words += [parse_word("aA") + word_power(SIGMA2, k) + parse_word("Bb") for k in range(-5, 6)]
    return words


def test_syllables_match_free_reduction_by_runs():
    for word in _sign_test_words():
        assert braid._syllables(word) == _reference_syllables(word), word_str(word)


def test_dd_sign_matches_letter_level_definition():
    signs = set()
    for word in _sign_test_words():
        sign = dd_sign(word)
        assert sign is _reference_dd_sign(word), word_str(word)
        signs.add(sign)
    assert signs == set(Sign3)


def test_delta_floor_brackets_by_handle_reduction():
    # Delta^2m <= word < Delta^(2m+2), both comparisons by handle reduction
    floors = set()
    for word in _sign_test_words():
        if len(word) > 1024:
            continue
        m = delta_floor(word)
        assert _reduced_at_most(m, word), word_str(word)
        assert not _reduced_at_most(m + 1, word), word_str(word)
        floors.add(m)
    assert {-1, 0, 1} <= floors


def test_delta_floor_matches_search_on_unreduced_word():
    rng = random.Random(2009)
    for _ in range(100):
        word = _random_word(rng, 64, 1024)
        assert delta_floor(word) == _unreduced_delta_floor(word), word_str(word)


def test_commutes_with_sigma2_matches_the_commutator():
    # the lift's base-line test against the word problem on [word, s2]
    rng = random.Random(2010)
    words = [random_braid_word(rng, 30) for _ in range(1000)]
    words += list(_grid_words(random_braid_words(2011, 4, 6) + [SIGMA2], 2))
    commuting = 0
    for word in words:
        commutator = word + SIGMA2 + invert_word(word) + word_power(SIGMA2, -1)
        expected = is_trivial(commutator)
        assert commutes_with_sigma2(word) is expected, word_str(word)
        commuting += expected
    assert commuting >= 25


def _planted_central(rng, n):
    """w r^-1 rotated, with r = w with n // 16 pairs Delta^2 ... Delta^-2
    inserted at random places: trivial, since Delta^2 is central."""
    w = list(_random_word(rng, n // 2, n // 2))
    r = w[:]
    for _ in range(n // 16):
        lo, hi = sorted(rng.randrange(len(r) + 1) for _ in range(2))
        r[hi:hi] = word_power(DELTA_SQ, -1)
        r[lo:lo] = DELTA_SQ
    word = tuple(w) + invert_word(tuple(r))
    cut = rng.randrange(len(word))
    return word[cut:] + word[:cut]


def test_planted_trivial_word_past_the_step_cap():
    word = _planted_central(random.Random(2012), 48000)
    assert len(word) == 84000
    with pytest.raises(OverflowError, match="handle reduction exceeded"):
        handle_reduce(word)
    assert dd_sign(word) is Sign3.TRIVIAL
    assert is_trivial(word)
    assert delta_floor(word) == 0
    assert dd_sign(word + SIGMA1) is Sign3.POSITIVE


# --- orders read at lifted points against the built words -----------------

_ORDERING_OF_SIGN = {
    Sign3.POSITIVE: Ordering.LESS,
    Sign3.TRIVIAL: Ordering.EQUAL,
    Sign3.NEGATIVE: Ordering.GREATER,
}


def _alternating(n):
    # (s1 s2^-1)^n, whose lift grows by 0.69 bits a letter
    return word_power(parse_word("aB"), n)


def _point_reading_words():
    rng = random.Random(2026)
    words = [random_braid_word(rng, 300) for _ in range(60)]
    return words + [_alternating(n) for n in (1, 7, 50, 200)]


def test_conj_sign_matches_the_conjugated_word():
    # conj_sign walks the word on from the conjugator's lifted point; the
    # built word g^-1 w g, walked from the base point, must agree
    grids = [
        [word_power(SIGMA2, k) + word_power(DELTA_SQ, l)
         for k in range(-b, b + 1) for l in range(-b, b + 1)]
        for b in (1, 4, 8)
    ]
    # conjugators in <s2, Delta^2> fix the lifted point of every s2^k
    peripheral = [word_power(SIGMA2, j) + word_power(DELTA_SQ, i)
                  for j in (-3, 0, 1, 4) for i in (-2, 0, 1)]
    conjugators = random_braid_words(2027, 24, 12) + peripheral
    conjugators += [SIGMA1, _alternating(9)]
    pairs = [(w, g) for g in conjugators for grid in grids for w in grid]
    long_words = _point_reading_words()
    pairs += [(w, g) for w, g in zip(long_words, long_words[1:] + long_words[:1])]
    pairs += [(word_power(SIGMA2, k), g) for g in long_words for k in (-2, 0, 3)]
    mismatches, signs, fixed = [], set(), 0
    for w, g in pairs:
        sign = conj_sign(w, g)
        if sign is not dd_sign(invert_word(g) + w + g):
            mismatches.append((word_str(w), word_str(g)))
        signs.add(sign)
        start = braid._lift(g, braid._BASE)
        fixed += exponent_sum(w) != 0 and braid._lift(w, start) == start
    assert mismatches == []
    assert signs == set(Sign3)
    assert fixed >= 100  # the equal-point branch, at nonzero powers of s2


def test_dd_compare_matches_the_quotient_word():
    # dd_compare compares two lifted points; the built word u^-1 v, walked
    # from the base point, must agree
    rng = random.Random(2028)
    words = _point_reading_words() + [random_braid_word(rng, 40) for _ in range(200)]
    pairs = [(u, v) for u, v in zip(words, words[1:])]
    # u^-1 v = s2^k: the lifted points are equal
    pairs += [(u, u + word_power(SIGMA2, k)) for u in words for k in (-3, -1, 0, 2)]
    pairs += [(u + word_power(SIGMA2, k), u + word_power(DELTA_SQ, l))
              for u in words[:40] for k in (-1, 1) for l in (-1, 0, 1)]
    pairs += [(_alternating(n), _alternating(m))
              for n in (0, 3, 50) for m in (0, 4, 51)]
    mismatches, seen = [], set()
    for u, v in pairs:
        order = dd_compare(u, v)
        if order is not _ORDERING_OF_SIGN[dd_sign(invert_word(u) + v)]:
            mismatches.append((word_str(u), word_str(v)))
        seen.add(order)
    assert mismatches == []
    assert seen == set(Ordering)
