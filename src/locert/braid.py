"""Exact computation in the braid group B3 = <s1, s2 | s1 s2 s1 = s2 s1 s2>.

Words are tuples of nonzero integers: +1 for s1, -1 for s1^-1, +2 for s2,
-2 for s2^-1.  The ASCII syntax is ``a`` = s1, ``A`` = s1^-1, ``b`` = s2,
``B`` = s2^-1, with whitespace ignored, so words round-trip bit-exactly
through the CLI.  Words concatenate with tuple ``+``.  A braid word is a
group word over (s1, s2), so its type is ``words.GroupWord`` and its
powers are ``words.word_power``; a sign in the DD ordering is a
``words.Sign3``.

Four procedures decide the word problem, and they cross-validate each
other:

* the quotient of B3 by its center is Z/2 * Z/3 (s1 -> b^2 a, s2 -> a b^2,
  where a is the image of Delta = s1 s2 s1 and b of s1 s2); a word is
  trivial iff its image reduces to the empty normal form AND its exponent
  sum vanishes (the kernel of the quotient is generated by Delta^2, which
  has exponent sum 6).  ``is_trivial`` reads it; no command does, and
  the tests and the benchmark's verdict references check the others
  against it;
* Dehornoy-style handle reduction, which rewrites a word into one in which
  s1 occurs with a single sign only (or not at all); it raises
  OverflowError past ``STEP_CAP`` rewriting steps.  ``handle_reduce``
  runs it; no command does, and the tests check the normal form below
  against it.  It holds the freely reduced word as plain syllable
  exponents in two stacks and looks for each next handle in place, from
  the first syllable triple the last rewrite can have changed: O(1) a
  step, plus O(L) a pass from the start;
* the lift of the action of SL(2, Z) on the circle of rays (``_lift``): B3
  is the preimage of SL(2, Z) in the universal cover of SL(2, R), so a
  braid is determined by its image matrix and a count of half-turns.  The
  Dubrovina-Dubrovin (DD) left ordering of B3 is the order this action
  induces at the ray (0, 1), and every order is read at lifted points.
  The lift F_g of a braid g is increasing, so g^-1 w g > 1 iff
  F_w(F_g(0)) > F_g(0), and u < v iff F_v(0) > F_u(0); when the points
  are equal, the quotient is a power of s2.  So no inverse or conjugated
  word is built.  ``dd_sign``, ``dd_compare``, ``lifted_point``,
  ``delta_floor``, ``commutes_with_sigma2`` and ``peripheral_parse`` read
  the lift, and through them ``braid sign``, ``compare`` and ``floor`` and
  ``verify proposition-4-3``.  ``conj_sign`` walks nothing: the peripheral
  element s2^k Delta^(2l) moves a lifted point in closed form, so one
  walk of a conjugator serves every grid point of ``verify
  proposition-4-3``, and each point costs O(1) integer operations.  The
  lift costs one integer step per letter and has no step cap;
* the DD normal form (``dd_normal_form``), which ``braid reduce`` prints.
  The DD positive cone is the semigroup generated by a = s1 s2 and
  b = s2^-1, and a positive braid is peeled from the left, a before b,
  each remainder's sign read at its lifted point.  Equal braids get equal
  words, in which s1 occurs with one sign only (or not at all).  It has
  no step cap.

A braid is DD-positive iff it admits a 1-positive representative (s1 only
with positive exponents) or equals s2^k with k < 0.  Handle reduction finds
such a representative, and the normal form of a positive braid is one, so
each is the other's cross-check, and both are the lift's.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .words import GroupWord, Sign3, invert_word, word_power

__all__ = [
    "Ordering",
    "PeripheralElement",
    "SIGMA1",
    "SIGMA2",
    "read_word",
    "parse_word",
    "word_str",
    "exponent_sum",
    "modular_image",
    "is_trivial",
    "handle_reduce",
    "dd_sign",
    "dd_compare",
    "lifted_point",
    "conj_sign",
    "delta_floor",
    "commutes_with_sigma2",
    "peripheral_parse",
    "dd_normal_form",
]

# Bounds ``handle_reduce``, which only the cross-checks run: no command meets it.
STEP_CAP = 1_000_000

# ``read_word``'s table: A, B, a and b (bytes 65, 66, 97 and 98) to 0xFF, 0xFE,
# 1 and 2, which read as signed bytes are the letters -1, -2, 1 and 2, and
# every other byte to 0.
_LETTER_OF_BYTE = bytes(65) + b"\xff\xfe" + bytes(30) + b"\x01\x02" + bytes(157)
# ``word_str``'s table: the byte letter + 2 to its character (-2, -1, 1, 2 to
# B, A, a, b), and every other byte to 0xFF, which no ASCII decode accepts.
_CHAR_OF_BYTE = b"BA\xffab" + b"\xff" * 251


class Ordering(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class PeripheralElement(NamedTuple):
    """Element s2^k Delta^(2l) of the peripheral subgroup <s2, Delta^2>."""

    k: int
    l: int


def read_word(text: str) -> tuple[str, GroupWord]:
    """Parse ASCII braid syntax (a/A/b/B, whitespace ignored): ``text`` with
    its whitespace removed, and the word it spells.

    ``str.split`` drops exactly the characters that ``str.isspace`` calls
    whitespace.  The rest is read in C: the ASCII encode writes one ``?``
    for each other character, so byte i is character i, and
    ``bytes.translate`` maps each letter to its signed byte and every other
    byte to 0.  The first 0 names the first character that is no letter,
    which raises ValueError; otherwise the bytes, read as signed, are the
    word.  Each letter is one character, so the text returned is
    ``word_str`` of the word.
    """
    compact = "".join(text.split())
    codes = compact.encode("ascii", "replace").translate(_LETTER_OF_BYTE)
    bad = codes.find(0)
    if bad >= 0:
        raise ValueError(f"invalid braid letter {compact[bad]!r}")
    return compact, tuple(memoryview(codes).cast("b"))


def parse_word(text: str) -> GroupWord:
    """The word that ``text`` spells, as ``read_word`` parses it."""
    return read_word(text)[1]


def word_str(word: GroupWord) -> str:
    """The ASCII syntax of ``word``, built in C: each letter plus 2 is a byte
    in 0..4, which ``bytes.translate`` maps to its character.  Any other
    integer raises ValueError, from ``bytes`` when it plus 2 lies outside
    0..255, and from the ASCII decode of the 0xFF it maps to otherwise.
    """
    return bytes(map((2).__add__, word)).translate(_CHAR_OF_BYTE).decode("ascii")


SIGMA1: GroupWord = (1,)
SIGMA2: GroupWord = (2,)


def exponent_sum(word: GroupWord) -> int:
    """Sum of letter signs; a homomorphism B3 -> Z (Delta^2 maps to 6).

    The letters are +-1 and +-2 only, so the sum is the length less twice
    the count of inverse letters, which ``tuple.count`` takes in C.
    """
    return len(word) - 2 * (word.count(-1) + word.count(-2))


# --- quotient by the center: Z/2 * Z/3 ------------------------------------

# Letter images in the free product <abar | abar^2> * <bbar | bbar^3>,
# encoded as ("a", exp mod 2) / ("b", exp mod 3) tokens.
_MOD_IMAGE = {
    1: (("b", 2), ("a", 1)),
    -1: (("a", 1), ("b", 1)),
    2: (("a", 1), ("b", 2)),
    -2: (("b", 1), ("a", 1)),
}
_TOKEN_ORDER = {"a": 2, "b": 3}


def modular_image(word: GroupWord) -> tuple[tuple[str, int], ...]:
    """Image in Z/2 * Z/3, as the alternating normal form.

    Tokens are ("a", 1), ("b", 1) or ("b", 2); the empty tuple is the
    identity.  Adjacent same-kind tokens merge with exponents taken mod 2
    (for a) or mod 3 (for b), cascading like free reduction.
    """
    stack: list[tuple[str, int]] = []
    for x in word:
        for kind, exp in _MOD_IMAGE[x]:
            if stack and stack[-1][0] == kind:
                exp = (stack[-1][1] + exp) % _TOKEN_ORDER[kind]
                stack.pop()
                if exp:
                    stack.append((kind, exp))
            else:
                stack.append((kind, exp))
    return tuple(stack)


def is_trivial(word: GroupWord) -> bool:
    """Exact word problem: trivial iff the exponent sum is 0 and the
    central-quotient image is empty (the kernel of the quotient is
    <Delta^2> and exponent_sum(Delta^2) = 6)."""
    return exponent_sum(word) == 0 and not modular_image(word)


# --- handle reduction ------------------------------------------------------


def _syllables(word: GroupWord) -> tuple[int, list[int]]:
    """Freely reduced syllable form, exponents only: ``(gen, exps)`` with
    ``exps`` the nonzero syllable exponents in order and ``gen`` in {1, 2}
    the generator of the last syllable (0 when there is none).  Adjacent
    generators are distinct, so they alternate: syllable i has generator
    ``gen`` when len(exps) - 1 - i is even, and 3 - ``gen`` (``gen ^ 3``)
    otherwise."""
    exps: list[int] = []
    gen = 0
    for x in word:
        if x > 0:
            if x == gen:
                exp = exps[-1] + 1
                if exp:
                    exps[-1] = exp
                else:
                    exps.pop()
                    gen = gen ^ 3 if exps else 0
            else:
                gen = x
                exps.append(1)
        elif -x == gen:
            exp = exps[-1] - 1
            if exp:
                exps[-1] = exp
            else:
                exps.pop()
                gen = gen ^ 3 if exps else 0
        else:
            gen = -x
            exps.append(-1)
    return gen, exps


def _letters(gen: int, exps: list[int]) -> GroupWord:
    """The letters of the syllables ``(gen, exps)`` of ``_syllables``."""
    if not len(exps) % 2:
        gen ^= 3  # the generator of the first syllable
    out: list[int] = []
    for exp in exps:
        out += [gen if exp > 0 else -gen] * abs(exp)
        gen ^= 3
    return tuple(out)


def handle_reduce(word: GroupWord) -> GroupWord:
    """Dehornoy handle reduction, specialized to B3: the reduced word.  The
    reduction runs on the exponents of ``_syllables`` and expands them to
    letters once, at the end.

    After free reduction, an s1-handle is a subword s1^e s2^m s1^-e whose
    interior (a power of s2, since the word is freely reduced) contains no
    s1 letters.  A handle is rewritten by

        s1^e s2^m s1^-e  ->  s2^-e s1^sgn(m) s2^e  repeated |m| times,

    which freely telescopes to s2^-e s1^m s2^e; working on syllables makes
    each step O(1) splicing and never grows the letter count.  Iteration
    terminates (a theorem of Dehornoy) with a word in which s1 occurs with
    one sign only, or not at all.

    Handle order: a pass from the start rewrites the first handle.  Free
    merging after a rewrite changes the syllable list no further left than
    index ``low`` (the shortest the prefix got), so the next handle taken
    is the first one whose syllable triple starts at or after ``low - 2``.
    That is not always the leftmost handle: a merge into syllable
    ``low - 1`` can complete a handle at ``low - 3``.  When no handle lies
    at or after the resume triple, a new pass from the start follows, and
    the word is reduced once such a pass finds none.

    The word is held as two stacks of plain integer exponents: the prefix
    ``left``, which ends in the handle being rewritten, and the reversed
    suffix ``right``.  Generators alternate, so the generator of an entry
    follows from the generator of its stack's top and the index parity;
    no syllable is a list.  A rewrite replaces the top three exponents of
    ``left`` and merges into the top of ``right``, at O(1) cost.  The next
    handle is looked for by index inside ``left``, at the s1 triples from
    the resume triple on, and the rest of ``left`` moves to ``right`` in one
    slice; only past the end of ``left`` do syllables move over from
    ``right``, one per triple checked.  A call costs O(L + steps) plus O(L)
    for each further pass from the start.  Random words of 512 to 8192
    letters take 0.5 to 1.4 steps a letter, about 1.7 triples checked a
    step, and 2 to 4 passes in all on average.

    Raises OverflowError past ``STEP_CAP`` rewriting steps.  Termination is a
    theorem, but it does not bound the step count by ``STEP_CAP``.
    """
    step_cap = STEP_CAP
    gen, left = _syllables(word)  # gen: the generator of left[-1], 0 if empty
    right: list[int] = []
    rgen = 0  # the generator of right[-1]
    start = 0  # the resume triple: a pass from the start when 0
    steps = 0
    while True:
        # s1 sits at the indices i = len(left) - gen mod 2, and x ^ y < 0
        # iff the exponents x and y differ in sign.
        n = len(left)
        i = start + ((n - gen - start) & 1)
        while i < n - 2 and (left[i] ^ left[i + 2]) >= 0:
            i += 2
        if i < n - 2:
            right += left[:i + 2:-1]
        else:
            # No handle inside ``left``: walk on into the suffix.
            while right:
                gen = gen ^ 3 if left else rgen
                left.append(right.pop())
                if gen == 1 and len(left) > 2 and (left[-3] ^ left[-1]) < 0:
                    break
            else:
                if not start:
                    return _letters(gen, left)
                start = 0
                continue
            i = len(left) - 3
        # The handle is left[i:i + 3]; the rest of the word is ``right``
        # read from its top down.
        steps += 1
        if steps > step_cap:
            raise OverflowError(
                f"handle reduction exceeded {step_cap} steps on a word of "
                f"{len(word)} letters"
            )
        e1, m, e2 = left[i:i + 3]
        del left[i:]
        low = i
        gen = 2 if i else 0  # the syllable before a handle is an s2 one
        sgn = 1 if e1 > 0 else -1
        g = 1  # the generator of the piece
        for exp in (e1 - sgn, -sgn, m, sgn, e2 + sgn):
            if exp:
                if g == gen:
                    exp += left[-1]
                    if exp:
                        left[-1] = exp
                    else:
                        left.pop()
                        gen = gen ^ 3 if left else 0
                        if len(left) < low:
                            low = len(left)
                else:
                    left.append(exp)
                    gen = g
            g ^= 3
        # Merge into the suffix, whose top is an s2 syllable; cancellations
        # may cascade both ways.
        rgen = 2
        while right and gen == rgen:
            exp = left[-1] + right.pop()
            rgen ^= 3
            if exp:
                left[-1] = exp
                break
            left.pop()
            gen = gen ^ 3 if left else 0
            if len(left) < low:
                low = len(left)
        start = low - 2 if low > 2 else 0


# --- the Dubrovina-Dubrovin ordering ---------------------------------------

# The ray (0, 1) at half-turn count 0: the lifted point of the identity.
_BASE = (0, 1, 0)
# Read per grid point, so bound once (the convention at ``words.Sign3``).
_POSITIVE = Sign3.POSITIVE
_NEGATIVE = Sign3.NEGATIVE
_TRIVIAL = Sign3.TRIVIAL


def _lift(word: GroupWord, point: tuple[int, int, int]) -> tuple[int, int, int]:
    """The image of the lifted point ``point`` = (x, y, h) under the left
    action of ``word``, with s1 -> [[1, 1], [0, 1]] and s2 -> [[1, 0], [-1, 1]]:
    the vector (x, y) and the count h of half-turns on the lifted line.
    ``_lift(word, _BASE)`` is the lifted point of ``word``, and walking v
    from the lifted point of u gives the lifted point of v u.

    Both positive generators turn every ray they move clockwise, by less
    than a half-turn, and Delta^2 maps to -I, a clockwise half-turn.  With
    the angle t measured clockwise from (0, 1), h = floor(t / pi), so the
    ray sits on the base line x = 0 exactly when t = h pi.  The word is read
    right to left: s2^+-1 sets y -= +-x and fixes the base line, so it
    never changes h; s1^+-1 sets x += +-y, and h moves by +-1 when x crosses
    the base line by the half-open rule (s1 onto or across it, s1^-1 off
    or across it).  One integer step per letter.  Each generator matrix has
    norm (1 + sqrt 5) / 2, so the operands grow by at most 0.7 bits a
    letter: the cost is O(L^2) bit operations at worst, which (s1 s2^-1)^n
    reaches, and far less on words whose matrices stay small.
    """
    x, y, h = point
    for letter in reversed(word):
        if letter == 2:
            y -= x
        elif letter == -2:
            y += x
        elif letter == 1:
            new = x + y
            if x < 0 <= new or new <= 0 < x:
                h += 1
            x = new
        else:
            new = x - y
            if x <= 0 < new or new < 0 <= x:
                h -= 1
            x = new
    return x, y, h


def _order(start: tuple[int, int, int], end: tuple[int, int, int]) -> Sign3 | None:
    """The DD sign of g^-1 b g for braids g and b with ``start`` the lifted
    point F_g(0) and ``end`` = F_b(``start``), or None when the points are
    equal.

    Lifts are increasing, so F_{g^-1 b g}(0) > 0 iff F_b(F_g(0)) > F_g(0):
    the sign is positive iff ``end`` lies ahead of ``start``.  The larger h
    is ahead.  At equal h both angles lie in one half-open half-turn, where
    the cross product x y' - y x' of (x, y) = ``start`` and (x', y') =
    ``end`` is negative iff ``end`` is ahead.  Equal points leave g^-1 b g
    fixing the base ray, so it is a power of s2 (``_s2_power_sign``).
    """
    x, y, h = start
    x2, y2, h2 = end
    if h != h2:
        return _POSITIVE if h2 > h else _NEGATIVE
    cross = x * y2 - y * x2
    if cross:
        return _POSITIVE if cross < 0 else _NEGATIVE
    return None


def _s2_power_sign(k: int) -> Sign3:
    """The DD sign of s2^k: the braids fixing the base ray are the powers
    of s2, and s2^k is positive iff k < 0."""
    if k < 0:
        return _POSITIVE
    return _NEGATIVE if k else _TRIVIAL


def dd_sign(word: GroupWord) -> Sign3:
    """Sign in the Dubrovina-Dubrovin ordering: ``word``'s lifted point
    against the base point.

    The word is positive iff it turns the base ray clockwise: h > 0, or
    h = 0 off the base line.  It is negative iff h < 0.  Otherwise it fixes
    the ray, and is s2^k with k its exponent sum.
    """
    return _order(_BASE, _lift(word, _BASE)) or _s2_power_sign(exponent_sum(word))


def dd_compare(u: GroupWord, v: GroupWord) -> Ordering:
    """Compare in the DD ordering: u < v iff u^-1 v is DD-positive, so iff
    v's lifted point lies ahead of u's.  At equal points u^-1 v is s2^k,
    with k the exponent-sum difference."""
    sign = _order(_lift(u, _BASE), _lift(v, _BASE)) or _s2_power_sign(
        exponent_sum(v) - exponent_sum(u)
    )
    if sign is _POSITIVE:
        return Ordering.LESS
    if sign is _TRIVIAL:
        return Ordering.EQUAL
    return Ordering.GREATER


def lifted_point(word: GroupWord) -> tuple[int, int, int]:
    """The lifted point F_word(0) = (x, y, h) of ``word``: one walk of its
    letters from the base point."""
    return _lift(word, _BASE)


def conj_sign(k: int, l: int, start: tuple[int, int, int]) -> Sign3:
    """Sign of the peripheral element s2^k Delta^(2l) in the conjugate
    ordering whose positive cone is {w : g^-1 w g DD-positive}, for the
    conjugator g with lifted point ``start`` = (x, y, h) (``lifted_point``):
    the point that s2^k Delta^(2l) walks ``start`` to, against ``start``.

    Nothing is walked.  Delta^2 acts as -I and moves h on by one, and s2^k
    subtracts k x from y, so the end point is ((-1)^l x, (-1)^l (y - k x))
    with half-turn count h moved on by l.  For l != 0 the counts differ, and
    the sign is that of l; for l = 0 the cross product is -k x^2.  The
    points are equal only when l = 0 and k x = 0, and then g^-1 s2^k g is
    s2^k itself.
    """
    x, y, h = start
    flip = -1 if l & 1 else 1
    end = (flip * x, flip * (y - k * x), h + l)
    return _order(start, end) or _s2_power_sign(k)


def delta_floor(word: GroupWord) -> int:
    """The integer m with Delta^2m <=_DD word <_DD Delta^(2m+2).

    Delta^2 turns every ray by a half-turn, so Delta^-2m word has half-turn
    count h - m: the floor is h, the count of ``_lift``.  On the base line
    Delta^-2h word is s2^k with k = exponent sum - 6h, which lies below 1
    iff k > 0, and then the floor is h - 1.
    """
    x, _, h = _lift(word, _BASE)
    if x == 0 and exponent_sum(word) - 6 * h > 0:
        return h - 1
    return h


def commutes_with_sigma2(word: GroupWord) -> bool:
    """Exact commutator check against s2: the centralizer of s2 is
    <s2, Delta^2>, the braids that map the base line x = 0 of ``_lift`` to
    itself.

    It decides the restriction of the DD ordering conjugated by g to
    <s2, Delta^2>: s2^k Delta^(2l) is positive iff l > 0, or l = 0 and
    k < 0 when g commutes with s2, k > 0 when it does not.  The lemma, in
    the terms of ``_lift``: the lift of s2 fixes the base line and turns
    every other ray clockwise by less than a half-turn, and the lift of g is
    monotone, so for g outside <s2, Delta^2> the conjugate g^-1 s2^k g
    moves the base ray by an amount strictly between 0 and pi for k > 0,
    and strictly between -pi and 0 for k < 0; it is positive iff k > 0, and
    its Delta^2 floor is 0 or -1.  Delta^2 is central and turns by pi, so
    l > 0 dominates in either case.
    """
    return _lift(word, _BASE)[0] == 0


def peripheral_parse(word: GroupWord) -> PeripheralElement | None:
    """Recognize membership in <s2, Delta^2>.

    The word lies there iff it maps the base line of ``_lift`` to itself,
    after h half-turns; then Delta^-2h word fixes the base ray, so it is
    s2^k with k = exponent_sum - 6h.  O(L).
    """
    x, _, h = _lift(word, _BASE)
    if x:
        return None
    return PeripheralElement(exponent_sum(word) - 6 * h, h)


# --- the Dubrovina-Dubrovin normal form -------------------------------------


def dd_normal_form(word: GroupWord) -> GroupWord:
    """The DD normal form: a word that depends on the braid only, in which
    s1 occurs with one sign only, or not at all.

    The DD positive cone is the semigroup generated by a = s1 s2 and
    b = s2^-1 (Dubrovina-Dubrovin).  A braid that fixes the base ray is
    s2^k, with k its exponent sum, and is returned as s2^k.  A positive
    braid is peeled from the left by ``_peel``, a before b; a negative one
    is the inverse of its inverse's peel, which walks the inverse word a
    second time.  Each a is written s1 s2 and each b s2^-1, so s1 occurs
    with positive exponents only in a positive braid's form.
    """
    x, y, h = _lift(word, _BASE)
    k = exponent_sum(word)
    if not x and not h:
        return word_power(SIGMA2, k)
    if h > 0 or not h and x > 0:
        return _peel(x, y, h, k)
    inverse = invert_word(word)
    return invert_word(_peel(*_lift(inverse, _BASE), -k))


def _peel(x: int, y: int, h: int, e: int) -> GroupWord:
    """The greedy word in a = s1 s2 and b = s2^-1 of the DD-positive braid r
    with lifted point (x, y, h) and exponent sum e, in s1 and s2 letters.

    Each step peels a when a^-1 r >= 1, and b otherwise.  Then b^-1 r >= 1:
    r is a product of a's and b's, and when none starts with a, one starts
    with b.  The remainder's sign is read from its lifted point, as ``dd_sign``
    reads it.  a^-1 = s2^-1 s1^-1 maps (x, y) to (x - y, x), with h moved by
    s1^-1's half-open rule (``_lift``), and adds -2 to e; b^-1 = s2 sets
    y -= x and adds 1 to e.  On the base ray (x = 0 at h = 0) the remainder
    is s2^e, which is >= 1 iff e <= 0.  The letters are written as peeled,
    a as s1 s2 and b as s2^-1, and a b right after an a cancels its s2:
    that is the free reduction, and no other letters cancel.

    Termination.  a moves every lifted point forward, and a^3 = Delta^2
    moves it by one half-turn, so each a-peel moves the point back, and
    three move it back by exactly one half-turn.  A b-peel happens only when
    a^-1 r < 1, so below the lifted point of a, the ray (1, 1) at angle
    pi/4: at h = 0 with 0 <= x <= y.  There each b-peel lowers y by x, until
    y <= x, and the next a-peel maps x to x - y, with 0 <= x - y < x when
    y > 0: x >= 0 falls, as in the subtractive Euclid algorithm.  At the
    ray (1, 1) itself r = a s2^j, and each b-peel and the a-peel after it
    lower j by one.  Once x = 0 at h = 0, the remainder s2^e with e <= 0
    peels as b^-e.

    Cost: O(1) integer operations a peel, and about as many peels as
    letters.  The operands are the lift's, so the cost is O(L^2) bit
    operations at worst, which (s1 s2^-1)^n reaches: ``braid reduce`` took
    0.007, 0.06 and 0.78-0.80 s in process on it at 8,192, 32,768 and
    131,070 letters (the longest such word an argv string holds), and 2.2 to
    3.4 ms on random words of 8,192 letters, the more on a negative one,
    whose inverse is walked as well (CPython 3.11.7, a 2-CPU Xeon host).
    """
    out: list[int] = []
    while x or h or e:
        nx = x - y
        nh = h - 1 if x <= 0 < nx or nx < 0 <= x else h
        if nh > 0 or not nh and (nx > 0 or not nx and e <= 2):
            x, y, h, e = nx, x, nh, e - 2
            out += (1, 2)
        else:
            y -= x
            e += 1
            if out and out[-1] == 2:
                out.pop()
            else:
                out.append(-2)
    return tuple(out)
