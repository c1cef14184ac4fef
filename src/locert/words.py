"""Group words and signs: the names that several layers share.

A group word is a tuple of nonzero integers, +i / -i meaning the i-th
generator (1-based) or its inverse.  This is the one word layer:
inversion, free reduction and powers.  ``fpgroup`` writes its relators with
them, ``braid``, ``compat`` and ``sampling`` type their B3 words here, and
``braid.dd_normal_form`` builds powers of s2 with ``word_power``.
``Sign3`` is the sign of an element in a left ordering, which ``braid``,
``klein`` and ``compat`` all read.  Past CPython's int <-> str digit
limit, ``parse_int`` refuses an input integer (ValueError) and ``int_str``
a result (OverflowError); ``brief_repr`` echoes input in a diagnostic.
This module imports no other ``locert`` module, so a layer that needs only
these names loads nothing more.
"""

from __future__ import annotations

import sys
from enum import Enum
from operator import neg

__all__ = [
    "GroupWord",
    "Sign3",
    "invert_word",
    "free_reduce_word",
    "word_power",
    "parse_int",
    "int_str",
    "brief_repr",
]

GroupWord = tuple[int, ...]


class Sign3(Enum):
    """The sign of an element in a left ordering.

    Convention for every Enum of the package: a per-item loop (a grid point,
    a slope of a walk) reads members from module constants bound once at
    import, such as ``_POSITIVE = Sign3.POSITIVE``, never through the class.
    On CPython 3.11 ``EnumType`` defines ``__getattr__``, so ``Sign3.POSITIVE``
    takes the slow attribute hook: 140-190 ns on 3.11.7 (``timeit``),
    against about 30 ns for a plain class attribute and 10 ns for a module
    global.  CPython 3.12 dropped that hook (a member read costs about
    30 ns there), so the constants save little on it.
    ``tests/test_hygiene.py`` holds the kernels to the convention.
    """

    POSITIVE = "positive"
    TRIVIAL = "trivial"
    NEGATIVE = "negative"


def invert_word(word: GroupWord) -> GroupWord:
    """The inverse word: the letters reversed and negated, in C."""
    return tuple(map(neg, reversed(word)))


def free_reduce_word(word: GroupWord) -> GroupWord:
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def word_power(word: GroupWord, n: int) -> GroupWord:
    if not word:  # () * n overflows for an n past sys.maxsize
        return ()
    if n < 0:
        return invert_word(word) * (-n)
    return word * n


def parse_int(text: str, message: str) -> int:
    """``int(text)``; ValueError(message) when ``text`` is not an integer, or
    one that echoes only its start when ``text`` is a sign and digits that
    ``int`` refuses, which it does only past the digit limit."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        if digits.isdecimal():
            limit = sys.get_int_max_str_digits()
            message = f"integer {text[:20] + '...'!r} is too long: over {limit} digits"
        raise ValueError(message) from None


def int_str(n: int) -> str:
    """``str(n)``; OverflowError when ``str`` refuses ``n`` for its length."""
    try:
        return str(n)
    except ValueError:  # str() refuses an int past the digit limit
        digits = sys.get_int_max_str_digits()
        raise OverflowError(
            f"an integer in the result exceeds the {digits}-digit budget"
        ) from None


_ECHO_CHARS = 40


def brief_repr(value: object) -> str:
    """``repr(value)``, cut to its first ``_ECHO_CHARS`` characters and
    ``...`` when it is longer; ``<over N digits>`` when ``repr`` refuses an
    int in ``value`` past the digit limit N."""
    try:
        text = repr(value)
    except ValueError:
        return f"<over {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."
