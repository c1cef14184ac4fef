"""Group words and signs: the names that several layers share.

A group word is a tuple of nonzero integers, +i / -i meaning the i-th
generator (1-based) or its inverse.  This is the one word layer:
inversion, free reduction and powers.  ``fpgroup`` writes its relators with
them, ``braid`` binds powers for its B3 words, and
``sampling`` types its words here.  ``Sign3`` is the sign of an element in
a left ordering, which ``braid``, ``klein`` and ``compat`` all read.  This
module imports no other ``locert`` module, so a layer that needs only
these names loads nothing more.
"""

from __future__ import annotations

from enum import Enum

__all__ = [
    "GroupWord",
    "Sign3",
    "invert_word",
    "free_reduce_word",
    "word_power",
]

GroupWord = tuple[int, ...]


class Sign3(Enum):
    POSITIVE = "positive"
    TRIVIAL = "trivial"
    NEGATIVE = "negative"


def invert_word(word: GroupWord) -> GroupWord:
    return tuple(-x for x in reversed(word))


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
