"""Seeded word samplers shared by the CLI property commands and the test
suite.  All randomness goes through an explicit ``random.Random`` so runs
are reproducible bit for bit from the seed."""

from __future__ import annotations

import random

from .words import GroupWord

_LETTERS = (1, -1, 2, -2)


def random_braid_word(rng: random.Random, max_len: int) -> GroupWord:
    length = rng.randint(0, max_len)
    return tuple(rng.choice(_LETTERS) for _ in range(length))


def random_braid_words(seed: int, count: int, max_len: int) -> list[GroupWord]:
    rng = random.Random(seed)
    return [random_braid_word(rng, max_len) for _ in range(count)]
