"""Finitely presented group plumbing.

A presentation holds generator names and relator words; a word over a
presentation is a tuple of nonzero integers, +i / -i meaning the i-th
generator (1-based) or its inverse.  In the JSON and string format a
relator is a space-separated token list where a token equal to a generator
name is the generator and its all-uppercase form is the inverse, e.g.
``"s1 s2 s1 S2 S1 S2"``.

Provides:

* presentations, whose relators are ``words`` group words, written with
  that layer's inversion, free reduction and powers;
* abelianization by exact integer Smith normal form (no modular
  shortcuts; the matrices here are tiny and certificates demand exact
  invariant factors);
* Dehn-filling relators mu^p lambda^q, written out up to a cap of
  1,000,000 letters (OverflowError past it);
* amalgamated products via Seifert-Van Kampen style identification pairs;
* bounded HLT-style Todd-Coxeter coset enumeration with deterministic
  scheduling, on a table held as one list per column (``cols[col][coset]``)
  that doubles as cosets are defined, compacted at the end to the
  row-major ``ClosedTable``.  It raises OverflowError (never a wrong finite
  index) when the table does not close within the coset cap, or would pass
  2,000,000 entries below it, and ValueError on a subgroup letter that
  names no generator (0 or past the generator count), as ``Presentation``
  does on a relator letter.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .words import GroupWord, brief_repr, free_reduce_word, invert_word, word_power

__all__ = [
    "Presentation",
    "AbelianInvariants",
    "ClosedTable",
    "parse_group_word",
    "group_word_str",
    "abelianization",
    "smith_normal_form",
    "dehn_fill",
    "amalgam",
    "enumerate_table",
    "check_closed_table",
]

# The caps: letters of a ``dehn_fill`` relator, and entries of an
# ``enumerate_table`` table (cosets x 2 columns per generator).  An entry
# costs 26-29 bytes at the cap, column slots, coset ints and the union-find
# parents together (tracemalloc peak on CPython 3.11, 2-4 columns), so the
# entry cap holds the table near 60 MB; below the cap a column list may
# have up to twice the slots its cosets fill, 8 bytes each.
_MAX_LETTERS = 1_000_000
_MAX_TABLE_ENTRIES = 2_000_000


class AbelianInvariants(NamedTuple):
    """free_rank copies of Z plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]


class _PresentationFields(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[GroupWord, ...]


class Presentation(_PresentationFields):
    """Generator names and relator words: an immutable value, equal and
    hashed by its fields, and checked on construction."""

    __slots__ = ()

    def __new__(
        cls, generators: tuple[str, ...], relators: tuple[GroupWord, ...]
    ) -> "Presentation":
        lowered = [g.lower() for g in generators]
        if len(set(lowered)) != len(lowered):
            raise ValueError("generator names must differ case-insensitively")
        for g in generators:
            if not g or g == g.upper():
                raise ValueError(
                    f"generator name {brief_repr(g)} must contain a lowercase "
                    "letter (uppercase marks inverses)"
                )
        # "ß" and "ss" differ case-insensitively, but both inverses spell "SS".
        named: dict[str, str] = {}
        for g in generators:
            other = named.setdefault(g.upper(), g)
            if other != g:
                raise ValueError(
                    f"generator names {brief_repr(other)} and {brief_repr(g)} "
                    f"have the same uppercase form {brief_repr(g.upper())}, "
                    "which spells an inverse"
                )
        n = len(generators)
        for rel in relators:
            for x in rel:
                if x == 0 or abs(x) > n:
                    raise ValueError(f"relator letter {x} out of range")
        return super().__new__(cls, generators, relators)

    @classmethod
    def parse(cls, generators: Sequence[str], relators: Sequence[str]) -> "Presentation":
        gens = tuple(generators)
        cls(gens, ())  # reject bad generator names before parsing relators
        return cls(gens, tuple(parse_group_word(r, gens) for r in relators))

    @classmethod
    def from_json(cls, obj: dict) -> "Presentation":
        if not isinstance(obj, dict):
            raise ValueError("a presentation must be a JSON object")
        for key in ("generators", "relators"):
            if key not in obj:
                raise ValueError(f"{key} is missing")
            value = obj[key]
            if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
                raise ValueError(
                    f"{key} must be a JSON list of strings, got {brief_repr(value)}"
                )
        return cls.parse(obj["generators"], obj["relators"])

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [group_word_str(r, self.generators) for r in self.relators],
        }


def parse_group_word(text: str, generators: Sequence[str]) -> GroupWord:
    table: dict[str, int] = {}
    for i, g in enumerate(generators, start=1):
        table[g] = i
        table[g.upper()] = -i
    word = []
    for token in text.split():
        if token not in table:
            raise ValueError(f"unknown generator token {brief_repr(token)}")
        word.append(table[token])
    return tuple(word)


def group_word_str(word: GroupWord, generators: Sequence[str]) -> str:
    return " ".join(
        generators[x - 1] if x > 0 else generators[-x - 1].upper() for x in word
    )


# --- Smith normal form ------------------------------------------------------

def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Exact big-integer elimination, pivoting on the smallest nonzero entry;
    after clearing a pivot's row and column, any entry not divisible by the
    pivot has its row folded in so the divisibility chain comes out
    canonical.  Returns the nonzero diagonal entries (positive).
    """
    m = [list(row) for row in rows]
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged relation matrix")
    nrows = len(m)
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # Find the smallest nonzero entry in the remaining submatrix.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        pivot = m[t][t]
        # Reduce the pivot column and row; repeat while anything survives
        # (a division may leave a smaller remainder that becomes the pivot).
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t]:
                q = m[i][t] // pivot
                for j in range(t, ncols):
                    m[i][j] -= q * m[t][j]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j]:
                q = m[t][j] // pivot
                for row in m:
                    row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # Pivot now alone; enforce divisibility into the rest.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, ncols):
                m[t][j] += m[offender][j]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group: Z^n modulo the rows of
    the exponent-sum relation matrix, with the factors 1 dropped."""
    n = len(p.generators)
    rows = []
    for rel in p.relators:
        row = [0] * n
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    factors = smith_normal_form(rows, n)
    return AbelianInvariants(n - len(factors), tuple(d for d in factors if d > 1))


# --- Dehn filling and amalgams ----------------------------------------------

def dehn_fill(
    p: Presentation, mu: GroupWord, lam: GroupWord, slope: tuple[int, int]
) -> Presentation:
    """Adjoin the filling relator mu^p lam^q; OverflowError past the letter cap."""
    pp, q = slope
    if abs(pp) * len(mu) + abs(q) * len(lam) > _MAX_LETTERS:
        raise OverflowError(
            f"the relator mu^p lambda^q would pass the {_MAX_LETTERS}-letter cap"
        )
    relator = word_power(mu, pp) + word_power(lam, q)
    return Presentation(p.generators, p.relators + (free_reduce_word(relator),))


def amalgam(
    p1: Presentation,
    p2: Presentation,
    pairs: Iterable[tuple[GroupWord, GroupWord]],
) -> Presentation:
    """Free product of p1 and p2 with one relator u v^-1 per identified
    pair (u in p1's generators, v in p2's).  Generator names must be
    disjoint; the caller renames on clash."""
    clash = set(g.lower() for g in p1.generators) & set(
        g.lower() for g in p2.generators
    )
    if clash:
        raise ValueError(f"generator names collide: {sorted(clash)}")
    shift = len(p1.generators)

    def shifted(word: GroupWord) -> GroupWord:
        return tuple(x + shift if x > 0 else x - shift for x in word)

    relators = list(p1.relators) + [shifted(r) for r in p2.relators]
    for u, v in pairs:
        relators.append(free_reduce_word(u + invert_word(shifted(v))))
    return Presentation(p1.generators + p2.generators, tuple(relators))


# --- Todd-Coxeter coset enumeration ------------------------------------------

class ClosedTable(NamedTuple):
    """A complete, collapsed coset table: table[c][col] is the target coset,
    with column 2(i-1) for generator i and 2(i-1)+1 for its inverse."""

    index: int
    table: list[list[int]]


def _column(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def enumerate_table(
    p: Presentation,
    subgroup: Sequence[GroupWord],
    max_cosets: int,
) -> ClosedTable:
    """HLT coset enumeration for the given subgroup; OverflowError, with the
    reason as its message, if the table does not close within ``max_cosets``
    defined cosets or the entry cap stops it first; ValueError on a
    ``max_cosets`` below 1 or an out-of-range subgroup letter.

    Deterministic: cosets are processed in increasing order, relators in
    presentation order, and undefined entries filled column by column, so
    a run is reproducible bit for bit.

    The table is held by column: ``cols[col][coset]`` is the target coset
    or None.  Every column list doubles, up to the cap, when a definition
    passes its length, so the lists hold at most twice the cosets defined.
    Each relator and subgroup word is freely reduced and compiled once per
    call to the column lists a forward scan reads and, letter for letter,
    the inverse column lists a backward scan reads, so a scan step reads a
    target from its list and computes no column.  A relator cycle that
    already closes at the coset in hand is found inline, without the fill
    routine; any other goes through the fill routine's full scan from
    alpha, to its coincidence or its first definition.  The closed table is compacted to
    ``ClosedTable``'s rows, one per live coset.
    """
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be >= 1, got {max_cosets}")
    n = len(p.generators)
    for w in subgroup:
        for x in w:
            if x == 0 or abs(x) > n:
                raise ValueError(f"subgroup letter {x} out of range")
    ncols = 2 * n
    if not n:
        return ClosedTable(1, [[]])
    cap = min(max_cosets, max(_MAX_TABLE_ENTRIES // ncols, 1))
    if cap < max_cosets:
        stop = f"the coset table would pass the {_MAX_TABLE_ENTRIES}-entry cap"
    else:
        stop = f"the coset table did not close within {max_cosets} cosets"
    cols: list[list[int | None]] = [[None] for _ in range(ncols)]
    pairs = [(cols[col], cols[col ^ 1]) for col in range(ncols)]
    parent = [0]
    defined = room = 1  # cosets defined, and the length of each list

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha: int, col: int) -> None:
        nonlocal defined, room
        beta = defined
        if beta >= cap:
            raise OverflowError(stop)
        if beta == room:
            room = min(2 * room, cap)
            blank = [None] * (room - beta)
            for column in cols:
                column.extend(blank)
            parent.extend(range(beta, room))
        defined = beta + 1
        cols[col][alpha] = beta
        cols[col ^ 1][beta] = alpha

    def coincidence(a: int, b: int) -> None:
        queue: deque[int] = deque()
        _merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for column, inverse in pairs:
                delta = column[gamma]
                if delta is None:
                    continue
                inverse[delta] = None
                mu, nu = rep(gamma), rep(delta)
                if column[mu] is not None:
                    _merge(nu, column[mu], queue)
                elif inverse[nu] is not None:
                    _merge(mu, inverse[nu], queue)
                else:
                    column[mu] = nu
                    inverse[nu] = mu

    def _merge(a: int, b: int, queue: deque[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def scan_and_fill(alpha: int, word: tuple) -> None:
        forward, backward, letters, last = word
        f, i = alpha, 0
        b, j = alpha, last
        while True:
            while i <= j:
                nxt = forward[i][f]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = backward[j][b]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                forward[i][f] = b
                backward[i][b] = f
                return
            define(f, letters[i])

    def compiled(word: GroupWord) -> tuple:
        letters = [_column(x) for x in free_reduce_word(word)]
        forward = [cols[c] for c in letters]
        backward = [cols[c ^ 1] for c in letters]
        return forward, backward, letters, len(letters) - 1

    relators = [compiled(r) for r in p.relators]
    for w in subgroup:
        scan_and_fill(0, compiled(w))
    alpha = 0
    while alpha < defined:
        # Only a root is its own parent, whatever path compression did.
        if parent[alpha] == alpha:
            for word in relators:
                f = alpha
                for column in word[0]:
                    f = column[f]
                    if f is None:
                        break
                else:
                    if f == alpha:  # the relator cycle closes at alpha
                        continue
                # The fill routine scans again from alpha: handing it the
                # position reached costs an index per step, more than the
                # steps it repeats.
                scan_and_fill(alpha, word)
                if parent[alpha] != alpha:
                    break
            if parent[alpha] == alpha:
                for col in range(ncols):
                    if cols[col][alpha] is None:
                        define(alpha, col)
        alpha += 1

    # One root lookup per coset, then one list read per table entry.
    roots = [rep(c) for c in range(defined)]
    live = [c for c, root in enumerate(roots) if root == c]
    index = {c: i for i, c in enumerate(live)}
    renumber = [index[root] for root in roots]
    compact = [[renumber[column[c]] for column in cols] for c in live]
    return ClosedTable(len(live), compact)


def check_closed_table(
    p: Presentation, subgroup: Sequence[GroupWord], closed: ClosedTable
) -> bool:
    """Brute-force soundness check: every relator acts trivially on every
    coset, every subgroup generator fixes coset 0, and the table is a
    complete permutation table."""
    ncols = 2 * len(p.generators)
    for row in closed.table:
        if len(row) != ncols or any(
            not (0 <= v < closed.index) for v in row
        ):
            return False
    for c in range(closed.index):
        for col in range(ncols):
            if closed.table[closed.table[c][col]][col ^ 1] != c:
                return False

    def trace(start: int, word: GroupWord) -> int:
        c = start
        for x in word:
            c = closed.table[c][_column(x)]
        return c

    for rel in p.relators:
        for c in range(closed.index):
            if trace(c, rel) != c:
                return False
    return all(trace(0, w) == 0 for w in subgroup)
