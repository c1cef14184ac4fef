"""Presentations, Smith normal form, Dehn filling, amalgams, Todd-Coxeter."""

import hashlib
import json
import random
from collections import deque
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest

from locert import fpgroup
from locert.fpgroup import (
    AbelianInvariants,
    ClosedTable,
    Presentation,
    abelianization,
    amalgam,
    check_closed_table,
    dehn_fill,
    enumerate_table,
    group_word_str,
    parse_group_word,
    smith_normal_form,
)
from locert.seifert import LORule, LOStatus, TorusKnotPiece, UserPiece, slope_lo_verdict
from locert.slopes import Slope
from locert.words import free_reduce_word, invert_word, word_power

B3 = Presentation.parse(["s1", "s2"], ["s1 s2 s1 S2 S1 S2"])
KLEIN = Presentation.parse(["x", "y"], ["x y X y"])
MERIDIAN = parse_group_word("s2", B3.generators)
LONGITUDE = parse_group_word(
    "s1 s2 s1 s1 s2 s1 S2 S2 S2 S2 S2 S2", B3.generators
)


def _paper_union() -> Presentation:
    pairs = [
        (MERIDIAN, parse_group_word("Y", KLEIN.generators)),
        (
            parse_group_word("s1 s2 s1 s1 s2 s1", B3.generators),
            parse_group_word("Y x x", KLEIN.generators),
        ),
    ]
    return amalgam(B3, KLEIN, pairs)


def test_word_parsing():
    assert parse_group_word("s1 S2 s1", B3.generators) == (1, -2, 1)
    assert group_word_str((1, -2, 1), B3.generators) == "s1 S2 s1"
    assert invert_word((1, -2)) == (2, -1)
    with pytest.raises(ValueError):
        parse_group_word("s3", B3.generators)


def test_presentation_validation():
    for generators, relators, message in (
        (("x", "X"), (), "generator names must differ case-insensitively"),
        (("G",), (), "generator name 'G' must contain a lowercase letter "
                     "(uppercase marks inverses)"),
        (("ß", "ss"), (), "generator names 'ß' and 'ss' have the same uppercase "
                          "form 'SS', which spells an inverse"),
        (("x",), ((1,), (0,)), "relator letter 0 out of range"),
        (("x",), ((2,),), "relator letter 2 out of range"),
    ):
        with pytest.raises(ValueError) as info:
            Presentation(generators, relators)
        assert str(info.value) == message


def test_presentation_is_an_immutable_value():
    p = Presentation(("x", "y"), ((1, 2, -1, 2),))
    q = Presentation(generators=("x", "y"), relators=((1, 2, -1, 2),))
    assert p == q and hash(p) == hash(q) and len({p, q, KLEIN, B3}) == 2
    assert p != Presentation(("x", "y"), ())
    for name in ("generators", "relators", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    assert p == q


@pytest.mark.parametrize("names", [("ß", "ss"), ("s", "ſ"), ("x", "ß", "ss")])
def test_presentation_rejects_colliding_inverse_spellings(names):
    # Both inverses would print as one token, so a printed word could read
    # back as another element.
    first, second = names[-2:]
    with pytest.raises(
        ValueError, match=f"^generator names '{first}' and '{second}' have the same "
    ):
        Presentation(names, ())


def test_presentation_json_round_trip():
    assert Presentation.from_json(B3.to_json()) == B3


@pytest.mark.parametrize("obj", [
    {"generators": ["a"], "relators": ["a", int("7" * 4000)]},
    {"generators": "x" * 5000, "relators": []},
    {"generators": ["A" * 5000], "relators": []},
    {"generators": ["a"], "relators": ["b" * 5000]},
])
def test_json_diagnostics_echo_only_the_start(obj):
    # the message quotes at most 40 characters of the input value
    with pytest.raises(ValueError) as info:
        Presentation.from_json(obj)
    assert len(str(info.value)) < 120 and "..." in str(info.value)


def test_abelianization_examples():
    assert abelianization(B3) == AbelianInvariants(1, ())
    assert abelianization(KLEIN) == AbelianInvariants(1, (2,))
    union = _paper_union()
    assert abelianization(union) == AbelianInvariants(0, (4,))
    assert prod(abelianization(union).torsion) == 4


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2, 0], [0, 2]], 2) == [2, 2]
    assert smith_normal_form([[0, 2], [2, 1]], 2) == [1, 4]
    assert smith_normal_form([[1, -1]], 2) == [1]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[6]], 1) == [6]
    # divisibility chain: diag(2, 3) has invariants (1, 6)
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]


def _det(m: list[list[int]]) -> int:
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def _determinantal_factors(rows: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors d_k / d_(k-1), d_k the gcd of the k x k minors,
    up to the rank: the oracle that shares no step with the elimination."""
    factors, previous = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = gcd(*(_det([[rows[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(len(rows)), k)
                  for cs in combinations(range(ncols), k)))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(3906)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        assert smith_normal_form(rows, ncols) == _determinantal_factors(rows, ncols), rows
    # rank-deficient and sparse shapes, which few uniform draws reach
    for rows in ([[2, 4], [1, 2]], [[0, 0, 0]], [[6, 0, 0], [0, 0, 0], [0, 0, 4]],
                 [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 6, 0], [0, 0, 0, 8]]):
        ncols = len(rows[0])
        assert smith_normal_form(rows, ncols) == _determinantal_factors(rows, ncols)


def test_smith_normal_form_scramble_invariance():
    rng = random.Random(4001)
    base = [[0, 2, 1, 0], [4, 2, -2, 1], [1, -1, 0, 0], [0, 0, 0, 2]]
    reference = smith_normal_form(base, 4)
    for _ in range(40):
        m = [row[:] for row in base]
        for _ in range(12):
            op = rng.randrange(4)
            i, j = rng.sample(range(4), 2)
            k = rng.randint(-2, 2)
            if op == 0:  # row add
                m[i] = [a + k * b for a, b in zip(m[i], m[j])]
            elif op == 1:  # col add
                for row in m:
                    row[i] += k * row[j]
            elif op == 2:  # row swap
                m[i], m[j] = m[j], m[i]
            else:  # row negate
                m[i] = [-a for a in m[i]]
        assert smith_normal_form(m, 4) == reference


def test_dehn_fill():
    filled = dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 0))
    assert filled.relators[-1] == MERIDIAN
    generic = dehn_fill(B3, MERIDIAN, (1,), (1, 0))
    assert generic.relators[-1] == MERIDIAN
    zero = dehn_fill(B3, MERIDIAN, LONGITUDE, (0, 1))
    assert abelianization(zero) == AbelianInvariants(1, ())
    # p/q filling adds mu^p lam^q with inverses for p < 0
    neg = dehn_fill(B3, MERIDIAN, LONGITUDE, (-1, 1))
    assert neg.relators[-1][0] == -2
    # an empty word's power is empty however large the exponent
    assert word_power((), -(10**30)) == ()
    assert dehn_fill(B3, (), MERIDIAN, (10**30, 1)).relators[-1] == MERIDIAN


def test_dehn_fill_letter_cap(monkeypatch):
    # 10^6 + 12 letters: the cap answers before the relator is written out
    def refuse(word, n):
        raise AssertionError("word_power reached")

    cap = r"^the relator mu\^p lambda\^q would pass the 1000000-letter cap$"
    with monkeypatch.context() as patched:
        patched.setattr(fpgroup, "word_power", refuse)
        with pytest.raises(OverflowError, match=cap):
            dehn_fill(B3, MERIDIAN, LONGITUDE, (10**6, 1))
    monkeypatch.setattr(fpgroup, "_MAX_LETTERS", 13)
    assert len(dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 1)).relators[-1]) == 13
    with pytest.raises(OverflowError, match="would pass the 13-letter cap$"):
        dehn_fill(B3, MERIDIAN, LONGITUDE, (-2, 1))


def test_amalgam():
    union = _paper_union()
    assert union.generators == ("s1", "s2", "x", "y")
    assert len(union.relators) == 4
    free = amalgam(B3, KLEIN, [])
    assert len(free.relators) == 2
    with pytest.raises(
        ValueError, match=r"^generator names collide: \['s1', 's2'\]$"
    ):
        amalgam(B3, B3, [])


def _symmetric(n: int) -> Presentation:
    """The Coxeter presentation of S_n on s1 .. s(n-1): every si si, then
    every (si si+1)^3, then every si sj si sj with j >= i + 2.  The order
    is the benchmark reference's; the definition counts pinned below hold
    for this order only."""
    relators = [(i, i) for i in range(1, n)]
    relators += [(i, i + 1) * 3 for i in range(1, n - 1)]
    relators += [(i, j, i, j) for i in range(1, n) for j in range(i + 2, n)]
    return Presentation(tuple(f"s{i}" for i in range(1, n)), tuple(relators))


def test_coset_enumeration_b3_meridian_quotient():
    filled = dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 0))
    assert enumerate_table(filled, [], 1000).index == 1


def test_coset_enumeration_klein_quotients():
    filled = Presentation.parse(["x", "y"], ["x y X y", "y x x"])
    assert enumerate_table(filled, [], 1000).index == 4
    dihedral = Presentation.parse(["x", "y"], ["x y X y", "x x"])
    with pytest.raises(
        OverflowError, match="^the coset table did not close within 300 cosets$"
    ):
        enumerate_table(dihedral, [], 300)


def test_coset_cap_below_one_is_an_input_error():
    # checked before the shortcut for a presentation with no generators
    for p, cap in ((Presentation.parse([], []), 0), (B3, -5)):
        with pytest.raises(ValueError, match=f"^max_cosets must be >= 1, got {cap}$"):
            enumerate_table(p, [], cap)
    assert enumerate_table(Presentation.parse([], []), [], 1).index == 1


def test_coset_table_entry_cap(monkeypatch):
    # A free group never closes.  With the cap at 100 entries, 25 cosets of 4
    # columns: past them the cap answers, unless max_cosets stops the table.
    free = Presentation.parse(["a", "b"], [])
    monkeypatch.setattr(fpgroup, "_MAX_TABLE_ENTRIES", 100)
    for max_cosets in (10**8, 26):
        with pytest.raises(
            OverflowError, match="^the coset table would pass the 100-entry cap$"
        ):
            enumerate_table(free, [], max_cosets)
    for max_cosets in (25, 24):
        with pytest.raises(
            OverflowError,
            match=f"^the coset table did not close within {max_cosets} cosets$",
        ):
            enumerate_table(free, [], max_cosets)


def test_coset_enumeration_subgroup_index():
    # Z/3 x Z/3 style check: <x> has index 3 in the abelian group
    # <x, y | x^3, y^3, [x, y]>
    p = Presentation.parse(["x", "y"], ["x x x", "y y y", "X Y x y"])
    assert enumerate_table(p, [parse_group_word("x", p.generators)], 100).index == 3
    assert enumerate_table(p, [], 100).index == 9


def test_closed_table_soundness():
    s5 = _symmetric(5)
    for pres, subgroup, index in [
        (dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 0)), [], 1),
        (Presentation.parse(["x", "y"], ["x y X y", "y x x"]), [], 4),
        (
            Presentation.parse(["x", "y"], ["x x x", "y y y", "X Y x y"]),
            [parse_group_word("x", ("x", "y"))],
            3,
        ),
        # S5 over its parabolic subgroups <>, <s1>, <s1, s2>, <s1, s2, s3>
        (s5, [], 120),
        (s5, [(1,)], 60),
        (s5, [(1,), (2,)], 20),
        (s5, [(1,), (2,), (3,)], 5),
    ]:
        closed = enumerate_table(pres, subgroup, 1000)
        assert closed.index == index
        assert check_closed_table(pres, subgroup, closed)


@pytest.mark.parametrize(
    "p, subgroup, defined",
    [
        (_symmetric(4), [], 35),
        (_symmetric(5), [], 220),
        (_symmetric(6), [], 1513),
        (dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 0)), [], 10),  # B3/<<s2>>
    ],
)
def test_coset_enumeration_defines_a_pinned_number_of_cosets(p, subgroup, defined):
    # The cap counts defined cosets, dead ones included, so the smallest cap
    # that closes pins the HLT definition order, not only the index.
    enumerate_table(p, subgroup, defined)
    with pytest.raises(
        OverflowError,
        match=f"^the coset table did not close within {defined - 1} cosets$",
    ):
        enumerate_table(p, subgroup, defined - 1)


_S3 = Presentation.from_json(
    json.loads((Path(__file__).parent / "golden" / "inputs" / "s3.json").read_text())
)


@pytest.mark.parametrize(
    "p, subgroup, index, digest",
    [
        (_S3, [], 6,
         "69be776091b5ae286a47539442fde44453decc34ee709cd41942e11e8d44fdad"),
        (_S3, [parse_group_word("x", _S3.generators)], 3,
         "32dc9371f6a336e73f03baf61fccf3eb8bd754d87ddbffc69d9d498b512c335e"),
        (_symmetric(4), [], 24,
         "aa39f11e56ea001fa3f5526fdfaec0de9507a253515d4eaa6ff108e573ae0168"),
        (_symmetric(5), [], 120,
         "a832eaee8429ee3f62f5d7516385e08d95b28e7ea0cbd9d416c5bcf57d51628d"),
        (dehn_fill(B3, MERIDIAN, LONGITUDE, (1, 0)), [], 1,
         "fc7f35e853cc00816bea4984e3d202adbe27f5859fdfee7e02368f2107bb7add"),
        (Presentation.parse(["x", "y"], ["x y X y", "y x x"]), [], 4,
         "6ea4445a341850e05cf3486fba271be3d97543b40a12d4fbd79f844a5e5ebab7"),
    ],
)
def test_closed_tables_are_pinned(p, subgroup, index, digest):
    # The compacted table, coset numbers included, is pinned by the sha256
    # of its JSON: a change to the compaction or to the definition order
    # that keeps the index still changes the digest.
    closed = enumerate_table(p, subgroup, 1000)
    assert closed.index == index
    assert hashlib.sha256(json.dumps(closed.table).encode()).hexdigest() == digest
    assert check_closed_table(p, subgroup, closed)


def _row_major_table(p, subgroup, max_cosets):
    """The oracle of ``enumerate_table``: the same HLT enumeration on a table
    held as one list per coset, scanning relators through the fill routine
    only.  Same definitions, coincidences, caps and messages."""
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
    entries = fpgroup._MAX_TABLE_ENTRIES
    cap = min(max_cosets, max(entries // ncols, 1))
    if cap < max_cosets:
        stop = f"the coset table would pass the {entries}-entry cap"
    else:
        stop = f"the coset table did not close within {max_cosets} cosets"
    table = [[None] * ncols]
    parent = [0]

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha, col):
        if len(table) >= cap:
            raise OverflowError(stop)
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = deque()
        merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(ncols):
                delta = table[gamma][col]
                if delta is None:
                    continue
                table[delta][col ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][col] is not None:
                    merge(nu, table[mu][col], queue)
                elif table[nu][col ^ 1] is not None:
                    merge(mu, table[nu][col ^ 1], queue)
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][word[j] ^ 1]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            col = word[i]
            if j == i:
                table[f][col] = b
                table[b][col ^ 1] = f
                return
            define(f, col)

    def columns(word):
        return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in free_reduce_word(word)]

    relators = [columns(r) for r in p.relators]
    for w in subgroup:
        scan_and_fill(0, columns(w))
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for w in relators:
                scan_and_fill(alpha, w)
                if parent[alpha] != alpha:
                    break
            if parent[alpha] == alpha:
                for col in range(ncols):
                    if table[alpha][col] is None:
                        define(alpha, col)
        alpha += 1
    roots = [rep(c) for c in range(len(table))]
    live = [c for c, root in enumerate(roots) if root == c]
    index = {c: i for i, c in enumerate(live)}
    renumber = [index[root] for root in roots]
    return ClosedTable(len(live), [[renumber[t] for t in table[c]] for c in live])


def _table_outcome(enumerate_fn, p, subgroup, max_cosets):
    try:
        return enumerate_fn(p, subgroup, max_cosets)
    except (OverflowError, ValueError) as error:
        return type(error), str(error)


def _random_presentation(rng):
    n = rng.randint(1, 3)
    letters = [x for i in range(1, n + 1) for x in (i, -i)]
    relators = [(i,) * rng.randint(2, 5) for i in range(1, n + 1) if rng.random() < 0.7]
    relators += [tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                 for _ in range(rng.randint(0, 3))]
    subgroup = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.02:  # a letter that names no generator
        subgroup.append((rng.choice((0, n + 1, -n - 1)),))
    p = Presentation(tuple(f"g{i}" for i in range(1, n + 1)), tuple(relators))
    return p, subgroup, rng.randint(50, 3000)


def test_column_table_matches_the_row_major_oracle():
    # The same table, or the same error, on every input: the column layout
    # changes no definition, coincidence, cap or coset number.
    rng = random.Random(3601)
    nontrivial = stopped = 0
    for _ in range(420):
        p, subgroup, cap = _random_presentation(rng)
        got = _table_outcome(enumerate_table, p, subgroup, cap)
        assert got == _table_outcome(_row_major_table, p, subgroup, cap), (p, subgroup, cap)
        nontrivial += isinstance(got, ClosedTable) and got.index > 1
        stopped += got[0] is OverflowError
    assert nontrivial > 50 and stopped > 100
    triangle = Presentation.parse(["a", "b"], ["a a", "b b b", "a b " * 7])
    cases = [(_symmetric(n), [], 100_000) for n in range(3, 8)]
    cases += [(_symmetric(6), [(1,), (2,)], 1000), (triangle, [], 5_000), (triangle, [], 30_000)]
    for p, subgroup, cap in cases:
        got = _table_outcome(enumerate_table, p, subgroup, cap)
        assert got == _table_outcome(_row_major_table, p, subgroup, cap)


def test_out_of_range_subgroup_letter_is_an_input_error():
    # Checked before the shortcut for a presentation with no generators, and
    # before free reduction, which would cancel the 5 in (5, -5).
    for p, word, letter in (
        (KLEIN, (5,), 5),
        (KLEIN, (1, 0), 0),
        (KLEIN, (5, -5), 5),
        (KLEIN, (-3,), -3),
        (Presentation.parse([], []), (1,), 1),
    ):
        with pytest.raises(ValueError, match=f"^subgroup letter {letter} out of range$"):
            enumerate_table(p, [(1,), word], 10)


def test_check_closed_table_rejects_tampering():
    p = Presentation.parse(["x"], ["x x x"])
    closed = enumerate_table(p, [], 100)
    assert closed.index == 3
    bad = ClosedTable(closed.index, [row[:] for row in closed.table])
    bad.table[0][0] = 0
    assert not check_closed_table(p, [], bad)


def test_check_closed_table_rejects_bad_shapes_and_relators():
    # a row of the wrong length or with an entry out of range is no table
    p = Presentation.parse(["x", "y"], ["x x", "y y y", "x y x y"])
    closed = enumerate_table(p, [], 100)
    assert closed.index == 6 and check_closed_table(p, [], closed)
    short, high, low = ([row[:] for row in closed.table] for _ in range(3))
    short[0] = [0, 0, 0]
    high[0][0] = closed.index
    low[0][0] = -1
    for table in (short, high, low):
        assert not check_closed_table(p, [], ClosedTable(closed.index, table))
    # a permutation table on which y has order 2, not 3: y y y moves coset 0
    swap = ClosedTable(2, [[0, 0, 1, 1], [1, 1, 0, 0]])
    assert not check_closed_table(p, [], swap)
    assert check_closed_table(Presentation.parse(["x", "y"], ["x x", "y y"]), [], swap)


def test_abelianization_commutes_with_amalgam():
    # abelianizing the amalgam = abelianizing pieces plus the identification
    # rows; spot-check through the invariants of the assembled matrix
    rng = random.Random(4002)
    for _ in range(20):
        rel1 = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
        rel2 = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
        p1 = Presentation(("u",), (rel1,))
        p2 = Presentation(("v",), (rel2,))
        merged = amalgam(p1, p2, [((1,), (1,))])
        rows = []
        rows.append([sum(1 if x > 0 else -1 for x in rel1), 0])
        rows.append([0, sum(1 if x > 0 else -1 for x in rel2)])
        rows.append([1, -1])
        factors = smith_normal_form(rows, 2)
        torsion = tuple(d for d in factors if d > 1)
        assert abelianization(merged) == AbelianInvariants(2 - len(factors), torsion)


def test_positive_b1_facts():
    # The trefoil 0-filling surjects onto Z; the paper's union does not.
    trefoil_zero_filling = dehn_fill(B3, MERIDIAN, LONGITUDE, (0, 1))
    assert abelianization(trefoil_zero_filling).free_rank >= 1
    assert abelianization(_paper_union()).free_rank == 0
    # The B1 rule certifies a 0-filling only with primeness: Heil's theorem
    # for torus knots, the caller flag for user pieces.
    zero = Slope(0, 1)
    assert slope_lo_verdict(TorusKnotPiece(2, 3, 1), zero).rule is LORule.B1_RULE
    assert slope_lo_verdict(UserPiece("u", "", {}, False), zero).status is LOStatus.UNKNOWN
    flagged = slope_lo_verdict(UserPiece("u", "", {}, True), zero)
    assert flagged.status is LOStatus.LO and flagged.rule is LORule.B1_RULE
