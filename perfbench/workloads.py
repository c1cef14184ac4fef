"""Seeded workloads for the locert benchmark.

A workload is an endless sequence of rounds; each round is a list of CLI
queries with the same mix of commands and input sizes.  A run executes
whole rounds, so every run sees the same composition whatever its length.
Input sizes come from a low-discrepancy sequence: slot k of round r takes
the fraction frac(offset_k + r / golden ratio), with offset_k drawn from
the seed, so a few rounds already cover each size range evenly and runs
with different seeds differ in their letters and sample seeds rather than
in their mix.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import references as ref

_GOLDEN = 0.6180339887498949
_LETTERS = "aAbB"
_INVERSE_CHAR = {"a": "A", "A": "a", "b": "B", "B": "b"}

Verify = Callable[[dict], "str | None"]


@dataclass
class Query:
    family: str  # subcommand, e.g. "braid reduce"
    argv: list[str]
    expect_code: int
    verify: Verify  # envelope -> None, or the reason it is wrong
    size: dict = field(default_factory=dict)  # input-size properties
    prepare: Callable[[], None] | None = None  # untimed, before launch


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool  # False: a fresh `python -m locert.cli` per query
    rounds: Callable[[int, Path, Path], Iterator[list[Query]]]
    trace_rounds: int  # fixed, so traced counts repeat exactly for a seed


class _Sizes:
    """Low-discrepancy fractions in [0, 1) per named slot."""

    def __init__(self, seed: int):
        self.seed = seed
        self.offsets: dict[str, float] = {}

    def frac(self, slot: str, r: int) -> float:
        if slot not in self.offsets:
            self.offsets[slot] = random.Random(f"{self.seed}:{slot}").random()
        return (self.offsets[slot] + r * _GOLDEN) % 1.0

    def log_uniform(self, slot: str, r: int, lo: float, hi: float) -> int:
        return round(lo * (hi / lo) ** self.frac(slot, r))

    def pick(self, slot: str, r: int, options):
        return options[int(self.frac(slot, r) * len(options))]


def _payload(env: dict) -> dict:
    return env.get("payload") or {}


def _expect(cond: bool, why: str) -> str | None:
    return None if cond else why


def _shuffled(rng: random.Random, units: list[list[Query]]) -> list[Query]:
    """Shuffle the units of a round; a unit's queries stay in order because
    later ones depend on earlier ones (a compare pair, cert then verify)."""
    rng.shuffle(units)
    return [q for unit in units for q in unit]


# --- braid words ----------------------------------------------------------------


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(n))


def _inverse(word: str) -> str:
    return "".join(_INVERSE_CHAR[c] for c in reversed(word))


_BRAID_MOVES = (("aba", "bab"), ("bab", "aba"), ("ABA", "BAB"), ("BAB", "ABA"))


def _planted_trivial(rng: random.Random, n: int) -> str:
    """A word of about n letters that is trivial by construction.

    w' is w rewritten by braid relations, inserted cancelling pairs and
    inserted central Delta^2 Delta^-2 pairs, so w w'^-1 = 1; a cyclic
    rotation is a conjugate of it and so trivial as well.
    """
    w = list(_random_word(rng, n // 2))
    rewritten = w[:]
    for _ in range(max(1, n // 16)):
        move = rng.randrange(3)
        i = rng.randrange(len(rewritten) + 1)
        if move == 0:
            for lhs, rhs in _BRAID_MOVES:
                j = "".join(rewritten).find(lhs, i)
                if j >= 0:
                    rewritten[j : j + 3] = rhs
                    break
        elif move == 1:
            x = rng.choice(_LETTERS)
            rewritten[i:i] = [x, _INVERSE_CHAR[x]]
        else:
            j = rng.randrange(len(rewritten) + 1)
            lo, hi = sorted((i, j))
            rewritten[hi:hi] = "ABAABA"
            rewritten[lo:lo] = "abaaba"
    word = "".join(w) + _inverse("".join(rewritten))
    cut = rng.randrange(len(word))
    return word[cut:] + word[:cut]


def _is_trivial(word: str) -> bool:
    # The word problem through the central quotient Z/2 * Z/3, not handle
    # reduction, which is the path under test.
    from locert import braid

    return braid.is_trivial(braid.parse_word(word))


def _check_reduce(word: str, planted: bool) -> Verify:
    def verify(env: dict) -> str | None:
        p = _payload(env)
        reduced = p.get("reduced", "")
        if not _is_trivial(reduced + _inverse(word)):
            return "reduced word is not equal to the input"
        s1 = {c for c in reduced if c in "aA"}
        if len(s1) > 1:
            return "reduced word carries s1 with both signs"
        if p.get("trivial") is not (reduced == ""):
            return "trivial flag disagrees with the reduced word"
        if planted and reduced:
            return "planted-trivial word did not reduce to the empty word"
        return None

    return verify


def _check_sign(word: str, planted: bool) -> Verify:
    def verify(env: dict) -> str | None:
        sign = _payload(env).get("sign")
        if sign not in ("positive", "negative", "trivial"):
            return f"unexpected sign {sign!r}"
        trivial = planted or _is_trivial(word)
        return _expect((sign == "trivial") == trivial, "sign disagrees with the word problem")

    return verify


_OPPOSITE = {"less": "greater", "greater": "less", "equal": "equal"}


def _compare_pair(u: str, v: str, size: dict) -> list[Query]:
    seen: dict[str, str] = {}

    def first(env: dict) -> str | None:
        seen["uv"] = _payload(env).get("comparison")
        equal = _is_trivial(_inverse(u) + v)
        return _expect((seen["uv"] == "equal") == equal, "equality disagrees with the word problem")

    def second(env: dict) -> str | None:
        vu = _payload(env).get("comparison")
        return _expect(_OPPOSITE.get(seen.get("uv")) == vu, "compare(u,v) and compare(v,u) are not antisymmetric")

    return [
        Query("braid compare", ["braid", "compare", u, v], 0, first, size),
        Query("braid compare", ["braid", "compare", v, u], 0, second, size),
    ]


def _check_floor(word: str, planted: bool) -> Verify:
    def verify(env: dict) -> str | None:
        floor = _payload(env).get("floor")
        if not isinstance(floor, int):
            return f"floor {floor!r} is not an integer"
        if planted:
            return _expect(floor == 0, "the identity lies in [Delta^0, Delta^2), floor must be 0")
        return _expect(abs(floor) <= len(word), "floor outside the Malyutin range")

    return verify


def _braid_query(cmd: str, word: str, planted: bool) -> Query:
    check = {"reduce": _check_reduce, "sign": _check_sign, "floor": _check_floor}[cmd]
    return Query(f"braid {cmd}", ["braid", cmd, word], 0, check(word, planted), {"letters": len(word)})


_OCTAVES = ((512, 1024), (1024, 2048), (2048, 4096), (4096, 8192))


def braid_long(seed: int, workdir: Path, root: Path) -> Iterator[list[Query]]:
    rng = random.Random(seed)
    sizes = _Sizes(seed)
    for r in itertools.count():
        units = []
        for lo, hi in _OCTAVES:
            for cmd in ("reduce", "sign"):
                n = sizes.log_uniform(f"{cmd}{lo}", r, lo, hi)
                units.append([_braid_query(cmd, _random_word(rng, n), False)])
            n = sizes.log_uniform(f"compare{lo}", r, lo, hi)
            u, v = _random_word(rng, n // 2), _random_word(rng, n - n // 2)
            units.append(_compare_pair(u, v, {"letters": n}))
        for cmd in ("reduce", "sign"):
            n = sizes.log_uniform(f"planted-{cmd}", r, 512, 8192)
            units.append([_braid_query(cmd, _planted_trivial(rng, n), True)])
        # delta_floor is a binary search of handle reductions; it runs on the
        # shortest octave only (24 s per query at 8192 letters).
        n = sizes.log_uniform("floor", r, 512, 1024)
        units.append([_braid_query("floor", _random_word(rng, n), False)])
        n = sizes.log_uniform("planted-floor", r, 512, 1024)
        units.append([_braid_query("floor", _planted_trivial(rng, n), True)])
        yield _shuffled(rng, units)


# --- proposition 4.3 ---------------------------------------------------------


def _check_prop43(env: dict) -> str | None:
    p = _payload(env)
    if env.get("status") != "ok":
        return f"status {env.get('status')!r}"
    if p.get("total_failures") != 0:
        return "compatibility failures on sampled conjugators"
    return _expect(p.get("wrong_ordering_control_failures", 0) > 0, "wrong-ordering control found no failure")


def prop43_sweep(seed: int, workdir: Path, root: Path) -> Iterator[list[Query]]:
    rng = random.Random(seed)
    sizes = _Sizes(seed)
    for r in itertools.count():
        units = []
        for bound in (5, 6, 7, 8):
            for k in range(2):
                samples = 2 + int(sizes.frac(f"samples{bound}.{k}", r) * 9)
                max_len = 6 + int(sizes.frac(f"len{bound}.{k}", r) * 5)
                argv = [
                    "verify", "proposition-4-3",
                    "--samples", str(samples),
                    "--seed", str(rng.randrange(2**31)),
                    "--grid-bound", str(bound),
                    "--max-len", str(max_len),
                ]
                units.append([Query("verify proposition-4-3", argv, 0, _check_prop43, {"grid_bound": bound})])
        yield _shuffled(rng, units)


# --- algebra mix --------------------------------------------------------------


def _cover_query(poly: str, n: int) -> Query:
    want = ref.cover_order(poly, n)

    def verify(env: dict) -> str | None:
        got = _payload(env).get("order")
        return _expect(got == ("infinite" if want is None else want), f"order {got!r}, reference {want!r}")

    return Query("cover order", ["cover", "order", "--poly", poly, "--n", str(n)], 0, verify, {"n": n})


def _abelianize_query(path: Path, free_rank: int, torsion: list[int]) -> Query:
    def verify(env: dict) -> str | None:
        p = _payload(env)
        got = (p.get("free_rank"), p.get("torsion"))
        return _expect(got == (free_rank, torsion), f"abelianization {got!r}")

    return Query("group abelianize", ["group", "abelianize", str(path)], 0, verify)


def _enumerate_query(path: Path, max_cosets: int, index: int | None) -> Query:
    def verify(env: dict) -> str | None:
        got = _payload(env).get("index")
        return _expect(got == index, f"index {got!r}, reference {index!r}")

    argv = ["group", "enumerate", str(path), "--max-cosets", str(max_cosets)]
    return Query("group enumerate", argv, 0 if index is not None else 2, verify)


def _splice_pair(tree: Path, cert_path: Path) -> list[Query]:
    found: dict[str, dict] = {}

    def cert_verify(env: dict) -> str | None:
        cert = _payload(env).get("certificate")
        if not cert:
            return "no certificate for the double trefoil"
        found["cert"] = cert
        return None

    def write_cert() -> None:
        cert_path.write_text(json.dumps(found.get("cert")))

    def valid(env: dict) -> str | None:
        return _expect(_payload(env).get("valid") is True, "certificate does not re-verify")

    return [
        Query("splice cert", ["splice", "cert", str(tree)], 0, cert_verify),
        Query("splice verify", ["splice", "verify", str(tree), str(cert_path)], 0, valid, prepare=write_cert),
    ]


def _no_answer(env: dict) -> str | None:
    p = _payload(env)
    return _expect(
        env.get("status") == "unknown" and p.get("certificate") is None,
        "a piece with no asserted slopes cannot carry a certificate",
    )


def _nonapplicability(env: dict) -> str | None:
    p = _payload(env)
    return _expect(
        p.get("lo_slopes") == [[1, 0]] and p.get("b3_quotient_index") == 1,
        "y must be the only left-orderable Klein slope and B3/<<s2>> trivial",
    )


_NO_ANSWER_TREE = {
    "nodes": [
        {"kind": "user", "name": "mystery"},
        {"kind": "torus_knot", "r": 2, "s": 3},
    ],
    "edges": [{"a": 0, "b": 1, "matrix": [0, 1, 1, 0]}],
}


def _write_inputs(workdir: Path) -> dict[str, Path]:
    files = {f"s{n}": ref.coxeter_presentation(n) for n in (5, 6, 7)}
    files["t237"] = ref.TRIANGLE_237
    files["no_answer"] = _NO_ANSWER_TREE
    paths = {}
    for name, obj in files.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


def algebra_mix(seed: int, workdir: Path, root: Path) -> Iterator[list[Query]]:
    rng = random.Random(seed)
    sizes = _Sizes(seed)
    inputs = _write_inputs(workdir)
    data = root / "src" / "locert" / "data"
    bundled = sorted(ref.ABELIANIZATIONS)
    for r in itertools.count():
        units = [
            [_cover_query(poly, sizes.log_uniform(f"cover{poly}", r, 8, 200))]
            for poly in ref.POLYNOMIALS
        ]
        n = 5 + r % 3
        units.append([_enumerate_query(inputs[f"s{n}"], 100_000, ref.symmetric_group_order(n))])
        cap = sizes.log_uniform("cap", r, 5_000, 30_000)
        units.append([_enumerate_query(inputs["t237"], cap, None)])
        name = sizes.pick("abelianize", r, bundled)
        units.append([_abelianize_query(data / name, *ref.ABELIANIZATIONS[name])])
        units.append([_abelianize_query(inputs[f"s{n}"], 0, [2])])  # the sign map onto Z/2
        units.append(_splice_pair(data / "double_trefoil_splice.json", workdir / "certificate.json"))
        bound = sizes.log_uniform("splice-bound", r, 100, 200)
        argv = ["splice", "cert", str(inputs["no_answer"]), "--bound", str(bound)]
        units.append([Query("splice cert", argv, 2, _no_answer)])
        slope_bound = 3 + int(sizes.frac("nonapp", r) * 6)
        argv = ["verify", "nonapplicability", "--slope-bound", str(slope_bound)]
        units.append([Query("verify nonapplicability", argv, 0, _nonapplicability)])
        yield _shuffled(rng, units)


# --- small queries -------------------------------------------------------------


def _slope(rng: random.Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-20, 20), rng.randint(0, 20)
        if (p, q) != (0, 0) and ref.normalized_slope(p, q) == (p, q):
            return p, q


_GLUINGS = ((0, 1, 1, 0), (1, 1, 0, 1), (2, 1, 1, 1), (1, -1, 1, 0), (-1, 0, 3, -1))


def _field(key: str, want) -> Verify:
    def verify(env: dict) -> str | None:
        got = _payload(env).get(key)
        return _expect(got == want, f"{key} {got!r}, reference {want!r}")

    return verify


def small_queries(seed: int, workdir: Path, root: Path) -> Iterator[list[Query]]:
    rng = random.Random(seed)
    data = root / "src" / "locert" / "data"
    bundled = sorted(ref.ABELIANIZATIONS)
    for r in itertools.count():
        a, b = _slope(rng), _slope(rng)
        queries = [
            Query("slope delta", ["slope", "delta", "--", f"{a[0]}/{a[1]}", f"{b[0]}/{b[1]}"],
                  0, _field("delta", ref.slope_delta(a, b))),
        ]
        m = rng.choice(_GLUINGS)
        queries.append(
            Query("slope glue", ["slope", "glue", "--matrix=" + ",".join(map(str, m)), "--", f"{a[0]}/{a[1]}"],
                  0, _field("slope", ref.slope_glue(m, a)))
        )
        km, kn = _slope(rng)
        queries.append(
            Query("klein fill", ["klein", "fill", "--", str(km), str(kn)],
                  0, _field("classification", ref.klein_fill_kind(km, kn)))
        )
        ka, kb, order = rng.randint(-5, 5), rng.randint(-5, 5), rng.choice(("O1", "O2"))
        queries.append(
            Query("klein sign", ["klein", "sign", f"x^{ka} y^{kb}", "--ordering", order],
                  0, _field("sign", ref.klein_sign(ka, kb, order)))
        )
        # Surgery slopes p/q >= 2 nu - 1 on an L-space knot give L-spaces,
        # whose total rank is |H1| = p.
        nu, q = rng.randint(1, 3), rng.randint(1, 3)
        p = (2 * nu - 1) * q + rng.randint(0, 20)
        ranks = ",".join(["1"] * rng.randint(1, 3))
        queries.append(
            Query("hf rank", ["hf", "rank", "--p", str(p), "--q", str(q), "--nu", str(nu), "--ranks", ranks],
                  0, _field("rank", p))
        )
        word = _random_word(rng, rng.randint(4, 16))
        queries.append(_braid_query("sign", word, False))
        queries.append(_braid_query("reduce", _planted_trivial(rng, 16), True))
        poly = rng.choice((ref.FIGURE_EIGHT, ref.TREFOIL))
        queries.append(_cover_query(poly, rng.randint(2, 12)))
        name = bundled[r % len(bundled)]
        queries.append(_abelianize_query(data / name, *ref.ABELIANIZATIONS[name]))
        rng.shuffle(queries)
        yield queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "braid-long",
            "random and planted-trivial B3 words of 512-8192 letters: superlinear handle reduction dominates",
            True, braid_long, 8,
        ),
        Workload(
            "prop43-sweep",
            "thousands of handle reductions on words under 100 letters, plus the compat and klein layers",
            True, prop43_sweep, 18,
        ),
        Workload(
            "algebra-mix",
            "cover orders, coset enumeration, abelianization and splice certificates; braid does almost nothing",
            True, algebra_mix, 16,
        ),
        Workload(
            "small-queries",
            "sub-millisecond queries, one fresh process each: start-up, import, parser build and render dominate",
            False, small_queries, 6,
        ),
    )
}


def _spread(values: list[int]) -> dict:
    if not values:
        return {}
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def composition(executed: list[tuple[str, dict]]) -> dict:
    """Query counts per subcommand and the input-size properties of the
    (family, size) records of the queries a run executed."""
    counts: dict[str, int] = {}
    for family, _ in executed:
        counts[family] = counts.get(family, 0) + 1
    out: dict = {"queries": dict(sorted(counts.items()))}
    letters = [size["letters"] for _, size in executed if "letters" in size]
    if letters:
        out["braid_letters"] = _spread(letters)
        out["braid_share_ge_4096_letters"] = sum(n >= 4096 for n in letters) / len(letters)
    covers = [size["n"] for _, size in executed if "n" in size]
    if covers:
        out["cover_n"] = _spread(covers)
    bounds = [size["grid_bound"] for _, size in executed if "grid_bound" in size]
    if bounds:
        out["prop43_grid_bound"] = {str(b): bounds.count(b) for b in sorted(set(bounds))}
    return out
