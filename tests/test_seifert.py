"""Verdict rules, splice trees, certificates, and the surgery-rank formula."""

import copy
import json
import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_splice_fuzz import FUZZ, REAL_TREES, _dumps, _one_edit, trees

from locert import seifert
from locert.seifert import (
    BrieskornZHS,
    LORule,
    LOSlopeVerdict,
    LOStatus,
    SpliceEdge,
    SpliceTree,
    TorusKnotPiece,
    UserPiece,
    certificate_search,
    enumerate_slopes,
    slope_lo_verdict,
    torus_knot_lspace_verdict,
    verify_certificate,
    zhs_lo_status,
)
from locert.slopes import (
    GluingMatrix,
    Slope,
    hf_surgery_rank,
    make_slope,
    primitive_slopes,
    slope_str,
)
from locert.words import int_str

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
DATA = Path(seifert.__file__).resolve().parent / "data"
TREFOIL = TorusKnotPiece(2, 3, 1)
SPLICE = GluingMatrix(0, 1, 1, 0)


def _double_trefoil() -> SpliceTree:
    return SpliceTree(
        (TorusKnotPiece(2, 3, 1), TorusKnotPiece(2, 3, 1)),
        (SpliceEdge(0, 1, SPLICE),),
    )


def test_recognize_exceptional():
    # the two exceptional spheres, recognized up to order and padding by 1s
    def evidence(ms):
        return zhs_lo_status(BrieskornZHS(ms)).evidence

    assert evidence((2, 3, 5)).startswith("Sigma(2,3,5) is the Poincare sphere;")
    assert evidence((1, 1)).startswith("Sigma(1,1) is S^3;")
    assert evidence((2, 3, 7)).startswith("Sigma(2,3,7) is a Seifert fibred")
    assert evidence((5, 3, 2, 1)).startswith("Sigma(5,3,2,1) is the Poincare sphere;")
    with pytest.raises(ValueError, match=r"^multiplicities 2 and 4 share a factor$"):
        BrieskornZHS((2, 4, 5))
    with pytest.raises(ValueError, match=r"^multiplicities must be integers >= 1$"):
        BrieskornZHS((0, 3))


def test_brieskorn_names_the_first_clashing_pair():
    # The pair is the least i, then the least j > i, with a common factor:
    # among (3, 21), (3, 15), (5, 10), (5, 15), (7, 21) and (10, 15) it is
    # (3, 21), though 10 is the first entry that clashes with an earlier one.
    with pytest.raises(ValueError, match=r"^multiplicities 3 and 21 share a factor$"):
        BrieskornZHS((1, 3, 5, 7, 10, 21, 15))
    rng = random.Random(26)
    for _ in range(300):
        ms = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 7)))
        nontrivial = [m for m in ms if m > 1]
        pairs = [(a, b) for i, a in enumerate(nontrivial)
                 for b in nontrivial[i + 1:] if gcd(a, b) != 1]
        if not pairs:
            assert BrieskornZHS(ms).multiplicities == ms
            continue
        with pytest.raises(ValueError) as info:
            BrieskornZHS(ms)
        first, second = pairs[0]
        assert str(info.value) == f"multiplicities {first} and {second} share a factor"


def test_brieskorn_bit_budget():
    # 2 + 2 + 524284 bits is the budget of 2^19 exactly; one bit more stops
    # before the coprimality pass (2^524284 + 1 is coprime to 2 and 3)
    assert BrieskornZHS((2, 3, 2**524283 - 1)).multiplicities[:2] == (2, 3)
    message = r"^a Brieskorn node's multiplicities hold more than 524288 bits in all$"
    with pytest.raises(OverflowError, match=message):
        BrieskornZHS((2, 3, 2**524284 + 1))


def test_zhs_lo_status():
    assert zhs_lo_status(BrieskornZHS((2, 3, 5))).status is LOStatus.NOT_LO
    assert zhs_lo_status(BrieskornZHS((2, 3, 7))).status is LOStatus.LO
    assert zhs_lo_status(BrieskornZHS((1,))).status is LOStatus.NOT_LO
    assert zhs_lo_status(BrieskornZHS((1,))).rule is LORule.ZHS_CLASSIFICATION


def _closes_to(knot, p, q):
    """The closed Brieskorn sphere a |p| = 1 verdict names, as printed."""
    verdict = slope_lo_verdict(knot, make_slope(p, q))
    assert verdict.rule is LORule.ZHS_CLASSIFICATION
    return verdict.evidence.split(" closes to ")[1].split(":")[0]


def test_moser_fillings():
    # Moser: the p/q filling of T(r, s) is Sigma(r, s, |p - qrs|), S^3 (a
    # lens space) at |p - qrs| = 1, and reducible at p = qrs
    assert _closes_to(TREFOIL, 1, 1) == "Sigma(2,3,5)"
    assert _closes_to(TREFOIL, -1, 1) == "Sigma(2,3,7)"
    assert _closes_to(TREFOIL, 1, 0) == "Sigma(1)"
    # mirror: the (p, q) filling of the mirror is the (-p, q) filling
    mirror = TorusKnotPiece(2, 3, -1)
    assert _closes_to(mirror, -1, 1) == "Sigma(2,3,5)"
    assert _closes_to(mirror, 1, 1) == "Sigma(2,3,7)"
    reducible = slope_lo_verdict(TREFOIL, make_slope(6, 1))
    assert (reducible.status, reducible.rule) == (LOStatus.UNKNOWN, None)
    assert "is reducible" in reducible.evidence
    lens = slope_lo_verdict(TREFOIL, make_slope(5, 1))
    assert (lens.status, lens.rule) == (LOStatus.NOT_LO, LORule.LSPACE_INTERVAL)


def test_moser_homology_sphere_cross_check():
    # |p| = 1 fillings are integer homology spheres: their multiplicities
    # come out pairwise coprime, so the verdict never raises.
    for r, s in ((2, 3), (2, 5), (3, 4)):
        for chirality in (1, -1):
            knot = TorusKnotPiece(r, s, chirality)
            for q in range(0, 8):
                for p in (1, -1):
                    verdict = slope_lo_verdict(knot, make_slope(p, q))
                    assert verdict.rule is LORule.ZHS_CLASSIFICATION


def test_lspace_interval_rule():
    assert (
        torus_knot_lspace_verdict(TREFOIL, make_slope(-1, 1)).status is LOStatus.LO
    )
    assert (
        torus_knot_lspace_verdict(TREFOIL, make_slope(1, 1)).status is LOStatus.NOT_LO
    )
    assert (
        torus_knot_lspace_verdict(TREFOIL, make_slope(1, 0)).status is LOStatus.NOT_LO
    )
    # the reducible filling: no rule applies
    assert torus_knot_lspace_verdict(TREFOIL, make_slope(6, 1)) == LOSlopeVerdict(
        LOStatus.UNKNOWN,
        None,
        "6/1 filling of T(2,3) chirality +1 is reducible; no rule applies",
    )
    # mirrors: the trivial filling stays non-left-orderable
    mirror = TorusKnotPiece(2, 3, -1)
    assert torus_knot_lspace_verdict(mirror, make_slope(1, 0)).status is LOStatus.NOT_LO
    assert torus_knot_lspace_verdict(mirror, make_slope(1, 1)).status is LOStatus.LO


def test_slope_verdict_dispatch_order():
    zero = slope_lo_verdict(TREFOIL, make_slope(0, 1))
    assert (zero.status, zero.rule) is not None
    assert zero.status is LOStatus.LO and zero.rule is LORule.B1_RULE
    one = slope_lo_verdict(TREFOIL, make_slope(1, 1))
    assert one.status is LOStatus.NOT_LO and one.rule is LORule.ZHS_CLASSIFICATION
    minus = slope_lo_verdict(TREFOIL, make_slope(-1, 1))
    assert minus.status is LOStatus.LO and minus.rule is LORule.ZHS_CLASSIFICATION
    big = slope_lo_verdict(TREFOIL, make_slope(7, 2))
    assert big.rule is LORule.LSPACE_INTERVAL and big.status is LOStatus.NOT_LO
    # the trivial filling is the one |p| = 1 lens space: S^3
    assert slope_lo_verdict(TREFOIL, make_slope(1, 0)).evidence == (
        "1/0 filling of T(2,3) chirality +1 closes to Sigma(1): Sigma(1) is S^3; "
        "the trivial group is not left-orderable"
    )
    reducible = slope_lo_verdict(TREFOIL, make_slope(6, 1))
    assert reducible.status is LOStatus.UNKNOWN
    assert reducible.evidence == (
        "6/1 filling of T(2,3) chirality +1 is reducible; no rule applies"
    )
    user = UserPiece("Y", "", {Slope(1, 0): LOStatus.LO}, False)
    asserted = slope_lo_verdict(user, make_slope(1, 0))
    assert asserted.status is LOStatus.LO and asserted.rule is LORule.USER_ASSERTED
    assert slope_lo_verdict(user, make_slope(3, 1)).status is LOStatus.UNKNOWN


def _lspace_oracle(k: TorusKnotPiece, alpha: Slope) -> LOSlopeVerdict:
    """The L-space interval rule read through ``make_slope`` and the class,
    with its evidence assembled in parts: the oracle that
    ``torus_knot_lspace_verdict`` must match byte for byte, however its
    per-slope work is cut."""
    eff = make_slope(k.chirality * alpha.p, alpha.q)
    if eff.p == eff.q * k.r * k.s:
        return LOSlopeVerdict(
            LOStatus.UNKNOWN,
            None,
            f"{slope_str(alpha)} filling of {k.describe()} is reducible; "
            "no rule applies",
        )
    threshold = k.r * k.s - k.r - k.s
    where = f"{slope_str(eff)} on the positive T({k.r},{k.s})"
    bar = f"rs - r - s = {int_str(threshold)}"
    if eff.p >= threshold * eff.q:
        return LOSlopeVerdict(
            LOStatus.NOT_LO,
            LORule.LSPACE_INTERVAL,
            f"{where} satisfies p/q >= {bar}: an L-space "
            "filling, hence not left-orderable (Boyer-Gordon-Watson)",
        )
    return LOSlopeVerdict(
        LOStatus.LO,
        LORule.LSPACE_INTERVAL,
        f"{where} satisfies p/q < {bar}: not an L-space, "
        "and the filling is Seifert fibred, hence left-orderable "
        "(Boyer-Gordon-Watson)",
    )


def _outcome(verdict, piece, alpha):
    try:
        return verdict(piece, alpha)
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


def test_lspace_verdict_matches_its_oracle():
    # Byte for byte, on mirrors, on slopes out of normal form, and past the
    # digit limit, where both raise int_str's OverflowError.
    big = 10**2200
    pieces = [TorusKnotPiece(r, s, c) for r, s in ((2, 3), (2, 5), (3, 4), (5, 7))
              for c in (1, -1)]
    pieces += [TorusKnotPiece(big + 1, big + 3, 1), TorusKnotPiece(2, 10**4299 + 1, -1)]
    slopes = list(primitive_slopes(15))
    slopes += [Slope(-p, -q) for p, q in slopes]
    slopes += [Slope(-1, 0), Slope(2, 4), Slope(0, 0), Slope(0, -1), Slope(6, 1),
               Slope(-6, 1), Slope(35, 1), Slope(-35, 1), Slope(10**4299, 1),
               Slope(-(10**4299), 3), Slope(10**4300, 1)]
    for piece in pieces:
        for alpha in slopes:
            got = _outcome(torus_knot_lspace_verdict, piece, alpha)
            want = _outcome(_lspace_oracle, piece, alpha)
            assert (type(got), got) == (type(want), want), (piece, alpha)
    # the digit limit is reached on both sides of the oracle's parts
    assert _outcome(torus_knot_lspace_verdict, pieces[-2], Slope(3, 1))[0] is OverflowError
    assert _outcome(torus_knot_lspace_verdict, TREFOIL, Slope(10**4300, 1))[0] is OverflowError


def _renormalizing_verdict(piece, alpha: Slope) -> LOSlopeVerdict:
    """The rule table with every slope renormalized through ``make_slope``
    and every verdict built through the class: the oracle of
    ``slope_lo_verdict``, which reads its slope, in normal form by its
    precondition, as given."""
    alpha = make_slope(alpha.p, alpha.q)

    if isinstance(piece, TorusKnotPiece):
        if alpha.p == 0:
            return LOSlopeVerdict(
                LOStatus.LO,
                LORule.B1_RULE,
                "0-filling has infinite first homology (surjection onto Z) "
                "and is prime and Seifert fibred (Heil)",
            )
        if abs(alpha.p) == 1:
            d = abs(piece.chirality * alpha.p - alpha.q * piece.r * piece.s)
            closed = BrieskornZHS((piece.r, piece.s, d) if d > 1 else (1,))
            verdict = zhs_lo_status(closed)
            return LOSlopeVerdict(
                verdict.status,
                LORule.ZHS_CLASSIFICATION,
                f"{slope_str(alpha)} filling of {piece.describe()} closes to "
                f"{closed.describe()}: " + verdict.evidence,
            )
        return _lspace_oracle(piece, alpha)

    if alpha.p == 0 and piece.prime_zero_filling:
        return LOSlopeVerdict(
            LOStatus.LO,
            LORule.B1_RULE,
            "0-filling has infinite first homology (surjection onto Z); "
            "primeness supplied by caller flag",
        )
    status = piece.asserted.get(alpha)
    if status is not None:
        return LOSlopeVerdict(
            status,
            LORule.USER_ASSERTED,
            f"asserted by caller on {piece.describe()} at {slope_str(alpha)}",
        )
    return LOSlopeVerdict(
        LOStatus.UNKNOWN, None, f"no rule applies at {slope_str(alpha)}"
    )


def test_slope_verdict_matches_the_renormalizing_oracle():
    asserted = {Slope(1, 0): LOStatus.LO, Slope(-3, 2): LOStatus.NOT_LO,
                Slope(5, 7): LOStatus.UNKNOWN, Slope(0, 1): LOStatus.NOT_LO}
    pieces = [TorusKnotPiece(2, 3, 1), TorusKnotPiece(2, 3, -1),
              TorusKnotPiece(3, 4, 1),
              UserPiece("Y", "asserting", asserted, False),
              UserPiece("Z", "", {Slope(2, 1): LOStatus.LO}, True)]
    # canonical slopes only, the precondition of slope_lo_verdict: the walk's,
    # and slopes past the digit limit, where both print through int_str
    slopes = list(primitive_slopes(12))
    slopes += [Slope(10**4300, 1), Slope(-(10**4300), 3), Slope(10**4299 + 1, 2)]
    for piece in pieces:
        for alpha in slopes:
            assert make_slope(*alpha) == alpha
            got = _outcome(slope_lo_verdict, piece, alpha)
            want = _outcome(_renormalizing_verdict, piece, alpha)
            assert (type(got), got) == (type(want), want), (piece, alpha)


def _no_answer_tree() -> SpliceTree:
    # The user piece asserts no slope, so no pair exists at any bound.
    return SpliceTree.from_json({
        "nodes": [{"kind": "user", "name": "mystery"},
                  {"kind": "torus_knot", "r": 2, "s": 3}],
        "edges": [{"a": 0, "b": 1, "matrix": [0, 1, 1, 0]}],
    })


def test_the_walk_skips_make_slope_and_the_verdict_class(monkeypatch):
    # The walk generates slopes in normal form, so the rule table reads them
    # as given; verdicts and the walk's slopes skip NamedTuple's __new__
    # (``LOSlopeVerdict``).
    made, built, slopes_built = [], [], []
    monkeypatch.setattr(seifert, "make_slope",
                        lambda p, q: made.append((p, q)) or make_slope(p, q))
    class_new = LOSlopeVerdict.__new__
    monkeypatch.setattr(LOSlopeVerdict, "__new__",
                        lambda cls, *fields: built.append(fields) or class_new(cls, *fields))
    slope_new = Slope.__new__
    monkeypatch.setattr(Slope, "__new__", lambda cls, *fields: (
        slopes_built.append(fields) or slope_new(cls, *fields)))
    assert certificate_search(_no_answer_tree(), search_bound=30).status is LOStatus.UNKNOWN
    assert made == [] and built == [] and slopes_built == []
    assert Slope(2, 3) == (2, 3) and slopes_built == [(2, 3)]  # the class still counts
    # On a torus knot only zhs_lo_status, at |p| = 1, builds through the
    # class.
    walk = list(primitive_slopes(12))
    for piece in (TREFOIL, TorusKnotPiece(3, 4, -1)):
        built.clear()
        for alpha in walk:
            slope_lo_verdict(piece, alpha)
        assert len(built) == sum(abs(p) == 1 for p, _ in walk)


def test_torus_first_walk_make_slope_count(monkeypatch):
    # With the torus knot on side a, torus_knot_lspace_verdict renormalizes
    # the mirrored slope of every walked slope past the B1 and |p| = 1
    # rules (1,050 at bound 30), and the walk normalizes the image of every
    # LO slope of side a: the splice longitude and 833 walked slopes.
    tree = SpliceTree(tuple(reversed(_no_answer_tree().nodes)), (SpliceEdge(0, 1, SPLICE),))
    walk = list(primitive_slopes(30))
    lspace = [tuple(a) for a in walk if abs(a.p) > 1]
    lo = [a for a in walk if slope_lo_verdict(tree.nodes[0], a).status is LOStatus.LO]
    assert (len(lspace), len(lo)) == (1_050, 833)
    made = []
    monkeypatch.setattr(seifert, "make_slope",
                        lambda p, q: made.append((p, q)) or make_slope(p, q))
    assert certificate_search(tree, search_bound=30).status is LOStatus.UNKNOWN
    images = [(1, 0)] + [(q, p) for p, q in lo]
    assert sorted(made) == sorted(lspace + images)
    assert len(made) == 1_884


_SPLICE_FILES = sorted([*GOLDEN_INPUTS.glob("*.json"), *DATA.glob("*.json")])


def _splice_trees() -> list[SpliceTree]:
    """Every file of the golden inputs and the package data that
    ``SpliceTree.from_json`` reads as a tree."""
    found = []
    for path in _SPLICE_FILES:
        try:
            found.append(SpliceTree.from_json(json.loads(path.read_bytes())))
        except (ValueError, OverflowError, RecursionError):  # not JSON, or not a tree
            continue
    return found


def _search_and_verify(tree: SpliceTree, records: list) -> None:
    """``certificate_search`` at bound 3, then ``verify_certificate`` on its
    certificate and on each record; a tree or record the two refuse is
    skipped, as the CLI reports it."""
    try:
        certificate = certificate_search(tree, search_bound=3).certificate
    except (ValueError, OverflowError):
        certificate = None
    for record in records if certificate is None else [certificate, *records]:
        try:
            verify_certificate(tree, record)
        except (ValueError, OverflowError):
            continue


def test_every_verdict_call_meets_its_precondition(monkeypatch):
    # slope_lo_verdict trusts its caller: an exterior piece of a validated
    # tree, and a slope in make_slope normal form.  Every call that the
    # search and the checker make, on every tree of the golden inputs and
    # the package data and on a seeded batch of fuzzed trees, meets both.
    calls = []
    real = seifert.slope_lo_verdict

    def spy(piece, alpha):
        try:
            canonical = make_slope(*alpha) == alpha
        except ValueError:  # not primitive
            canonical = False
        assert type(piece) in (TorusKnotPiece, UserPiece), piece
        assert canonical, alpha
        calls.append(type(piece))
        return real(piece, alpha)

    monkeypatch.setattr(seifert, "slope_lo_verdict", spy)
    records = [json.loads(path.read_text()) for path in _SPLICE_FILES
               if path.name.endswith("_cert.json")]
    for tree in _splice_trees():
        _search_and_verify(tree, records)
    assert set(calls) == {TorusKnotPiece, UserPiece}

    fuzz_trees = st.one_of(trees, st.sampled_from(REAL_TREES).flatmap(_one_edit))

    @FUZZ
    @given(fuzz_trees)
    def check(obj):
        try:
            tree = SpliceTree.from_json(json.loads(_dumps(obj)))
        except (ValueError, OverflowError):  # an input error, or past a budget
            return
        _search_and_verify(tree, records)

    before = len(calls)
    check()
    assert len(calls) > before


def test_user_piece_reads_one_entry_per_slope():
    # Keys are slopes after parsing: their order does not matter, and two
    # spellings of one slope are an input error even at one status.
    def tree(asserted):
        user = {"kind": "user", "asserted": asserted}
        return {"nodes": [user, {"kind": "torus_knot", "r": 2, "s": 3}],
                "edges": [{"a": 0, "b": 1, "matrix": [0, 1, 1, 0]}]}

    forward = {"1/0": "not_lo", "-1/1": "not_lo", "2/1": "lo", "3": "unknown"}
    backward = dict(reversed(forward.items()))
    assert list(backward) != list(forward)
    parsed = SpliceTree.from_json(tree(forward))
    assert parsed == SpliceTree.from_json(tree(backward))
    assert parsed.nodes[0].asserted == {
        Slope(1, 0): LOStatus.NOT_LO, Slope(-1, 1): LOStatus.NOT_LO,
        Slope(2, 1): LOStatus.LO, Slope(3, 1): LOStatus.UNKNOWN,
    }
    for first, second, statuses in (("-1/1", "1/-1", ("not_lo", "lo")),
                                    ("1/1", " 1/1", ("lo", "lo")),
                                    ("3", "3/1", ("unknown", "lo"))):
        asserted = dict(zip((first, second), statuses))
        message = f"^asserted slopes {first!r} and {second!r} name the same slope$"
        with pytest.raises(ValueError, match=message):
            SpliceTree.from_json(tree(asserted))


def test_prime_user_piece_cannot_deny_its_zero_filling():
    # prime with b1 > 0 forces LO at 0/1, so not_lo there contradicts the
    # flag; lo and unknown agree with it, and without the flag anything goes
    def tree(asserted, prime):
        user = {"kind": "user", "name": "Y", "asserted": asserted,
                "prime_zero_filling": prime}
        return {"nodes": [user, {"kind": "torus_knot", "r": 2, "s": 3}],
                "edges": [{"a": 0, "b": 1, "matrix": [0, 1, -1, -2]}]}

    message = (r"^user piece 'Y' asserts not_lo at 0/1, but prime_zero_filling "
               r"makes its 0-filling LO \(B1 rule\)$")
    for key in ("0/1", "0", "0/-1"):
        with pytest.raises(ValueError, match=message):
            SpliceTree.from_json(tree({key: "not_lo"}, True))
    for status in ("lo", "unknown"):
        piece = SpliceTree.from_json(tree({"0/1": status}, True)).nodes[0]
        assert piece.asserted == {Slope(0, 1): LOStatus(status)}
    assert SpliceTree.from_json(tree({"0/1": "not_lo"}, False)).nodes[0].asserted == {
        Slope(0, 1): LOStatus.NOT_LO}
    assert SpliceTree.from_json(tree({"1/0": "not_lo"}, True)).nodes[0].asserted == {
        Slope(1, 0): LOStatus.NOT_LO}


def test_definite_verdicts_carry_a_rule():
    # Every LO or NOT_LO verdict of the rule table names the rule that gave
    # it; only UNKNOWN may carry none.  Swept over the slopes of the search
    # walk, on each piece kind and both chiralities.
    asserted = dict(zip((Slope(1, 0), Slope(2, 1), Slope(3, 1)), LOStatus))
    pieces = [UserPiece("u", "", asserted, True), UserPiece("silent", "", {}, False)]
    pieces += [TorusKnotPiece(r, s, chirality)
               for r, s in ((2, 3), (2, 5), (3, 4)) for chirality in (1, -1)]
    verdicts = [slope_lo_verdict(piece, slope)
                for piece in pieces for slope in enumerate_slopes(10)]
    verdicts += [zhs_lo_status(BrieskornZHS(ms)) for ms in ((1,), (2, 3, 5), (2, 3, 7))]
    assert {v.status for v in verdicts} == set(LOStatus)
    assert {v.rule for v in verdicts} == set(LORule) | {None}
    for verdict in verdicts:
        assert type(verdict) is LOSlopeVerdict
        assert verdict.rule is not None or verdict.status is LOStatus.UNKNOWN, verdict


def test_small_slope_families():
    # 1/n fillings: only the trivial filling (S^3) and the +1 filling
    # (Poincare sphere) fail to be left-orderable for the positive trefoil.
    not_lo = []
    for n in range(-10, 11):
        slope = make_slope(1, n) if n >= 0 else make_slope(-1, -n)
        if slope_lo_verdict(TREFOIL, slope).status is LOStatus.NOT_LO:
            not_lo.append(n)
    assert not_lo == [0, 1]
    # integer fillings n <= -1 are all left-orderable
    for n in range(-10, 0):
        assert slope_lo_verdict(TREFOIL, make_slope(n, 1)).status is LOStatus.LO


def test_enumerate_slopes_order():
    slopes = enumerate_slopes(2)
    assert slopes[:4] == [Slope(1, 0), Slope(-1, 1), Slope(0, 1), Slope(1, 1)]
    assert len(slopes) == len(set(slopes))
    for s in slopes:
        assert gcd(s.p, s.q) == 1 and s.q >= 0
    # the committed order, by its definition: filter the box, then sort
    for bound in range(0, 41):
        box = [
            Slope(p, q)
            for q in range(bound + 1)
            for p in range(-bound, bound + 1)
            if gcd(p, q) == 1 and (q or p == 1)
        ]
        box.sort(key=lambda s: (max(abs(s.p), s.q), s.q, s.p))
        assert enumerate_slopes(bound) == box


def test_search_generates_slopes_lazily(monkeypatch):
    # The double trefoil certifies at -1/1, the second enumerated slope, so
    # even a huge bound must draw only a few slopes from the walk before the
    # witness.
    drawn = []
    real_walk = seifert.primitive_slopes

    def counting_walk(bound):
        for slope in real_walk(bound):
            drawn.append(slope)
            assert len(drawn) < 100, "the search drew slopes past its witness"
            yield slope

    monkeypatch.setattr(seifert, "primitive_slopes", counting_walk)
    outcome = certificate_search(_double_trefoil(), search_bound=10**9)
    assert 0 < len(drawn) < 100
    monkeypatch.undo()
    assert outcome.certificate == dict(
        certificate_search(_double_trefoil(), search_bound=3).certificate,
        search_bound=10**9,
    )


def test_slope_walk_stops_at_its_cap(monkeypatch):
    # No pair exists: the walk runs to its bound, and a bound past the cap
    # stops instead of walking on.
    tree = _no_answer_tree()
    monkeypatch.setattr("locert.seifert._MAX_SEARCH_BOUND", 3)
    assert certificate_search(tree, search_bound=3).status is LOStatus.UNKNOWN
    walked = []
    real_walk = seifert.primitive_slopes
    monkeypatch.setattr(seifert, "primitive_slopes",
                        lambda bound: walked.append(bound) or real_walk(bound))
    with pytest.raises(OverflowError, match=(
        r"^no slope pair with \|p\|, q <= 3 verified left-orderable on both "
        r"sides, and the search stops at that cap$"
    )):
        certificate_search(tree, search_bound=4)
    assert walked == [3]
    # a component that is not left-orderable still decides the forest
    forest = SpliceTree(tree.nodes + (BrieskornZHS((2, 3, 5)),), tree.edges)
    assert certificate_search(forest, search_bound=4).status is LOStatus.NOT_LO
    # a pair within the cap certifies at any bound, and records that bound
    outcome = certificate_search(_double_trefoil(), search_bound=4)
    assert outcome.status is LOStatus.LO
    assert outcome.certificate["search_bound"] == 4


def test_certificate_search_double_trefoil():
    outcome = certificate_search(_double_trefoil(), search_bound=3)
    assert outcome.status is LOStatus.LO
    cert = outcome.certificate
    assert cert is not None
    ec = cert["components"][0]["edge_certificate"]
    assert ec["alpha"] == "-1/1"
    assert ec["image"] == "-1/1"
    assert ec["verdict_a"]["status"] == LOStatus.LO.value
    assert ec["verdict_b"]["status"] == LOStatus.LO.value
    ok, report = verify_certificate(_double_trefoil(), cert)
    assert ok, report


def test_certificate_search_corollary_branch():
    user = UserPiece(
        "Y1",
        "exterior of a knot in a left-orderable homology sphere",
        {Slope(1, 0): LOStatus.LO},
        True,
    )
    tree = SpliceTree((user, TorusKnotPiece(2, 3, 1)), (SpliceEdge(0, 1, SPLICE),))
    outcome = certificate_search(tree, search_bound=3)
    assert outcome.status is LOStatus.LO
    ec = outcome.certificate["components"][0]["edge_certificate"]
    # the splice pair (mu_1, lambda_2)
    assert ec["alpha"] == "1/0"
    assert ec["image"] == "0/1"
    assert ec["verdict_a"]["rule"] == LORule.USER_ASSERTED.value
    assert ec["verdict_b"]["rule"] == LORule.B1_RULE.value
    hypotheses = outcome.certificate["hypotheses"]
    assert any("Heil" in h or "prime" in h for h in hypotheses)
    ok, _ = verify_certificate(tree, outcome.certificate)
    assert ok


def test_certificate_search_exceptional_leaf():
    tree = SpliceTree((BrieskornZHS((2, 3, 5)),), ())
    outcome = certificate_search(tree, 3)
    assert outcome.status is LOStatus.NOT_LO
    assert outcome.certificate is None
    lo_leaf = SpliceTree((BrieskornZHS((2, 3, 7)),), ())
    outcome = certificate_search(lo_leaf, 3)
    assert outcome.status is LOStatus.LO
    ok, _ = verify_certificate(lo_leaf, outcome.certificate)
    assert ok


def test_certificate_search_forest_components():
    tree = SpliceTree(
        (
            TorusKnotPiece(2, 3, 1),
            TorusKnotPiece(2, 3, 1),
            BrieskornZHS((2, 3, 7)),
        ),
        (SpliceEdge(0, 1, SPLICE),),
    )
    outcome = certificate_search(tree, search_bound=3)
    assert outcome.status is LOStatus.LO
    assert len(outcome.certificate["components"]) == 2
    ok, _ = verify_certificate(tree, outcome.certificate)
    assert ok
    # one bad component spoils the free product
    spoiled = SpliceTree(
        tree.nodes[:2] + (BrieskornZHS((2, 3, 5)),), tree.edges
    )
    outcome = certificate_search(spoiled, search_bound=3)
    assert outcome.status is LOStatus.NOT_LO
    assert outcome.certificate is None


def test_certificate_search_unknown():
    silent = UserPiece("mystery", "", {}, False)
    tree = SpliceTree((silent, TorusKnotPiece(2, 3, 1)), (SpliceEdge(0, 1, SPLICE),))
    outcome = certificate_search(tree, search_bound=2)
    assert outcome.status is LOStatus.UNKNOWN
    assert outcome.certificate is None


def test_verify_rejects_tampered_certificates():
    tree = _double_trefoil()
    record = certificate_search(tree, search_bound=3).certificate

    def verify_with(**edge_fields):
        bad = copy.deepcopy(record)
        bad["components"][0]["edge_certificate"].update(edge_fields)
        return verify_certificate(tree, bad)

    # a slope that is not left-orderable on a positive trefoil
    ok, report = verify_with(alpha="1/1", image="1/1")
    assert not ok and any("re-derives" in line for line in report)
    # record fields are checked once, by the comparison with the re-derivation
    ok, report = verify_with(image="-1/2")
    assert not ok and report[-1] == (
        "FAIL certificate.components[0].edge_certificate.image differs from its "
        "re-derivation"
    )
    for status in ("unknown", "banana"):
        bad = copy.deepcopy(record)
        bad["components"][0]["status"] = status
        ok, report = verify_certificate(tree, bad)
        assert not ok and report[-1] == (
            "FAIL certificate.components[0].status differs from its re-derivation"
        )
    forest = SpliceTree(tree.nodes + (BrieskornZHS((2, 3, 7)),), tree.edges)
    bad = certificate_search(forest, search_bound=3).certificate
    bad["components"][1]["leaf_verdict"] = None
    ok, report = verify_certificate(forest, bad)
    assert not ok and report[-1] == (
        "FAIL certificate.components[1].leaf_verdict differs from its re-derivation"
    )
    # an unglued exterior makes the tree invalid
    ok, report = verify_certificate(SpliceTree((TREFOIL,), ()), record)
    assert not ok and report == [
        "FAIL tree invalid: T(2,3) chirality +1 is an exterior but has no gluing edge"
    ]
    # an empty forest is S^3, not LO: no empty certificate verifies on it
    empty = {"version": 1, "search_bound": 0, "components": [], "hypotheses": []}
    ok, report = verify_certificate(SpliceTree((), ()), empty)
    assert not ok and report == [
        "FAIL tree invalid: a splice tree needs at least one node"
    ]


def _user_splice() -> SpliceTree:
    # The b-side longitude is left-orderable only by the B1 rule, whose
    # primeness hypothesis the caller flag supplies.
    user = UserPiece("u", "", {}, True)
    return SpliceTree((TREFOIL, user), (SpliceEdge(0, 1, GluingMatrix(1, 1, 0, 1)),))


def _edited(record: dict, path: tuple, value) -> dict:
    bad = copy.deepcopy(record)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


def test_verify_fails_a_witness_that_does_not_rederive():
    valid = "tree valid: all edges glue to integer homology spheres"
    # a closed component that is the Poincare sphere
    poincare = SpliceTree((BrieskornZHS((2, 3, 5)),), ())
    record = {"version": 1, "search_bound": 3, "components": [{"nodes": [0]}],
              "hypotheses": []}
    assert verify_certificate(poincare, record) == (
        False, [valid, "FAIL closed component [0] re-derives as not_lo"]
    )
    # an edge certificate that cites the edge of the other component
    edges = (SpliceEdge(0, 1, SPLICE), SpliceEdge(2, 3, SPLICE))
    forest = SpliceTree((TREFOIL,) * 4, edges)
    record = certificate_search(forest, 3).certificate
    edge = ("components", 0, "edge_certificate", "edge")
    ok, report = verify_certificate(forest, _edited(record, edge, 1))
    assert not ok and report[1] == "FAIL edge 1 does not belong to component [0, 1]"
    # a pair left-orderable on side a only: the longitude of side a glues to
    # the meridian of side b, whose filling is S^3
    tree = _double_trefoil()
    record = certificate_search(tree, 3).certificate
    alpha = ("components", 0, "edge_certificate", "alpha")
    assert verify_certificate(tree, _edited(record, alpha, "0/1")) == (False, [
        valid,
        "FAIL edge 0: slope 1/0 re-derives as not_lo on side b (1/0 filling of "
        "T(2,3) chirality +1 closes to Sigma(1): Sigma(1) is S^3; the trivial "
        "group is not left-orderable)",
    ])


def test_verify_compares_the_record_with_its_rederivation():
    tree = _user_splice()
    record = certificate_search(tree, search_bound=3).certificate
    assert record["hypotheses"] == [
        "edge 0 side b: 0-filling has infinite first homology (surjection onto "
        "Z); primeness supplied by caller flag"
    ]
    ok, report = verify_certificate(tree, record)
    assert ok, report
    edge = ("components", 0, "edge_certificate")
    edits = [
        (("hypotheses",), [], "certificate.hypotheses"),
        (edge + ("verdict_b", "evidence"), "forged",
         "certificate.components[0].edge_certificate.verdict_b.evidence"),
        (edge + ("verdict_a", "rule"), "UserAsserted",
         "certificate.components[0].edge_certificate.verdict_a.rule"),
        (("components", 0, "pieces", 1), "v", "certificate.components[0].pieces[1]"),
        (("components", 0, "note"), "x", "certificate.components[0].note"),
        (("components", 0, "leaf_verdict"), False,
         "certificate.components[0].leaf_verdict"),
        (("version",), 1.0, "certificate.version"),
        (("extra",), None, "certificate"),
    ]
    for path, value, where in edits:
        ok, report = verify_certificate(tree, _edited(record, path, value))
        assert not ok and report[-1] == f"FAIL {where} differs from its re-derivation"
    # the search bound is a witness: read, and checked to be an integer
    assert verify_certificate(tree, _edited(record, ("search_bound",), 40))[0]
    for bound in (None, True, "3", -1):
        with pytest.raises(ValueError, match="search_bound"):
            verify_certificate(tree, _edited(record, ("search_bound",), bound))
    # bound 0 tries the splice pairs only; a negative bound is an input error
    assert certificate_search(tree, search_bound=0).certificate is not None
    with pytest.raises(ValueError, match="search_bound must be >= 0, got -1"):
        certificate_search(tree, search_bound=-1)


def test_tree_validation():
    # a bad tree is a ValueError, told apart by its message
    with pytest.raises(ValueError, match="^gluing matrix must be unimodular$"):
        SpliceTree(
            (TREFOIL, TREFOIL), (SpliceEdge(0, 1, GluingMatrix(2, 0, 0, 1)),)
        ).components()
    with pytest.raises(ValueError, match="^edge does not glue to an integer homology"):
        # identity gluing identifies longitudes: not a homology sphere
        SpliceTree(
            (TREFOIL, TREFOIL), (SpliceEdge(0, 1, GluingMatrix(1, 0, 0, 1)),)
        ).components()
    with pytest.raises(ValueError, match="^self-gluings are not supported$"):
        SpliceTree((TREFOIL,), (SpliceEdge(0, 0, SPLICE),)).components()
    with pytest.raises(ValueError, match="^edge endpoint 2 out of range$"):
        SpliceTree((TREFOIL, TREFOIL), (SpliceEdge(0, 2, SPLICE),)).components()
    with pytest.raises(ValueError, match=r"has 1 edges but 0 boundary tori$"):
        # a closed Brieskorn node cannot carry an edge
        SpliceTree(
            (BrieskornZHS((2, 3, 5)), TREFOIL), (SpliceEdge(0, 1, SPLICE),)
        ).components()
    with pytest.raises(ValueError, match=r"has 2 edges but 1 boundary tori$"):
        # an exterior supports only one gluing
        SpliceTree(
            (TREFOIL, TorusKnotPiece(2, 5, 1), TorusKnotPiece(2, 7, 1)),
            (SpliceEdge(0, 1, SPLICE), SpliceEdge(0, 2, SPLICE)),
        ).components()
    with pytest.raises(ValueError, match="exterior but has no gluing edge"):
        SpliceTree((BrieskornZHS((2, 3, 7)), TREFOIL), ()).components()
    with pytest.raises(ValueError, match="^a splice tree needs at least one node$"):
        SpliceTree((), ()).components()
    # S^3 is no prime summand: it stands only alone
    s3 = BrieskornZHS((2, 3))
    assert SpliceTree((s3,), ()).components() == [([0], None)]
    with pytest.raises(ValueError, match=r"^node 1 \(Sigma\(2,3\)\) is S\^3, "):
        SpliceTree((BrieskornZHS((2, 3, 7)), s3), ()).components()
    with pytest.raises(ValueError, match=r"^node 0 \(Sigma\(1\)\) is S\^3, "):
        SpliceTree((BrieskornZHS((1,)), s3), ()).components()
    with pytest.raises(ValueError, match=r"^node 2 \(Sigma\(2,3\)\) is S\^3, "):
        SpliceTree((TREFOIL, TREFOIL, s3), (SpliceEdge(0, 1, SPLICE),)).components()


def test_a_piece_name_past_the_digit_limit_is_a_budget():
    # describe() prints through int_str, so a ValueError out of components()
    # is always a tree defect, the one thing verify_certificate reports
    huge = TorusKnotPiece(10**4400 + 1, 3, 1)
    with pytest.raises(OverflowError):
        huge.describe()
    record = {"components": [], "search_bound": 0}
    with pytest.raises(OverflowError):
        verify_certificate(SpliceTree((huge,), ()), record)


def test_tree_and_certificate_json_round_trip():
    tree = SpliceTree(
        (
            TorusKnotPiece(2, 3, -1),
            UserPiece("u", "desc", {Slope(1, 0): LOStatus.LO}, True),
        ),
        (SpliceEdge(0, 1, SPLICE),),
    )
    parsed = SpliceTree.from_json(
        {
            "version": 1,
            "nodes": [
                {"kind": "torus_knot", "r": 2, "s": 3, "chirality": -1,
                 "name": "mirror"},
                {"kind": "user", "name": "u", "description": "desc",
                 "asserted": {"1/0": "lo"}, "prime_zero_filling": True},
            ],
            "edges": [{"a": 0, "b": 1, "matrix": [0, 1, 1, 0]}],
        }
    )
    assert parsed == tree


_HUGE = 10**4000
_TREFOIL = {"kind": "torus_knot", "r": 2, "s": 3}
_MALFORMED_TREES = [
    {"nodes": "z" * 5000},
    {"nodes": ["z" * 5000]},
    {"nodes": [{"kind": "k" * 5000}]},
    {"nodes": [{"kind": "torus_knot", "r": "2" * 5000, "s": 3}]},
    {"nodes": [{"kind": "brieskorn", "multiplicities": {"m": "m" * 5000}}]},
    {"nodes": [{"kind": "user", "name": ["n"] * 2000}]},
    {"nodes": [{"kind": "user", "prime_zero_filling": "f" * 5000}]},
    {"nodes": [{"kind": "user", "asserted": {"1/0": "m" * 5000}}]},
    {"nodes": [{"kind": "user", "asserted": {"z" * 1000: "lo"}}]},
    {"nodes": [_TREFOIL], "edges": ["e" * 5000]},
]


@pytest.mark.parametrize("obj", _MALFORMED_TREES)
def test_tree_diagnostics_echo_only_the_start(obj):
    # the message quotes at most 40 characters of the input value
    with pytest.raises(ValueError) as info:
        SpliceTree.from_json(obj)
    assert len(str(info.value)) < 130 and "..." in str(info.value)


def test_validation_diagnostics_echo_only_the_start():
    edge = {"a": _HUGE, "b": 0, "matrix": [0, 1, 1, 0]}
    tree = SpliceTree.from_json({"nodes": [_TREFOIL, _TREFOIL], "edges": [edge]})
    brieskorn = {"kind": "brieskorn", "multiplicities": [2 * _HUGE, 3 * _HUGE]}
    record = json.loads(json.dumps(
        certificate_search(_double_trefoil(), search_bound=3).certificate))
    checks = [
        tree.components,
        lambda: SpliceTree.from_json({"nodes": [brieskorn]}),
        lambda: certificate_search(_double_trefoil(), search_bound=-_HUGE),
        lambda: verify_certificate(_double_trefoil(), {**record, "search_bound": -_HUGE}),
        lambda: verify_certificate(_double_trefoil(), {"components": ["c" * 5000]}),
    ]
    for check in checks:
        with pytest.raises(ValueError) as info:
            check()
        assert len(str(info.value)) < 130 and "..." in str(info.value)


def test_torus_knot_checks_its_fields():
    # the JSON chirality, like the constructor's, is +1 or -1
    for chirality in (0, 2, -3):
        node = {"kind": "torus_knot", "r": 2, "s": 3, "chirality": chirality}
        with pytest.raises(ValueError, match=r"^chirality must be \+1 or -1$"):
            SpliceTree.from_json({"nodes": [node]})
    for r, s in ((1, 3), (2, 4), (3, 3)):
        with pytest.raises(ValueError, match=r"^torus knot needs coprime r, s >= 2$"):
            TorusKnotPiece(r, s, 1)


def test_user_piece_name_and_description_are_strings():
    def user(**fields):
        node = {"kind": "user", "asserted": {"1/0": "lo"}, **fields}
        return {"nodes": [node], "edges": []}

    assert SpliceTree.from_json(user()).nodes == (
        UserPiece("", "", {Slope(1, 0): LOStatus.LO}, False),
    )
    with pytest.raises(ValueError, match=r"^name must be a string, got 5$"):
        SpliceTree.from_json(user(name=5, description="d"))
    with pytest.raises(
        ValueError, match=r"^description must be a string, got \['x'\]$"
    ):
        SpliceTree.from_json(user(name="n", description=["x"]))
    # search -> JSON text -> verify
    for splice in (_double_trefoil(), _user_splice()):
        cert = certificate_search(splice, search_bound=3).certificate
        record = json.loads(json.dumps(cert))
        assert verify_certificate(splice, record)[0]


def test_hf_surgery_rank_examples():
    assert hf_surgery_rank(-3, 1, 1, (1,)) == 5
    assert hf_surgery_rank(7, 1, 1, (1,)) == 7
    assert hf_surgery_rank(5, 2, 0, (3,)) == 9
    with pytest.raises(ValueError, match=r"^q must be positive$"):
        hf_surgery_rank(1, 0, 1, (1,))
    with pytest.raises(ValueError, match=r"^nu must be nonnegative$"):
        hf_surgery_rank(1, 1, -1, (1,))
    with pytest.raises(ValueError, match=r"^all ranks must be >= 1$"):
        hf_surgery_rank(1, 1, 1, (0,))


def test_hf_surgery_rank_lower_bound():
    rank_patterns = [(1,), (1, 1), (2,), (3, 1)]
    for p in range(-12, 13):
        for q in range(1, 5):
            for nu in range(0, 3):
                for ranks in rank_patterns:
                    value = hf_surgery_rank(p, q, nu, ranks)
                    assert value >= abs(p)
                    if p < 0 and nu > 0:
                        assert value > abs(p)
