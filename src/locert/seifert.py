"""Seifert pieces, splice trees and left-orderable-slope certificates.

The certificate machinery decides, for a splice forest of knot exteriors
glued along boundary tori, whether the resulting integer homology sphere
has left-orderable fundamental group, by exhibiting on some edge a slope
pair (alpha, f(alpha)) that is left-orderable on both sides.  Knowledge
about individual fillings is encoded as an ordered rule table with
evidence strings, because the facts come from disparate sources:

* B1Rule:            a 0-filling has positive first Betti number, hence a
                     surjection onto Z; with primeness this certifies
                     left-orderability (Boyer-Rolfsen-Wiest).  Primeness
                     of the 0-filling of a Seifert fibred exterior is
                     Heil's theorem; for user pieces it is a caller flag.
* ZHSClassification: a Seifert fibred integer homology sphere has
                     non-left-orderable fundamental group iff it is S^3 or
                     the Poincare sphere (Boyer-Rolfsen-Wiest).
* LSpaceInterval:    p/q surgery on a positive torus knot T(r, s) is an
                     L-space iff p/q >= rs - r - s, and a Seifert fibred
                     L-space is exactly a Seifert fibred space with
                     non-left-orderable fundamental group
                     (Boyer-Gordon-Watson).  Mirrors by slope negation.
* UserAsserted:      caller-supplied verdicts, recorded verbatim.

Surgeries on torus knots are classified by Moser's theorem: p/q surgery
on T(r, s) is reducible iff p = qrs, a lens space iff |p - qrs| = 1, and
otherwise Seifert fibred with exceptional fibres of orders r, s and
|p - qrs|.

Pieces carry at most one boundary torus (torus-knot and user-asserted
exteriors) or none (closed Brieskorn spheres), which is all the splice
certificates here need; general multi-boundary Seifert calculus is out of
scope.  Connected components of a forest are prime summands and are
certified independently: a free product is left-orderable iff each
nontrivial factor is.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from math import gcd
from typing import NamedTuple

from .slopes import (
    GluingMatrix,
    Slope,
    apply_gluing,
    brief_repr,
    int_str,
    invert_gluing,
    make_slope,
    parse_slope,
    primitive_slopes,
    slope_str,
    union_homology_order,
)

__all__ = [
    "LOStatus",
    "LORule",
    "LOSlopeVerdict",
    "BrieskornZHS",
    "TorusKnotPiece",
    "UserPiece",
    "SpliceEdge",
    "SpliceTree",
    "MoserKind",
    "MoserResult",
    "SearchOutcome",
    "zhs_lo_status",
    "moser_surgery",
    "torus_knot_lspace_verdict",
    "slope_lo_verdict",
    "certificate_search",
    "verify_certificate",
    "enumerate_slopes",
]

# The cap of the slope walk: a search finds its pair within this bound or
# stops.  A walk to bound B tries O(B^2) slopes.
_MAX_SEARCH_BOUND = 400


class LOStatus(Enum):
    LO = "lo"
    NOT_LO = "not_lo"
    UNKNOWN = "unknown"


class LORule(Enum):
    B1_RULE = "B1Rule"
    ZHS_CLASSIFICATION = "ZHSClassification"
    LSPACE_INTERVAL = "LSpaceInterval"
    USER_ASSERTED = "UserAsserted"


class LOSlopeVerdict(NamedTuple):
    status: LOStatus
    rule: LORule | None
    evidence: str

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "rule": self.rule.value if self.rule else None,
            "evidence": self.evidence,
        }


# --- pieces -------------------------------------------------------------------


class _BrieskornFields(NamedTuple):
    multiplicities: tuple[int, ...]


class BrieskornZHS(_BrieskornFields):
    """Closed Brieskorn integer homology sphere with pairwise coprime
    multiplicities; entries equal to 1 are normalization padding."""

    __slots__ = ()

    def __new__(cls, multiplicities: tuple[int, ...]) -> "BrieskornZHS":
        if not multiplicities or any(m < 1 for m in multiplicities):
            raise ValueError("multiplicities must be integers >= 1")
        nontrivial = [m for m in multiplicities if m > 1]
        # One pass from the end: entry i against the product of the later
        # entries.  The first clashing i found from the front is the last
        # one found from the back; its first clashing j names the pair.
        later, clash = 1, None
        for i in range(len(nontrivial) - 1, -1, -1):
            if gcd(nontrivial[i], later) != 1:
                clash = i
            later *= nontrivial[i]
        if clash is not None:
            m = nontrivial[clash]
            n = next(n for n in nontrivial[clash + 1:] if gcd(m, n) != 1)
            raise ValueError(
                f"multiplicities {brief_repr(m)} and {brief_repr(n)} share a factor"
            )
        return super().__new__(cls, multiplicities)

    def boundary_count(self) -> int:
        return 0

    def describe(self) -> str:
        inner = ",".join(int_str(m) for m in self.multiplicities)
        return f"Sigma({inner})"


class _TorusKnotFields(NamedTuple):
    r: int
    s: int
    chirality: int


class TorusKnotPiece(_TorusKnotFields):
    """Exterior of the (r, s) torus knot in S^3; chirality +1 is the
    positive (right-handed) torus knot and -1 its mirror."""

    __slots__ = ()

    def __new__(cls, r: int, s: int, chirality: int) -> "TorusKnotPiece":
        if r < 2 or s < 2 or gcd(r, s) != 1:
            raise ValueError("torus knot needs coprime r, s >= 2")
        if chirality not in (1, -1):
            raise ValueError("chirality must be +1 or -1")
        return super().__new__(cls, r, s, chirality)

    def boundary_count(self) -> int:
        return 1

    def describe(self) -> str:
        sign = "+" if self.chirality > 0 else "-"
        return f"T({int_str(self.r)},{int_str(self.s)}) chirality {sign}1"


class UserPiece(NamedTuple):
    """Knot exterior with caller-supplied slope verdicts.

    ``asserted`` maps each asserted slope, normalized, to its status, one
    entry per slope: the order of the JSON keys does not matter, and two
    keys that name one slope (``-1/1`` and ``1/-1``) are an input error of
    ``SpliceTree.from_json``, whatever their statuses.  The meridian entry
    (1, 0), when LO, asserts that the ambient homology sphere has
    left-orderable fundamental group.  ``prime_zero_filling`` supplies the
    primeness hypothesis the B1 rule needs.
    """

    name: str
    description: str
    asserted: dict[Slope, LOStatus]
    prime_zero_filling: bool

    def boundary_count(self) -> int:
        return 1

    def describe(self) -> str:
        return self.description or self.name or "user piece"


Piece = BrieskornZHS | TorusKnotPiece | UserPiece


class SpliceEdge(NamedTuple):
    """Gluing of node a's boundary to node b's, as a unimodular matrix in
    the two (meridian, longitude) framings, acting a-side -> b-side."""

    a: int
    b: int
    matrix: GluingMatrix


class SpliceTree(NamedTuple):
    nodes: tuple[Piece, ...]
    edges: tuple[SpliceEdge, ...]

    def components(self) -> list[tuple[list[int], int | None]]:
        """Check the tree and split it into components, by first node.

        Each node has as many edges as boundary tori, at most one, so a
        component is a closed node ``([i], None)`` or the two exteriors of
        an edge ``(sorted((a, b)), edge index)``.  A ValueError names the
        first defect: per edge, an endpoint out of range, a self-gluing,
        a matrix that is not unimodular, or a glued manifold that is not an
        integer homology sphere; then a node with more edges than boundary
        tori; then an exterior with no edge."""
        degree = [0] * len(self.nodes)
        for e in self.edges:
            for end in (e.a, e.b):
                if not 0 <= end < len(self.nodes):
                    raise ValueError(f"edge endpoint {brief_repr(end)} out of range")
                degree[end] += 1
            if e.a == e.b:
                raise ValueError("self-gluings are not supported")
            if abs(e.matrix.det()) != 1:
                raise ValueError("gluing matrix must be unimodular")
            if union_homology_order(e.matrix) != 1:
                raise ValueError(
                    "edge does not glue to an integer homology sphere "
                    "(Delta(f(lambda), lambda) != 1)"
                )
        for i, piece in enumerate(self.nodes):
            if degree[i] > piece.boundary_count():
                raise ValueError(
                    f"node {i} ({piece.describe()}) has {degree[i]} edges but "
                    f"{piece.boundary_count()} boundary tori"
                )
        for i, piece in enumerate(self.nodes):
            if degree[i] < piece.boundary_count():
                raise ValueError(
                    f"{piece.describe()} is an exterior but has no gluing edge"
                )
        closed = [([i], None) for i, d in enumerate(degree) if not d]
        glued = [(sorted((e.a, e.b)), ei) for ei, e in enumerate(self.edges)]
        return sorted(closed + glued)  # no two components share a node

    @classmethod
    def from_json(cls, obj: dict) -> "SpliceTree":
        _expect(isinstance(obj, dict), "a splice tree must be a JSON object")
        nodes: list[Piece] = []
        for nd in _json_list(_required(obj, "nodes"), "nodes"):
            _expect(isinstance(nd, dict),
                    f"node {brief_repr(nd)} must be a JSON object")
            kind = _required(nd, "kind")
            if kind == "torus_knot":
                nodes.append(
                    TorusKnotPiece(
                        _json_int(_required(nd, "r"), "r"),
                        _json_int(_required(nd, "s"), "s"),
                        _json_int(nd.get("chirality", 1), "chirality"),
                    )
                )
            elif kind == "brieskorn":
                ms = _json_list(_required(nd, "multiplicities"), "multiplicities")
                nodes.append(
                    BrieskornZHS(tuple(_json_int(m, "a multiplicity") for m in ms))
                )
            elif kind == "user":
                asserted = nd.get("asserted", {})
                _expect(isinstance(asserted, dict), "asserted must be a JSON object")
                prime = nd.get("prime_zero_filling", False)
                _expect(
                    isinstance(prime, bool),
                    "prime_zero_filling must be true or false, "
                    f"got {brief_repr(prime)}",
                )
                nodes.append(
                    UserPiece(
                        _json_str(nd.get("name", ""), "name"),
                        _json_str(nd.get("description", ""), "description"),
                        _asserted_slopes(asserted),
                        prime,
                    )
                )
            else:
                raise ValueError(f"unknown node kind {brief_repr(kind)}")
        edges = []
        for e in _json_list(obj.get("edges", []), "edges"):
            _expect(isinstance(e, dict),
                    f"edge {brief_repr(e)} must be a JSON object")
            matrix = _json_list(_required(e, "matrix"), "matrix")
            _expect(len(matrix) == 4, "matrix must have 4 entries, row-major")
            edges.append(
                SpliceEdge(
                    _json_int(_required(e, "a"), "edge endpoint"),
                    _json_int(_required(e, "b"), "edge endpoint"),
                    GluingMatrix(*(_json_int(x, "a matrix entry") for x in matrix)),
                )
            )
        return cls(tuple(nodes), tuple(edges))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _required(obj: dict, key: str) -> object:
    _expect(key in obj, f"{key} is missing")
    return obj[key]


def _json_list(value: object, what: str) -> list:
    _expect(isinstance(value, list),
            f"{what} must be a JSON list, got {brief_repr(value)}")
    return value


def _json_object(value: object, what: str) -> dict:
    _expect(isinstance(value, dict),
            f"{what} must be a JSON object, got {brief_repr(value)}")
    return value


def _json_str(value: object, what: str) -> str:
    _expect(isinstance(value, str),
            f"{what} must be a string, got {brief_repr(value)}")
    return value


def _asserted_slopes(asserted: dict) -> dict[Slope, LOStatus]:
    """A user piece's ``asserted`` object as its slope -> status map; two
    keys that parse to one slope are an error, even at one status."""
    statuses: dict[Slope, LOStatus] = {}
    keys: dict[Slope, str] = {}
    for key, value in asserted.items():
        slope = parse_slope(key)
        if slope in keys:
            raise ValueError(
                f"asserted slopes {brief_repr(keys[slope])} and "
                f"{brief_repr(key)} name the same slope"
            )
        keys[slope] = key
        statuses[slope] = _asserted_status(key, value)
    return statuses


def _asserted_status(slope: str, value: object) -> LOStatus:
    accepted = [status.value for status in LOStatus]
    _expect(
        value in accepted,
        f"the status asserted at slope {brief_repr(slope)} must be one of "
        f"{', '.join(accepted)}, got {brief_repr(value)}",
    )
    return LOStatus(value)


def _json_int(value: object, what: str) -> int:
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        f"{what} must be an integer, got {brief_repr(value)}",
    )
    return value


# --- classification rules -----------------------------------------------------


def zhs_lo_status(z: BrieskornZHS) -> LOSlopeVerdict:
    """Boyer-Rolfsen-Wiest: among Seifert fibred integer homology spheres
    exactly S^3 (trivial group, not left-orderable by convention) and the
    Poincare sphere fail to be left-orderable.  S^3 has fewer than three
    nontrivial multiplicities; {2, 3, 5} is the Poincare sphere."""
    nontrivial = sorted(m for m in z.multiplicities if m > 1)
    if len(nontrivial) < 3:
        return LOSlopeVerdict(
            LOStatus.NOT_LO,
            LORule.ZHS_CLASSIFICATION,
            f"{z.describe()} is S^3; the trivial group is not left-orderable",
        )
    if nontrivial == [2, 3, 5]:
        return LOSlopeVerdict(
            LOStatus.NOT_LO,
            LORule.ZHS_CLASSIFICATION,
            f"{z.describe()} is the Poincare sphere; finite fundamental group",
        )
    return LOSlopeVerdict(
        LOStatus.LO,
        LORule.ZHS_CLASSIFICATION,
        f"{z.describe()} is a Seifert fibred integer homology sphere other "
        "than S^3 and the Poincare sphere (Boyer-Rolfsen-Wiest)",
    )


class MoserKind(Enum):
    SFS = "sfs"
    LENS = "lens"
    REDUCIBLE = "reducible"


class MoserResult(NamedTuple):
    kind: MoserKind
    multiplicities: tuple[int, ...] | None


def _effective_slope(k: TorusKnotPiece, alpha: Slope) -> Slope:
    """Mirror symmetry: the (p, q) filling of the mirror exterior is the
    (-p, q) filling of the positive one."""
    if k.chirality > 0:
        return alpha
    return make_slope(-alpha.p, alpha.q)


def moser_surgery(k: TorusKnotPiece, alpha: Slope) -> MoserResult:
    """Moser's classification of p/q surgery on the torus knot T(r, s)."""
    eff = _effective_slope(k, alpha)
    rs = k.r * k.s
    d = eff.p - eff.q * rs
    if d == 0:
        return MoserResult(MoserKind.REDUCIBLE, None)
    if abs(d) == 1:
        return MoserResult(MoserKind.LENS, None)
    return MoserResult(MoserKind.SFS, (k.r, k.s, abs(d)))


def torus_knot_lspace_verdict(k: TorusKnotPiece, alpha: Slope) -> LOSlopeVerdict:
    """L-space interval rule: for the positive T(r, s), the p/q filling is
    an L-space iff p/q >= rs - r - s; by Boyer-Gordon-Watson this is
    exactly non-left-orderability among these Seifert fibred fillings.  The
    reducible filling is covered by no rule: its verdict is UNKNOWN."""
    result = moser_surgery(k, alpha)
    if result.kind is MoserKind.REDUCIBLE:
        return LOSlopeVerdict(
            LOStatus.UNKNOWN,
            None,
            f"{slope_str(alpha)} filling of {k.describe()} is reducible; "
            "no rule applies",
        )
    eff = _effective_slope(k, alpha)
    threshold = k.r * k.s - k.r - k.s
    # p/q >= threshold with q >= 0, as the exact integer inequality.
    not_lo = eff.p >= threshold * eff.q
    where = f"{slope_str(eff)} on the positive T({k.r},{k.s})"
    bar = f"rs - r - s = {int_str(threshold)}"
    if not_lo:
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


def slope_lo_verdict(piece: Piece, alpha: Slope) -> LOSlopeVerdict:
    """Dispatch over the rule table; first applicable rule wins.  A torus
    knot exterior tries B1Rule at 0/1, ZHSClassification at |p| = 1, then
    LSpaceInterval; a user piece tries B1Rule at 0/1 under its primeness
    flag, then UserAsserted, and is UNKNOWN elsewhere."""
    if isinstance(piece, BrieskornZHS):
        raise ValueError("closed pieces have no slopes to fill")
    alpha = make_slope(alpha.p, alpha.q)

    if isinstance(piece, TorusKnotPiece):
        if alpha.p == 0:
            return LOSlopeVerdict(
                LOStatus.LO,
                LORule.B1_RULE,
                "0-filling has infinite first homology (surjection onto Z) "
                "and is prime and Seifert fibred (Heil)",
            )
        if abs(alpha.p) == 1:  # a homology sphere; reducible needs p = qrs
            result = moser_surgery(piece, alpha)
            closed = BrieskornZHS(result.multiplicities or (1,))  # lens: S^3
            verdict = zhs_lo_status(closed)
            return LOSlopeVerdict(
                verdict.status,
                LORule.ZHS_CLASSIFICATION,
                f"{slope_str(alpha)} filling of {piece.describe()} closes to "
                f"{closed.describe()}: " + verdict.evidence,
            )
        return torus_knot_lspace_verdict(piece, alpha)

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


# --- certificates ---------------------------------------------------------------


class SearchOutcome(NamedTuple):
    """The answer of ``certificate_search``: LO when ``certificate`` is set,
    NOT_LO when some component is not, UNKNOWN otherwise.  ``components``
    and ``certificate`` are the JSON records that ``splice cert`` prints."""

    status: LOStatus
    components: list[dict]
    certificate: dict | None


def enumerate_slopes(bound: int) -> list[Slope]:
    """The slopes the search tries after the splice pairs, as a list."""
    return list(primitive_slopes(bound))


def _pair(
    tree: SpliceTree, edge: SpliceEdge, alpha: Slope
) -> tuple[LOSlopeVerdict, Slope | None, LOSlopeVerdict | None]:
    """The one check of a slope pair (alpha, f(alpha)) across ``edge``: the
    verdict on side a and, only when that verdict is LO, the image f(alpha)
    and the verdict on side b (None and None otherwise)."""
    va = slope_lo_verdict(tree.nodes[edge.a], alpha)
    if va.status is not LOStatus.LO:
        return va, None, None
    image = apply_gluing(edge.matrix, alpha)
    return va, image, slope_lo_verdict(tree.nodes[edge.b], image)


def _component(
    tree: SpliceTree,
    nodes: list[int],
    status: LOStatus,
    leaf_verdict: LOSlopeVerdict | None = None,
    pair: tuple | None = None,
    note: str = "",
) -> dict:
    """The record of one component; ``pair`` is (edge index, alpha, image,
    verdict a, verdict b) of the certified edge."""
    edge_certificate = None
    if pair is not None:
        edge_index, alpha, image, va, vb = pair
        edge_certificate = {
            "edge": edge_index,
            "alpha": slope_str(alpha),
            "image": slope_str(image),
            "verdict_a": va.to_json(),
            "verdict_b": vb.to_json(),
        }
    return {
        "nodes": list(nodes),
        "status": status.value,
        "pieces": [tree.nodes[i].describe() for i in nodes],
        "edge_certificate": edge_certificate,
        "leaf_verdict": leaf_verdict.to_json() if leaf_verdict else None,
        "note": note,
    }


def _certificate(components: list[dict], search_bound: int) -> dict:
    """The one place certificate records are assembled.  Its hypotheses are
    the evidence of every B1-rule verdict it cites, in order and without
    repeats: that rule needs a prime filling."""
    hypotheses = [
        f"edge {ec['edge']} side {side}: {ec['verdict_' + side]['evidence']}"
        for ec in (c["edge_certificate"] for c in components)
        if ec is not None
        for side in "ab"
        if ec["verdict_" + side]["rule"] == LORule.B1_RULE.value
    ]
    return {
        "version": 1,
        "search_bound": search_bound,
        "components": components,
        "hypotheses": list(dict.fromkeys(hypotheses)),
    }


def _certify_edge(tree: SpliceTree, edge_index: int, bound: int) -> tuple | None:
    """First slope pair (alpha, f(alpha)) left-orderable on both sides, as
    (edge index, alpha, image, verdict a, verdict b).

    Candidates come in a fixed order: the a-side preferred meridian
    f^-1(lambda), whose image is the b-side longitude; then the a-side
    longitude, whose image is the b-side preferred meridian f(lambda);
    then the slopes of ``primitive_slopes(bound)``, generated one at a
    time.  The first two are the splice pairs: a preferred meridian fills
    to the ambient homology sphere, and a longitude is left-orderable by
    the B1 rule.
    """
    edge = tree.edges[edge_index]
    lam = Slope(0, 1)
    meridian = apply_gluing(invert_gluing(edge.matrix), lam)
    for alpha in chain((meridian, lam), primitive_slopes(bound)):
        va, image, vb = _pair(tree, edge, alpha)
        if vb is not None and vb.status is LOStatus.LO:
            return edge_index, alpha, image, va, vb
    return None


def certificate_search(tree: SpliceTree, search_bound: int) -> SearchOutcome:
    """Search for a left-orderability certificate on the splice forest.

    Components (prime summands) are certified independently.  A two-piece
    component has one edge, certified by exhibiting a slope pair
    left-orderable on both sides; single closed nodes are classified
    directly.  Unknown is a first-class result: the rule table is partial
    and the slope search is bounded.  The walk stops at
    ``_MAX_SEARCH_BOUND``; a pair found by then certifies at any
    ``search_bound``.  An edge with no pair short of ``search_bound`` raises
    OverflowError, unless a NOT_LO component decides the answer.
    """
    _expect(search_bound >= 0,
            f"search_bound must be >= 0, got {brief_repr(search_bound)}")
    walked = min(search_bound, _MAX_SEARCH_BOUND)
    stopped = False
    components = []
    for node_ids, edge in tree.components():
        if edge is None:
            verdict = zhs_lo_status(tree.nodes[node_ids[0]])
            components.append(_component(tree, node_ids, verdict.status, verdict))
        elif pair := _certify_edge(tree, edge, walked):
            components.append(_component(tree, node_ids, LOStatus.LO, pair=pair))
        else:
            stopped = walked < search_bound
            note = (
                f"no slope pair with |p|, q <= {walked} verified "
                "left-orderable on both sides"
            )
            components.append(_component(tree, node_ids, LOStatus.UNKNOWN, note=note))
    statuses = {LOStatus(c["status"]) for c in components}
    if statuses <= {LOStatus.LO}:
        certificate = _certificate(components, search_bound)
        return SearchOutcome(LOStatus.LO, components, certificate)
    status = LOStatus.NOT_LO if LOStatus.NOT_LO in statuses else LOStatus.UNKNOWN
    if stopped and status is LOStatus.UNKNOWN:
        raise OverflowError(
            f"no slope pair with |p|, q <= {walked} verified left-orderable "
            "on both sides, and the search stops at that cap"
        )
    return SearchOutcome(status, components, None)


def verify_certificate(tree: SpliceTree, record: object) -> tuple[bool, list[str]]:
    """Re-derive a certificate record (the ``certificate`` that ``splice
    cert`` prints) at its witnesses: each component's nodes, each edge
    certificate's edge and alpha, and the search bound.  The image is
    parsed, not used.

    The tree must be valid, the record must claim exactly its components,
    each edge certificate must cite an edge of its component, and every
    closed component and cited pair (alpha, f(alpha)) must re-derive as
    left-orderable.  The certificate rebuilt from the witnesses must then
    equal the record: statuses, leaf verdicts, images, verdicts, pieces and
    hypotheses are checked there.  Malformed witnesses raise.
    """
    _expect(isinstance(record, dict), "a certificate must be a JSON object")
    claimed = {}
    for c in _json_list(record.get("components"), "components"):
        _expect(isinstance(c, dict),
                f"component {brief_repr(c)} must be a JSON object")
        witness = None
        if c.get("edge_certificate") is not None:
            ec = _json_object(c["edge_certificate"], "edge_certificate")
            witness = (
                _json_int(ec.get("edge"), "edge"),
                parse_slope(_json_str(ec.get("alpha"), "alpha")),
            )
            parse_slope(_json_str(ec.get("image"), "image"))  # compared below
        nodes = _json_list(c.get("nodes"), "nodes")
        nodes = tuple(sorted(_json_int(v, "a component node") for v in nodes))
        claimed[nodes] = witness
    search_bound = _json_int(record.get("search_bound"), "search_bound")
    _expect(search_bound >= 0,
            f"search_bound must be >= 0, got {brief_repr(search_bound)}")

    report: list[str] = []
    ok = True

    def fail(msg: str) -> None:
        nonlocal ok
        ok = False
        report.append("FAIL " + msg)

    try:
        actual = {tuple(nodes): edge for nodes, edge in tree.components()}
    except ValueError as exc:
        fail(f"tree invalid: {exc}")
        return False, report
    report.append("tree valid: all edges glue to integer homology spheres")
    if set(actual) != set(claimed):
        fail("certificate components do not match the tree's components")
        return False, report

    components = []
    for nodes, edge in actual.items():
        witness = claimed[nodes]
        if edge is None:
            verdict = zhs_lo_status(tree.nodes[nodes[0]])
            if verdict.status is not LOStatus.LO:
                fail(f"closed component {list(nodes)} re-derives as "
                     f"{verdict.status.value}")
            else:
                report.append(
                    f"component {list(nodes)}: closed piece re-verified "
                    f"({verdict.evidence})"
                )
                components.append(_component(tree, nodes, verdict.status, verdict))
            continue
        if witness is None:
            fail(f"component {list(nodes)} lacks an edge certificate")
            continue
        edge_index, alpha = witness
        if edge_index != edge:
            fail(f"edge {edge_index} does not belong to component {list(nodes)}")
            continue
        va, image, vb = _pair(tree, tree.edges[edge_index], alpha)
        if vb is None:
            fail(
                f"edge {edge_index}: slope {slope_str(alpha)} "
                f"re-derives as {va.status.value} on side a ({va.evidence})"
            )
        elif vb.status is not LOStatus.LO:
            fail(
                f"edge {edge_index}: slope {slope_str(image)} re-derives "
                f"as {vb.status.value} on side b ({vb.evidence})"
            )
        else:
            report.append(
                f"edge {edge_index}: pair ({slope_str(alpha)}, "
                f"{slope_str(image)}) re-verified left-orderable on both sides"
            )
            pair = (edge_index, alpha, image, va, vb)
            components.append(_component(tree, nodes, LOStatus.LO, pair=pair))
    if ok:
        derived = _certificate(components, search_bound)
        where = _first_difference(derived, record, "certificate")
        if where is not None:
            fail(f"{where} differs from its re-derivation")
    return ok, report


def _first_difference(derived: object, recorded: object, path: str) -> str | None:
    """Path of the first value where ``recorded`` departs from ``derived``,
    or None; leaves must agree in type too, so 1, 1.0 and true differ."""
    same_type = type(derived) is type(recorded)
    if same_type and isinstance(derived, dict) and derived.keys() == recorded.keys():
        parts = [(derived[k], recorded[k], f"{path}.{k}") for k in derived]
    elif same_type and isinstance(derived, list) and len(derived) == len(recorded):
        parts = [(d, recorded[i], f"{path}[{i}]") for i, d in enumerate(derived)]
    else:
        return None if same_type and derived == recorded else path
    return next(filter(None, (_first_difference(*part) for part in parts)), None)
