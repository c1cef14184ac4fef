"""Command-line frontend.

Every subcommand prints a result envelope

    {"status": ..., "payload": {...}, "citations": [...], "runtime_ms": ...}

in JSON mode (the default), or a readable text rendering with ``--format
text``.  The payload is deterministic for fixed inputs and seeds; only
``runtime_ms`` varies between runs.  Exit codes: 0 on success; 2 when the
answer is unknown or inconclusive, as past a budget (README, "Output and
exit codes", lists the budgets); 1 on input errors, with a diagnostic on
stderr (a ``verify proposition-4-3 --grid-bound`` below 1 counts as one); 3
on a failed ``verify proposition-4-3`` check, whose envelope has status
``error``.

Property-style commands (``verify proposition-4-3``) take ``--seed`` and
``--samples``; defaults are seed 0 and 200 samples, and all randomness is
derived from the seed.

Each handler fills a payload dict that ``run`` owns and returns the status;
its citations are a parser default.  A handler holds no cap: each cap lives in
the layer whose work it bounds, so a direct caller of that layer meets it too.
A handler imports the layers it calls, and this module imports none at module
level, so a process loads only what its subcommand runs (``slope delta``
loads ``slopes`` alone).  A layer raises
``ValueError`` on bad input, which ``run`` maps to exit 1 as it does
``OSError``, and ``OverflowError`` past a budget (a cap, ``--max-cosets``, or
the digit limit of ``slopes.int_str``), which ``run`` answers as
``inconclusive`` with the message as ``reason``; any other exception
propagates.  No handler answers a budget itself, so every stopped computation
takes that one path.

The argument parser is built once per process, on the first ``run``, and
reused by every later call; importing this module builds none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_CHECK_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1.
    def error(self, message):  # noqa: D102
        raise _UsageError(message)

    # argparse drops a "--" that is an argument's whole value, as in ``slope
    # delta -- 0 --`` or ``--poly=--``, and hands on an empty list; keep it.
    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_read_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None


# --- subcommand handlers: fill ``payload``, return the status ----------------
# Result keys are set to None before they are computed, so an answer cut short
# by an OverflowError keeps them, null, next to ``reason``.


def _braid_sign(args, payload) -> str:
    from . import braid

    word = braid.parse_word(args.word)
    payload.update(word=braid.word_str(word), sign=None)
    payload["sign"] = braid.dd_sign(word).value
    return "ok"


def _braid_compare(args, payload):
    from . import braid

    u = braid.parse_word(args.u)
    v = braid.parse_word(args.v)
    payload["comparison"] = None
    payload["comparison"] = braid.dd_compare(u, v).value
    return "ok"


def _braid_reduce(args, payload):
    from . import braid
    from .words import word_power

    word = braid.parse_word(args.word)
    payload.update(word=braid.word_str(word), reduced=None, trivial=None)
    peripheral = braid.peripheral_parse(word)
    if peripheral is not None and peripheral.l == 0:
        # s2^k: no word of it holds s1 with one sign only (Dehornoy's
        # trichotomy), so handle reduction ends at s2^k itself
        reduced = word_power(braid.SIGMA2, peripheral.k)
    else:
        reduced = braid.handle_reduce(word)
    payload.update(reduced=braid.word_str(reduced), trivial=not reduced)
    return "ok"


def _braid_floor(args, payload):
    from . import braid

    word = braid.parse_word(args.word)
    payload["floor"] = None
    payload["floor"] = braid.delta_floor(word)
    return "ok"


def _klein_fill(args, payload):
    from . import klein, slopes

    slope = slopes.Slope(args.m, args.n)  # as typed, not normalized
    payload.update(slope=list(slope), classification=None,
                   abelianization=None, note=None)
    kind, free_rank, torsion, note = klein.klein_fill(slope)
    payload.update(
        classification=kind.value,
        abelianization={"free_rank": free_rank, "torsion": list(torsion)},
        note=note,
    )
    return "ok"


def _klein_sign(args, payload):
    from . import klein

    g = klein.parse_element(args.element)
    ordering = klein.KleinOrderingId(args.ordering)
    payload.update(element=klein.element_str(g), ordering=ordering.value,
                   sign=klein.k_sign(g, ordering).value)
    return "ok"


def _slope_delta(args, payload):
    from . import slopes

    a = slopes.parse_slope(args.alpha)
    b = slopes.parse_slope(args.beta)
    payload["delta"] = slopes.intersection_number(a, b)
    return "ok"


def _ints(text: str, message: str) -> list[int]:
    """The comma-separated integers of ``text``; ``slopes.parse_int``'s
    ValueError when an entry is not one."""
    from .slopes import parse_int

    return [parse_int(x, message) for x in text.split(",")]


def _read_int(text: str) -> int:
    """``int(text)``, with ``slopes.parse_int``'s diagnostic for an integer
    too long to read; ``_int`` and ``json.load`` read integers with it."""
    try:
        return int(text)
    except ValueError:
        from .slopes import brief_repr, parse_int  # a valid integer loads no layer

        return parse_int(text, f"invalid int value: {brief_repr(text)}")


def _int(text: str) -> int:
    """``_read_int`` as an argparse type, with argparse's diagnostic."""
    try:
        return _read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _slope_glue(args, payload):
    from . import slopes

    message = "matrix must be 4 comma-separated integers, row-major"
    parts = _ints(args.matrix, message)
    if len(parts) != 4:
        raise ValueError(message)
    alpha = slopes.parse_slope(args.slope)
    image = slopes.apply_gluing(slopes.GluingMatrix(*parts), alpha)
    payload["slope"] = None
    payload["slope"] = slopes.slope_str(image)
    return "ok"


def _group_abelianize(args, payload):
    from . import fpgroup

    p = fpgroup.Presentation.from_json(_load_json(args.presentation))
    ab = fpgroup.abelianization(p)
    payload.update(free_rank=ab.free_rank, torsion=list(ab.torsion))
    return "ok"


def _group_fill(args, payload):
    from . import fpgroup, slopes

    p = fpgroup.Presentation.from_json(_load_json(args.presentation))
    mu = fpgroup.parse_group_word(args.mu, p.generators)
    lam = fpgroup.parse_group_word(args.longitude, p.generators)
    slope = slopes.parse_slope(args.slope)
    payload["presentation"] = None
    filled = fpgroup.dehn_fill(p, mu, lam, (slope.p, slope.q))
    payload["presentation"] = filled.to_json()
    return "ok"


def _group_amalgam(args, payload):
    from . import fpgroup
    from .slopes import brief_repr

    p1 = fpgroup.Presentation.from_json(_load_json(args.presentation1))
    p2 = fpgroup.Presentation.from_json(_load_json(args.presentation2))
    pairs = []
    for text in args.pair or []:
        left, sep, right = text.partition("=")
        if not sep:
            raise ValueError(f"pair {brief_repr(text)} must look like 'word = word'")
        pairs.append(
            (
                fpgroup.parse_group_word(left.strip(), p1.generators),
                fpgroup.parse_group_word(right.strip(), p2.generators),
            )
        )
    payload["presentation"] = fpgroup.amalgam(p1, p2, pairs).to_json()
    return "ok"


def _group_enumerate(args, payload):
    from . import fpgroup

    p = fpgroup.Presentation.from_json(_load_json(args.presentation))
    subgroup = [
        fpgroup.parse_group_word(w, p.generators) for w in (args.subgroup or [])
    ]
    payload.update(index=None, max_cosets=args.max_cosets)
    payload["index"] = fpgroup.enumerate_table(p, subgroup, args.max_cosets).index
    return "ok"


def _splice_cert(args, payload):
    from . import seifert

    tree = seifert.SpliceTree.from_json(_load_json(args.tree))
    payload.update(status=None, components=None, certificate=None)
    verdict, components, certificate = seifert.certificate_search(tree, args.bound)
    payload.update(status=verdict.value, components=components, certificate=certificate)
    return "unknown" if verdict is seifert.LOStatus.UNKNOWN else "ok"


def _splice_verify(args, payload):
    from . import seifert

    tree = seifert.SpliceTree.from_json(_load_json(args.tree))
    payload.update(valid=None, report=None)
    record = _load_json(args.certificate)
    payload["valid"], payload["report"] = seifert.verify_certificate(tree, record)
    return "ok"


def _hf_rank(args, payload):
    from . import slopes

    ranks = tuple(_ints(args.ranks, "ranks must be comma-separated integers"))
    payload["rank"] = slopes.hf_surgery_rank(args.p, args.q, args.nu, ranks)
    return "ok"


def _cover_order(args, payload):
    from . import alexander

    poly = alexander.parse_poly(args.poly)
    failed = alexander.validate_alexander(poly)
    if failed:
        raise ValueError("not a normalized Alexander polynomial: " + "; ".join(failed))
    payload.update(polynomial=alexander.poly_str(poly), n=args.n, order=None)
    if args.n % 2 == 0:
        payload["note"] = (
            "n is even: the n-fold branched cover admits a nontrivial "
            "homomorphism onto the fundamental group of the 2-fold one, so "
            "left-orderability descends from the double branched cover"
        )
    order = alexander.branched_cover_order(poly, args.n)
    payload["order"] = order if order is not None else "infinite"
    return "ok"


def _verify_compat(args, payload):
    from . import compat

    payload.update(seed=args.seed, samples=args.samples, grid_bound=args.grid_bound,
                   total_failures=None, wrong_ordering_control_failures=None, cases=None)
    payload.update(compat.proposition_4_3_report(
        args.seed, args.samples, args.max_len, args.grid_bound, args.verbose_cases))
    failed = payload["total_failures"] or not payload["wrong_ordering_control_failures"]
    return "error" if failed else "ok"


def _verify_nonapplicability(args, payload):
    from . import compat

    payload.update(dict.fromkeys(("klein_slopes", "lo_slopes", "pullback_slope",
                                  "b3_quotient_index", "conclusion")))
    payload.update(compat.jsjlo_nonapplicability_report(args.slope_bound))
    return "ok"


# --- wiring -------------------------------------------------------------------

_SPLICE_CITATIONS = [
    "Boyer-Rolfsen-Wiest: left-orderability from a nontrivial homomorphism "
    "to a left-orderable group; classification of Seifert fibred homology "
    "spheres",
    "Boyer-Gordon-Watson: Seifert fibred L-spaces are exactly the "
    "non-left-orderable ones",
    "Moser: surgery on torus knots",
]
_COMPAT_CITATIONS = [
    "Bludov-Glass: amalgams are left-orderable iff compatible normal "
    "families of orderings exist",
    "Dubrovina-Dubrovin: the positive-cone ordering of B3",
    "Boyer-Gordon-Watson: +4-surgery on the figure-eight knot",
]


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="locert",
        description="Exact left-orderability certificates for graph-manifold "
        "fundamental groups",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    parser.set_defaults(citations=[])
    sub = parser.add_subparsers(dest="command", required=True)

    braid_p = sub.add_parser("braid", help="B3 word problem and DD ordering")
    braid_sub = braid_p.add_subparsers(dest="subcommand", required=True)
    p = braid_sub.add_parser("sign", help="DD sign of a braid word")
    p.add_argument("word")
    p.set_defaults(handler=_braid_sign, citations=[
        "Dubrovina-Dubrovin 2001: the positive-cone ordering of B3"])
    p = braid_sub.add_parser("compare", help="DD comparison of two words")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(handler=_braid_compare)
    p = braid_sub.add_parser("reduce", help="handle reduction")
    p.add_argument("word")
    p.set_defaults(handler=_braid_reduce, citations=[
        "Dehornoy: handle reduction decides 1-positivity"])
    p = braid_sub.add_parser("floor", help="Delta^2 floor in the DD ordering")
    p.add_argument("word")
    p.set_defaults(handler=_braid_floor, citations=[
        "Malyutin: Delta^2 is cofinal in every left ordering of B3"])

    klein_p = sub.add_parser("klein", help="Klein-bottle group computations")
    klein_sub = klein_p.add_subparsers(dest="subcommand", required=True)
    p = klein_sub.add_parser("fill", help="classify a filling of the twisted I-bundle")
    p.add_argument("m", type=_int, help="y-exponent of the slope")
    p.add_argument("n", type=_int, help="x^2-exponent of the slope")
    p.set_defaults(handler=_klein_fill)
    p = klein_sub.add_parser("sign", help="sign of x^a y^b in O1 or O2")
    p.add_argument("element", help="element such as 'x^2 y^-3'")
    p.add_argument("--ordering", choices=("O1", "O2"), default="O1")
    p.set_defaults(handler=_klein_sign)

    slope_p = sub.add_parser("slope", help="slope calculus on torus boundaries")
    slope_sub = slope_p.add_subparsers(dest="subcommand", required=True)
    p = slope_sub.add_parser("delta", help="minimal intersection number")
    p.add_argument("alpha", help="slope p/q")
    p.add_argument("beta", help="slope p/q")
    p.set_defaults(handler=_slope_delta)
    p = slope_sub.add_parser("glue", help="apply a gluing matrix to a slope")
    p.add_argument("--matrix", required=True, help="a,b,c,d row-major")
    p.add_argument("slope", help="slope p/q")
    p.set_defaults(handler=_slope_glue)

    group_p = sub.add_parser("group", help="finitely presented groups")
    group_sub = group_p.add_subparsers(dest="subcommand", required=True)
    p = group_sub.add_parser("abelianize", help="abelian invariants")
    p.add_argument("presentation", help="presentation JSON file")
    p.set_defaults(handler=_group_abelianize)
    p = group_sub.add_parser("fill", help="adjoin the Dehn-filling relator")
    p.add_argument("presentation")
    p.add_argument("--mu", required=True, help="meridian word")
    p.add_argument("--longitude", required=True, help="longitude word")
    p.add_argument("--slope", required=True, help="slope p/q")
    p.set_defaults(handler=_group_fill)
    p = group_sub.add_parser("amalgam", help="amalgamated product")
    p.add_argument("presentation1")
    p.add_argument("presentation2")
    p.add_argument(
        "--pair",
        action="append",
        help="identification 'word-in-first = word-in-second' (repeatable)",
    )
    p.set_defaults(handler=_group_amalgam, citations=[
        "Seifert-Van Kampen: the fundamental group of a union"])
    p = group_sub.add_parser("enumerate", help="Todd-Coxeter coset enumeration")
    p.add_argument("presentation")
    p.add_argument(
        "--subgroup", action="append", help="subgroup generator word (repeatable)"
    )
    p.add_argument("--max-cosets", type=_int, default=100_000)
    p.set_defaults(handler=_group_enumerate, citations=[
        "Todd-Coxeter: a closed coset table certifies the index"])

    splice_p = sub.add_parser("splice", help="splice-tree certificates")
    splice_sub = splice_p.add_subparsers(dest="subcommand", required=True)
    p = splice_sub.add_parser("cert", help="search for a certificate")
    p.add_argument("tree", help="splice tree JSON file")
    p.add_argument("--bound", type=_int, default=3, help="slope search bound")
    p.set_defaults(handler=_splice_cert, citations=_SPLICE_CITATIONS)
    p = splice_sub.add_parser("verify", help="re-derive a certificate")
    p.add_argument("tree")
    p.add_argument("certificate")
    p.set_defaults(handler=_splice_verify, citations=_SPLICE_CITATIONS)

    hf_p = sub.add_parser("hf", help="Heegaard Floer surgery rank")
    hf_sub = hf_p.add_subparsers(dest="subcommand", required=True)
    p = hf_sub.add_parser("rank", help="total rank of the p/q surgery")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--nu", type=_int, required=True)
    p.add_argument("--ranks", required=True, help="comma-separated ranks, all >= 1")
    p.set_defaults(handler=_hf_rank, citations=[
        "rational surgery formula for the total Heegaard Floer rank"])

    cover_p = sub.add_parser("cover", help="cyclic branched covers")
    cover_sub = cover_p.add_subparsers(dest="subcommand", required=True)
    p = cover_sub.add_parser("order", help="|H1| of the n-fold branched cover")
    p.add_argument("--poly", required=True, help="Alexander polynomial in t")
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(handler=_cover_order, citations=[
        "Fox (after Weber): branched-cover homology from Alexander "
        "polynomial values at roots of unity"])

    verify_p = sub.add_parser("verify", help="mechanized verifications")
    verify_sub = verify_p.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser(
        "proposition-4-3",
        aliases=["compatibility"],
        help="orderings-compatibility check for the trefoil / Klein-bottle "
        "gluing on sampled conjugators",
    )
    p.add_argument("--samples", type=_int, default=200)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--grid-bound", type=_int, default=5)
    p.add_argument("--max-len", type=_int, default=10)
    p.add_argument("--verbose-cases", action="store_true")
    p.set_defaults(handler=_verify_compat, citations=_COMPAT_CITATIONS)
    p = verify_sub.add_parser(
        "nonapplicability",
        help="why no slope pair certifies the trefoil / Klein-bottle gluing",
    )
    p.add_argument("--slope-bound", type=_int, default=5)
    p.set_defaults(handler=_verify_nonapplicability, citations=_COMPAT_CITATIONS)

    return parser


_STATUS_EXIT = {
    "ok": EXIT_OK,
    "unknown": EXIT_UNKNOWN,
    "inconclusive": EXIT_UNKNOWN,
    "error": EXIT_CHECK_FAILED,
}


def run(argv: list[str] | None = None, out=None) -> int:
    """Run one command; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    start = time.perf_counter()
    payload: dict = {}
    try:
        status = args.handler(args, payload)
    except OverflowError as exc:  # a budget: the answer is unknown
        status, payload["reason"] = "inconclusive", str(exc)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    runtime_ms = round((time.perf_counter() - start) * 1000.0, 3)
    try:
        text = _render(args.format, status, payload, args.citations, runtime_ms)
    except ValueError:
        # str() refuses an int past the interpreter's digit limit: each such
        # int prints as null, and int_str gives the reason.
        from .slopes import int_str

        refused: list[int] = []
        printable = _drop_unprintable(payload, refused)
        try:
            int_str(refused[0])
        except OverflowError as exc:
            status, printable["reason"] = "inconclusive", str(exc)
        text = _render(args.format, status, printable, args.citations, runtime_ms)
    try:
        print(text, file=out)
        out.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  The exit code still carries the answer;
        # devnull takes the descriptor, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return _STATUS_EXIT.get(status, EXIT_INPUT_ERROR)


def _render(
    fmt: str, status: str, payload: dict, citations: list[str], runtime_ms: float
) -> str:
    if fmt == "json":
        envelope = {
            "status": status,
            "payload": payload,
            "citations": citations,
            "runtime_ms": runtime_ms,
        }
        return json.dumps(envelope, indent=2, sort_keys=True)
    lines = [f"status: {status}", *_render_text(payload)]
    lines.extend(f"  [{c}]" for c in citations)
    return "\n".join(lines)


def _drop_unprintable(value, refused: list[int]):
    """``value`` with every int that ``str`` refuses replaced by None; each
    such int is appended to ``refused``."""
    if isinstance(value, dict):
        return {key: _drop_unprintable(v, refused) for key, v in value.items()}
    if isinstance(value, list):
        return [_drop_unprintable(v, refused) for v in value]
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            refused.append(value)
            return None
    return value


def _render_text(payload: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    else:
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    return lines


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
