"""Fuzzed argument strings through ``cli.run``.

Braid words, Alexander polynomials, Klein elements, slopes and gluing
matrices, well formed or not, go to the commands that parse them.  Each run
must end in a well-formed envelope (exit 0 or 2) or in one diagnostic line
on stderr (exit 1) of at most 200 characters; no exception may escape.  The
examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from test_splice_fuzz import FUZZ, _check


def _junk(alphabet: str, max_size: int = 8):
    return st.text(alphabet=alphabet, max_size=max_size)


# Words over the B3 generators, now and then with a foreign letter.
_BRAID = st.one_of(_junk("aAbB", 24), _junk("aAbB", 24), _junk("aAbB xyz1-"))

# Polynomials of 200 to 400 characters, valid (a long sum or coefficient) or
# with a long tail the parser stops in, so a diagnostic meets the length guard.
_LONG_POLY = st.tuples(
    st.sampled_from(["t", "t ", "t + ", "t^2 - t + "]),
    st.sampled_from([" + t", "1", "z", "+"]),
    st.integers(200, 400),
).map(lambda parts: parts[0] + parts[1] * (parts[2] // len(parts[1])))

# Sums of terms, known polynomials, loose text over the polynomial alphabet,
# or long polynomials.
_POLY = st.one_of(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 6)), max_size=5).map(
        lambda terms: " + ".join(f"{c}t^{e}" for c, e in terms)
    ),
    st.sampled_from(["t^2 - t + 1", "t^2 - 3t + 1", "t^4 - t^3 + t^2 - t + 1",
                     "-t^2 + 3t - 1", "1", "t^-1 - 1 + t", "2t^2 - 3t + 2"]),
    _junk("t^0123-+ x*"),
    _LONG_POLY,
)

_EXPONENT = st.one_of(st.integers(-4, 4), st.just("1" + "0" * 30))
_KLEIN = st.one_of(
    st.lists(st.tuples(st.sampled_from("xyXz"), _EXPONENT), max_size=3).map(
        lambda powers: " ".join(f"{g}^{e}" for g, e in powers)
    ),
    _junk("xy^-0123 1"),
)

_INT = st.one_of(st.integers(-5, 5), st.just(10**30), st.just(-(10**2200)))
_SLOPE = st.one_of(
    st.tuples(_INT, _INT).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    _INT.map(str),
    _junk("0123/-x ", 6),
)
_MATRIX = st.one_of(
    st.lists(_INT, min_size=3, max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["0,1,1,0", "1,1,0,1", "1,0,0,1", "-1,0,0,-1"]),
    _junk("0123,- x"),
)


@FUZZ
@given(st.sampled_from(["sign", "reduce", "floor", "compare"]), _BRAID, _BRAID)
def test_braid_words(command, u, v):
    _check(["braid", command, "--", u, v] if command == "compare"
           else ["braid", command, "--", u])


@FUZZ
@given(_POLY, st.integers(-3, 50))
def test_cover_order_polynomials(poly, n):
    _check(["cover", "order", f"--poly={poly}", "--n", str(n)])


@FUZZ
@given(_KLEIN, st.sampled_from(["O1", "O2"]))
def test_klein_elements(element, ordering):
    _check(["klein", "sign", "--ordering", ordering, "--", element])


@FUZZ
@given(_SLOPE, _SLOPE, _MATRIX)
def test_slopes_and_matrices(alpha, beta, matrix):
    _check(["slope", "delta", "--", alpha, beta])
    _check(["slope", "glue", f"--matrix={matrix}", "--", alpha])
