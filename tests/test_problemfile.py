import json
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from gainchart import RatMatrix
from gainchart.problemfile import (
    format_rational,
    load_json,
    matrix_to_json,
    parse_target,
    target_to_json,
)

from oracles import decimal_digits


def test_format_rational_prints_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 7**6000  # 5,071 digits, over the default limit of 4,300
    assert format_rational(Fraction(big)) == decimal_digits(big)
    assert format_rational(Fraction(-big)) == decimal_digits(-big)
    x = Fraction(-big, 3**9001)
    assert format_rational(x) == decimal_digits(x.numerator) + "/" + decimal_digits(x.denominator)
    # a power of 10 exercises the zero padding of every inner chunk
    assert format_rational(Fraction(10**5000 + 1)) == "1" + "0" * 4999 + "1"
    assert sys.get_int_max_str_digits() == limit


def test_format_rational_small_values():
    assert format_rational(Fraction(-3)) == -3
    assert format_rational(Fraction(2**53)) == str(2**53)
    assert format_rational(Fraction(-7, 12)) == "-7/12"


def test_matrix_entries_are_json_numbers_only_when_integers_below_2_53():
    # a row is stored over one denominator; each entry is reduced before the
    # JSON rule reads it, so 4/2 in the row [4, 1]/2 is the number 2
    big = 7**6000
    m = RatMatrix([[2, Fraction(1, 2)], [2**53, Fraction(-2**60, 3)], [Fraction(big, 3), 6 * big]])
    assert m.int_rows()[0] == ([4, 1], 2)
    assert matrix_to_json(m) == [
        [2, "1/2"],
        [str(2**53), f"-{2**60}/3"],
        [decimal_digits(big) + "/3", decimal_digits(6 * big)],
    ]


_rat = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20))
_segre = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda s: sorted(s, reverse=True))


@st.composite
def _target(draw):
    """A target document in the reader's own form, b of either sign."""
    real = draw(st.lists(st.tuples(_rat, _segre), max_size=3, unique_by=lambda t: t[0]))
    cpx = draw(st.lists(st.tuples(_rat, _rat.filter(bool), _segre), max_size=3,
                        unique_by=lambda t: (t[0], abs(t[1]))))
    return {
        "real": [{"eigenvalue": format_rational(lam), "segre": s} for lam, s in real],
        "complex": [{"a": format_rational(a), "b": format_rational(b), "segre": s}
                    for a, b, s in cpx],
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_target())
# 7,199 digits in all, each integer under the interpreter's 4,300-digit limit
@example({"real": [{"eigenvalue": f"-{decimal_digits(7**4000)}/{decimal_digits(3**8000)}",
                    "segre": [1]}],
          "complex": [{"a": "1/2", "b": "-3/4", "segre": [2, 1]}]})
def test_target_round_trip(doc):
    # the reader normalises b positive; the writer's document reads back equal,
    # also through its JSON text, and every entry keeps its key order
    sd = parse_target(doc)
    assert all(b > 0 for _, b, _ in sd.complex)
    written = target_to_json(sd)
    assert parse_target(written) == sd
    assert parse_target(load_json(json.dumps(written))) == sd
    assert [list(e) for e in written["real"]] == [["eigenvalue", "segre"]] * len(sd.real)
    assert [list(e) for e in written["complex"]] == [["a", "b", "segre"]] * len(sd.complex)
