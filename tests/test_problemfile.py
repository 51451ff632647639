import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gainchart import RatMatrix, SpectralData
from gainchart.errors import ParseError
from gainchart.problemfile import (
    Problem,
    document_text,
    format_rational,
    load_json,
    matrix_to_json,
    parse_multi_index_spec,
    parse_problem,
    parse_target,
    problem_to_json,
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


# integers past the interpreter's 4,300-digit limit on converting text to int
_long = st.one_of(st.integers(5100, 6000).map(lambda k: 7**k),
                  st.integers(4300, 5000).map(lambda k: -(10**k) - 1))
_entry = st.one_of(_rat, _long.map(Fraction), st.builds(Fraction, st.integers(-9, 9), _long.map(abs)))


@st.composite
def _problem(draw):
    """A problem with every option drawn present or absent, long integers included."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        return RatMatrix(draw(st.lists(st.lists(_entry, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)))

    pairs = draw(st.integers(0, n // 2))
    values = draw(st.lists(_entry, min_size=n, max_size=n, unique=True))
    target = SpectralData(
        real=[(lam, [1]) for lam in values[2 * pairs:]],
        complex=[(values[2 * i], values[2 * i + 1] or 1, [1]) for i in range(pairs)],
    )
    return Problem(
        F=matrix(n, n), G=matrix(n, m), target=target,
        multi_index=draw(st.none() | st.lists(st.lists(st.integers(1, 9), max_size=3), max_size=3)),
        x=draw(st.none() | st.lists(_entry, max_size=4)),
        K2=matrix(draw(st.integers(1, 3)), n) if draw(st.booleans()) else None,
        K=matrix(m, n) if draw(st.booleans()) else None,
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_problem())
def test_every_written_problem_reads_back(prob):
    # through the document and through its JSON text, whatever the lengths
    doc = problem_to_json(prob)
    assert parse_problem(doc) == prob
    assert parse_problem(load_json(json.dumps(doc))) == prob


# strings with every escape json writes: quotes, backslashes, control and non-ASCII characters
_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'), max_size=6)
_value = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | _text,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_value)
@example({"": [], "a": {}, "b": [[], {}, [[]]], '"\\\n': None, "t": (True, False)})
@example([2**53, -(2**53), 0, "\x00\U0001f600"])
def test_document_text_is_the_indented_json(value):
    assert document_text(value) == json.dumps(value, indent=2)


class _Str(str):
    pass


class _Int(int):
    pass


def test_document_text_refuses_other_types():
    # json refuses the first five too; it writes the rest, but no document holds a float,
    # an int key or a subclass of str or int, so the writer refuses them where json would not
    for value in (object(), {1, 2}, Fraction(1, 2), b"x", [1, {"a": [set()]}], 0.5, {1: 2},
                  _Str("a"), [_Int(1)]):
        with pytest.raises(TypeError):
            document_text(value)


def _doc(**edits):
    """The worked n = 5 document with a gain, top fields and options replaced by ``edits``."""
    doc = {
        "F": [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5, [0] * 5],
        "G": [[0, 0], [0, 0], [0, 0], [0, 1], [1, 0]],
        "target": {"real": [{"eigenvalue": 0, "segre": [2, 1]}],
                   "complex": [{"a": 0, "b": 1, "segre": [1]}]},
        "options": {"multi_index": [[2, 1], [1]], "x": [0, 0, 1],
                    "K": [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]},
    }
    for key, value in edits.items():
        if key in ("multi_index", "x", "K2", "K"):
            doc["options"][key] = value
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


_SQUARE4 = [[1, 0, 0, 0]] * 4
_SIZE6 = {"real": [{"eigenvalue": 0, "segre": [2, 1, 1]}], "complex": [{"a": 0, "b": 1, "segre": [1]}]}

# case -> (a document with two faults, the error line of the one checked first)
_TWO_FAULTS = {
    "missing-and-unknown": (_doc(G=None, H=1), "missing required field 'G'"),
    "unknown-and-bad-F": (_doc(H=1, F="x"), "unknown fields: ['H']"),
    "bad-F-and-bad-G": (_doc(F=[["x"]], G="x"), "in F: malformed rational literal 'x'"),
    "bad-G-and-F-not-square": (_doc(F=[[0] * 5] * 4, G=[["x"]]),
                               "in G: malformed rational literal 'x'"),
    "F-not-square-and-G-rows": (_doc(F=[[0] * 5] * 4, G=[[0]] * 3), "F must be square, got 4 x 5"),
    "G-rows-and-bad-target": (_doc(G=[[0]] * 4, target=5), "G must have 5 rows to match F, got 4"),
    "bad-target-and-F-size": (
        _doc(F=_SQUARE4, G=[[1]] * 4, target={"real": [{"eigenvalue": "x", "segre": [1]}]}),
        "in target.real[0].eigenvalue: malformed rational literal 'x'",
    ),
    "target-size-and-options-list": (_doc(target=_SIZE6, options=[]),
                                     "target class has size 6, state dimension is 5"),
    "options-list-before-its-fields": (_doc(options=[{"y": 1}]), "options must be an object"),
    "unknown-options-and-bad-K": (_doc(options={"y": 1, "K": "x"}),
                                  "unknown option fields: ['y']"),
    "bad-multi-index-and-bad-x": (_doc(multi_index=[[0]], x="x"),
                                  "options.multi_index entries must be positive integers"),
    "multi-index-not-lists-and-bad-x": (_doc(multi_index=[1], x="x"),
                                        "options.multi_index must be a list of index lists"),
    "bad-x-and-bad-K2": (_doc(x="x", K2=[]), "options.x must be a list of rationals"),
    "bad-x-entry-and-bad-K2": (_doc(x=[0, "x"], K2=[]),
                               "in options.x[1]: malformed rational literal 'x'"),
    "bad-K2-and-bad-K": (_doc(K2=[], K="x"), "options.K2 must be a non-empty list of rows"),
    "bad-K-entry-and-K-shape": (_doc(K=[["x"]]), "in options.K: malformed rational literal 'x'"),
    "ragged-K-and-K-shape": (_doc(K=[[0], [0, 0]]), "options.K has rows of different lengths"),
}


@pytest.mark.parametrize("case", sorted(_TWO_FAULTS))
def test_the_first_fault_in_check_order_is_reported(case):
    # document; required, unknown fields; F; G; F square; G rows; target; its
    # size; options; unknown options; multi_index; x; K2; K; K shape
    doc, message = _TWO_FAULTS[case]
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert str(info.value) == message


def test_a_multi_index_spec_is_split_then_checked_by_the_json_reader():
    # the whole spec is split before the positivity check runs; digits are ASCII
    assert parse_multi_index_spec(" +2 , 1 ; 1 ") == [[2, 1], [1]]
    for spec, message in (
        ("2,1;0", "--multi-index entries must be positive integers"),
        ("-1", "--multi-index entries must be positive integers"),
        ("0;a", "malformed multi-index spec '0;a'"),
        ("\u0662,1;1", "malformed multi-index spec '\u0662,1;1'"),
        ("1_0;1", "malformed multi-index spec '1_0;1'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_multi_index_spec(spec)
        assert str(info.value) == message
