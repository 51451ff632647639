import sys
from fractions import Fraction

from gainchart import RatMatrix
from gainchart.problemfile import format_rational, matrix_to_json

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
