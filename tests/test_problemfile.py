import sys
from fractions import Fraction

from gainchart.problemfile import format_rational


def _digits(n: int) -> str:
    """Decimal digits of n built from its remainders, with no int-to-str call."""
    out = []
    m = abs(n)
    while True:
        m, d = divmod(m, 10)
        out.append("0123456789"[d])
        if not m:
            break
    return ("-" if n < 0 else "") + "".join(reversed(out))


def test_format_rational_prints_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 7**6000  # 5,071 digits, over the default limit of 4,300
    assert format_rational(Fraction(big)) == _digits(big)
    assert format_rational(Fraction(-big)) == _digits(-big)
    x = Fraction(-big, 3**9001)
    assert format_rational(x) == _digits(x.numerator) + "/" + _digits(x.denominator)
    # a power of 10 exercises the zero padding of every inner chunk
    assert format_rational(Fraction(10**5000 + 1)) == "1" + "0" * 4999 + "1"
    assert sys.get_int_max_str_digits() == limit


def test_format_rational_small_values():
    assert format_rational(Fraction(-3)) == -3
    assert format_rational(Fraction(2**53)) == str(2**53)
    assert format_rational(Fraction(-7, 12)) == "-7/12"
