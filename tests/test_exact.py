import math
from fractions import Fraction as F

import pytest

from atkinpoly.cli import main
from atkinpoly.errors import DomainError
from atkinpoly.exact import catalan, pochhammer, rat_str


def gen_binom(a, k):
    """Binomial coefficient a over k with rational upper argument, as
    a(a-1)...(a-k+1)/k!: the oracle for the term-ratio form below."""
    a = F(a)
    out = F(1)
    for i in range(k):
        out *= a - i
    return out / math.factorial(k)


def gen_binom_seq(a, count):
    """The binomial coefficients a over k for k in range(count), each term
    from the one before by the ratio (a - k)/(k + 1)."""
    a = F(a)
    out = [F(1)] if count > 0 else []
    for k in range(count - 1):
        out.append(out[-1] * (a - k) / (k + 1))
    return out


def test_pochhammer_base_cases():
    assert pochhammer(F(5, 7), 0) == 1
    assert pochhammer(F(5, 7), 1) == F(5, 7)
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6


def test_pochhammer_recurrence():
    a = F(-11, 12)
    for n in range(1, 20):
        assert pochhammer(a, n) == pochhammer(a, n - 1) * (a + n - 1)


def test_pochhammer_hits_zero_at_negative_integer():
    assert pochhammer(-3, 4) == 0
    assert pochhammer(-3, 3) == -6


def test_pochhammer_rejects_negative_length():
    with pytest.raises(DomainError, match="^pochhammer requires n >= 0$"):
        pochhammer(F(1, 2), -1)


def test_gen_binom_matches_integer_binomials():
    for n in range(8):
        for k in range(n + 1):
            assert gen_binom(n, k) == math.comb(n, k)


def test_gen_binom_fractional():
    assert gen_binom(F(1, 2), 2) == F(-1, 8)
    assert gen_binom(F(-1, 12), 0) == 1
    # reflection (a over k) = (-1)^k (k-a-1 over k)
    a = F(-5, 12)
    for k in range(6):
        assert gen_binom(a, k) == (-1) ** k * gen_binom(k - a - 1, k)


def test_gen_binom_seq_matches_gen_binom():
    for a in (F(-1, 12), F(-5, 12), F(37, 12), 7, -1):
        assert gen_binom_seq(a, 12) == [gen_binom(a, k) for k in range(12)]
    assert gen_binom_seq(F(1, 2), 1) == [1]
    assert gen_binom_seq(F(1, 2), 0) == []


def test_catalan_sequence():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(DomainError, match="^catalan requires n >= 0$"):
        catalan(-1)


def test_rat_str_round_trip():
    for q in (F(3, 7), F(-5, 12), F(4), F(0), F(-9)):
        assert F(rat_str(q)) == q


def test_rat_str_canonical():
    assert rat_str(F(-5, 12)) == "-5/12"
    assert rat_str(F(6, 3)) == "2"
    assert rat_str(0) == "0"


def test_parse_rational_rejects_junk(capsys):
    # the CLI's rational flags read Fraction(text); junk is a usage error
    cases = [
        ["assoc-jacobi", "--n", "2", "--alpha", bad, "--beta", "0", "--c", "0"]
        for bad in ("", "a/b", "1.5/2", "1/0")
    ]
    cases.append(["rep-check", "--n", "2", "--which", "rep1", "--rep1-coeff", "-1/0"])
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error: argument --" in capsys.readouterr().err
