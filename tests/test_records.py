"""The small immutable records the package returns: frozen, compared and
hashed by their fields, with a keyword repr."""

from fractions import Fraction as F

import pytest

from atkinpoly import AJParams, DeltaEpsilon, GenUYResult, RealValue
from atkinpoly.selftest import CriterionResult

RECORDS = [
    (RealValue, "value", (1.5, 2e-13)),
    (AJParams, "alpha", (F(1, 2), F(-2, 3), F(7, 12))),
    (DeltaEpsilon, "t", (0.1, 0.5, 0.25, 10.5)),
    (GenUYResult, "u_partial_sum", (1.0, 2.0, 3.0, 4.0)),
    (CriterionResult, "number", (3, True, "ok", 0.25)),
]


@pytest.mark.parametrize("cls, name, fields", RECORDS)
def test_records_are_frozen_values(cls, name, fields):
    a, b = cls(*fields), cls(*fields)
    assert a == b
    assert hash(a) == hash(b)
    assert a != cls(*fields[:-1], fields[-1] + 1)
    with pytest.raises(AttributeError):
        setattr(a, name, fields[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) == fields[0]


def test_record_reprs():
    assert repr(AJParams(F(-1, 2), F(-2, 3), F(13, 12))) == (
        "AJParams(alpha=Fraction(-1, 2), beta=Fraction(-2, 3), c=Fraction(13, 12))"
    )
    assert repr(RealValue(1.5, 2e-13)) == "RealValue(value=1.5, abs_error_estimate=2e-13)"
    assert repr(DeltaEpsilon(0.1, 0.5, 0.25, 10.5)) == "DeltaEpsilon(t=0.1, x=0.5, delta=0.25, epsilon=10.5)"
    assert repr(GenUYResult(1.0, 2.0, 3.0, 4.0)) == (
        "GenUYResult(u_partial_sum=1.0, u_closed_form=2.0, y_partial_sum=3.0, y_closed_form=4.0)"
    )
    assert repr(CriterionResult(3, True, "ok", 0.25)) == (
        "CriterionResult(number=3, passed=True, detail='ok', elapsed=0.25)"
    )


def test_aj_params_coerces_to_fractions():
    p = AJParams(1, "1/2", 0.5)
    assert p == AJParams(F(1), F(1, 2), F(1, 2))
    assert all(type(v) is F for v in (p.alpha, p.beta, p.c))
    assert AJParams(alpha=0, beta=0, c="-5/2").c == F(-5, 2)
    assert type(p._replace(c=1).c) is F
