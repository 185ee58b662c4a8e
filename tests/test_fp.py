"""Primality: the deterministic Miller-Rabin of `fp._is_prime` against
trial division, at the strong pseudoprimes that defeat shorter base sets,
at large primes, and at its refusal bound psi_13."""

from math import isqrt

import pytest

from atkinpoly.errors import DomainError
from atkinpoly.fp import _is_prime

PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _is_prime_by_trial_division(n):
    return n == 2 or n > 2 and n % 2 and all(n % d for d in range(3, isqrt(n) + 1, 2))


def test_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _is_prime_by_trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2..7
        3825123056546413051,  # to bases 2..31
        PSI_12,  # to bases 2..37
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 10**14 + 31])
def test_large_primes_are_prime(n):
    assert _is_prime(n)


def test_refused_at_and_above_psi_13():
    # psi_13 is a strong pseudoprime to every base 2..41: refused, not
    # called probably prime; below it the test still answers
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(DomainError, match="^primality is decided only below %d, got %d$" % (PSI_13, n)):
            _is_prime(n)
    assert not _is_prime(PSI_13 - 2)
