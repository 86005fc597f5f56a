"""Differential test of the trial-division ``factorint`` against sympy's primes.

sympy is a test-only aid: without it this module is skipped.  The
cofactors ``factorint`` must refuse are tested in ``test_exact``, which
needs no sympy.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from symdet.exact import factorint

sympy = pytest.importorskip("sympy")

SMALL_PRIMES = list(sympy.primerange(2, 100_000))


@st.composite
def certifiable(draw):
    """A product of primes below 10^5 times at most one prime below 10^10, with its factorization.

    sympy certifies every prime drawn, so the factorization is known from
    the draw.  ``sympy.factorint`` of the product is not called: on some
    draws its ECM stage runs for minutes.
    """
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=8))
    if draw(st.booleans()):
        primes.append(sympy.prevprime(draw(st.integers(min_value=3, max_value=10**10))))
    return math.prod(primes), dict(Counter(primes))


@given(certifiable())
def test_matches_sympy(case):
    n, expected = case
    assert factorint(n) == expected
