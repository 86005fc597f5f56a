"""Differential test of the trial-division ``factorint`` against sympy.

sympy is a test-only aid: without it this module is skipped.  The
cofactors ``factorint`` must refuse are tested in ``test_exact``, which
needs no sympy.
"""

import math

import pytest
from hypothesis import given, strategies as st

from symdet.exact import factorint

sympy = pytest.importorskip("sympy")

SMALL_PRIMES = list(sympy.primerange(2, 100_000))


@st.composite
def certifiable(draw):
    """A product of primes below 10^5 times at most one prime below 10^10.

    sympy's first factorization of a number can take over a second, and
    sympy caches the result.  Factoring n here, where hypothesis does not
    count the time against the deadline, makes the test's own call a lookup.
    """
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=8))
    n = math.prod(primes)
    if draw(st.booleans()):
        n *= sympy.prevprime(draw(st.integers(min_value=3, max_value=10**10)))
    sympy.factorint(n)
    return n


@given(certifiable())
def test_matches_sympy(n):
    assert factorint(n) == sympy.factorint(n)

