import itertools
import random

import pytest

from metershare.abb import Engine
from metershare.field import PRIME
from metershare.shamir import RAND_BITS, SharingParams


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def engine():
    return Engine(SharingParams(3, 1), seed=11)


@pytest.fixture
def engine5():
    return Engine(SharingParams(5, 2), seed=13)


def share_row(engine, h):
    """Sharing h as a row of party shares, ``(values, mask)``: its
    polynomial's value at each party in the mask, None elsewhere.  The
    engine stores h as ``(c_0, ..., c_t, mask)``."""
    *coeffs, mask = engine._h[h]
    values = tuple(
        sum(c * x ** d for d, c in enumerate(coeffs)) % PRIME
        if mask >> (x - 1) & 1 else None
        for x in range(1, engine.n + 1)
    )
    return values, mask


def _force_rejects(rng, at):
    """Make ``rng.getrandbits`` return a word >= PRIME at the given call
    numbers (0 = the next call) without consuming the generator there.

    A word that large turns up with probability 25/2**63, so a rejection
    path is only ever exercised by forcing one.  ``randrange`` draws
    through the instance attribute too, so references see the same words.
    """
    real = rng.getrandbits
    calls = itertools.count()

    def getrandbits(k):
        if next(calls) in at:
            assert k == RAND_BITS
            return (1 << RAND_BITS) - 1
        return real(k)

    rng.getrandbits = getrandbits


@pytest.fixture
def force_rejects():
    return _force_rejects
