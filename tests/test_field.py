"""Field layer: modulus properties, inverses and roots, reading codec."""

import random

import pytest

from metershare import field
from metershare.errors import EncodingOverflow, ZeroInverse


def miller_rabin(n: int) -> bool:
    # deterministic for n < 3.3e24 with these witnesses
    if n < 2:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_is_prime():
    assert miller_rabin(field.PRIME)


def test_prime_is_largest_below_2_63():
    assert field.PRIME < 2 ** 63
    for candidate in range(field.PRIME + 1, 2 ** 63):
        assert not miller_rabin(candidate)


def test_prime_mod_four():
    # 3 mod 4 makes square roots a single exponentiation
    assert field.PRIME % 4 == 3


def test_inv_batch_matches_single_inverses():
    rng = random.Random(3)
    values = [rng.randrange(1, field.PRIME) for _ in range(20)] + [1, 2]
    assert field.inv_batch(values) == [pow(v, -1, field.PRIME) for v in values]
    assert field.inv_batch([]) == []
    with pytest.raises(ZeroInverse):
        field.inv_batch([3, 0, 5])


def test_sqrt_of_squares():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(1, field.PRIME)
        sq = a * a % field.PRIME
        r = field.sqrt(sq)
        assert r * r % field.PRIME == sq


def test_validate_range():
    assert field.validate(0) == 0
    assert field.validate(field.PRIME - 1) == field.PRIME - 1
    with pytest.raises(Exception):
        field.validate(field.PRIME)
    with pytest.raises(Exception):
        field.validate(-1)


def test_encode_keeps_in_range_raw():
    rng = random.Random(4)
    raws = [rng.randrange(1 << field.READING_BITS) for _ in range(200)]
    for raw in raws + [0, (1 << field.READING_BITS) - 1]:
        assert field.encode_reading(raw) == raw


def test_encode_rejects_out_of_range_raw():
    with pytest.raises(EncodingOverflow):
        field.encode_reading(1 << field.READING_BITS)
    with pytest.raises(EncodingOverflow):
        field.encode_reading(-1)
