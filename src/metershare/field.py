"""Prime-field arithmetic for the sharing layer.

All values are plain Python integers in ``[0, PRIME)``.  Callers that
construct field elements from untrusted input should pass them through
:func:`validate` once; the arithmetic helpers assume the invariant holds.
Python's arbitrary-precision integers cover the 126-bit intermediates of
a 63-bit modular multiplication, so no special widening is needed.
"""

from .errors import EncodingOverflow, ZeroInverse

# Largest prime below 2**63.  Shares therefore fit in 63 bits on the wire
# while readings (32-bit) summed over a national meter population stay
# clear of the modulus.
PRIME = 9223372036854775783

# Readings are bounded by the meter register width.
READING_BITS = 32


def validate(value: int) -> int:
    """Return ``value`` unchanged if it is a canonical field element."""
    if not isinstance(value, int) or value < 0 or value >= PRIME:
        raise ValueError(f"not a canonical field element: {value!r}")
    return value


def inv_batch(values: list[int]) -> list[int]:
    """Inverses of nonzero elements with one modular inversion in total.

    Montgomery's trick: invert the running product once, then peel each
    inverse off it walking back down the list.
    """
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % PRIME
    if acc == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    inv_acc = pow(acc, -1, PRIME)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv_acc * prefix[i] % PRIME
        inv_acc = inv_acc * values[i] % PRIME
    return out


def sqrt(a: int) -> int:
    """A square root of ``a``, which must be a quadratic residue.

    PRIME is congruent to 3 mod 4, so exponentiation by (p+1)/4 gives a
    root directly.  Deterministic: every caller obtains the same root.
    """
    r = pow(a, (PRIME + 1) // 4, PRIME)
    if r * r % PRIME != a % PRIME:
        raise ValueError("not a quadratic residue")
    return r


def encode_reading(raw: int) -> int:
    """Embed a meter reading into the field as itself.

    ``raw`` must fit the 32-bit register, which keeps every grid total the
    scenario admits below the modulus, so aggregation cannot wrap.
    """
    if raw < 0 or raw >> READING_BITS:
        raise EncodingOverflow(f"reading {raw} exceeds {READING_BITS} bits")
    return raw
