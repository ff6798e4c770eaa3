"""Polynomial secret sharing over the fixed prime field.

Shares are evaluations of a random degree-t polynomial at the party
indices 1..n; the secret sits at x = 0.  With n >= 2t+1 the scheme
tolerates n-(t+1) missing shares and any t shares reveal nothing,
which is the honest-majority setting the aggregation engine assumes.
"""

from dataclasses import dataclass
from functools import lru_cache
import random

from . import field
from .errors import (
    DegreeMismatch,
    InconsistentShares,
    InsufficientShares,
    InvalidParams,
    PartyMismatch,
)

PRIME = field.PRIME

# Bytes one share takes on the wire, which every message count is priced
# at: party index (1 byte) + degree (1 byte) + field value (8 bytes,
# little-endian; PRIME < 2**63).
SHARE_BYTES = 1 + 1 + 8

# randrange(PRIME) draws words of this many bits and rejects those >= PRIME.
# share_values and Engine.product_batch draw by that rule; the shares of
# every golden scenario depend on it matching randrange draw for draw.
RAND_BITS = PRIME.bit_length()


@dataclass(frozen=True)
class SharingParams:
    n: int = 3
    t: int = 1

    def __post_init__(self):
        if self.t < 1:
            raise InvalidParams(f"threshold must be at least 1, got {self.t}")
        if self.n < 2 * self.t + 1:
            raise InvalidParams(
                f"need n >= 2t+1 for multiplication, got n={self.n}, t={self.t}"
            )
        if self.n > 255:
            raise InvalidParams("party indices must fit one byte")


@dataclass(frozen=True)
class Share:
    party: int
    value: int
    degree: int


def share_values(secret: int, n: int, t: int, rng: random.Random) -> list[int]:
    """Share values at x = 1..n as a plain list (index i holds party i+1).

    The t random coefficients a_1..a_t are drawn in that order, each by
    ``rng.randrange(PRIME)``'s rule (see ``RAND_BITS``), so the values and
    the rng state afterwards equal those of t ``randrange`` calls.  Each
    share is summed unreduced and reduced mod p once: at t = 1 by stepping
    secret + a_1*x along x, above by Horner.
    """
    p = PRIME
    if not (isinstance(secret, int) and 0 <= secret < p):
        field.validate(secret)
    getrandbits = rng.getrandbits
    coeffs = []
    for _ in range(t):
        c = getrandbits(RAND_BITS)
        while c >= p:
            c = getrandbits(RAND_BITS)
        coeffs.append(c)
    out = []
    if t == 1:
        c, = coeffs
        v = secret
        for _ in range(n):
            v += c
            out.append(v % p)
        return out
    top = coeffs[::-1]
    for x in range(1, n + 1):
        acc = 0
        for c in top:
            acc = acc * x + c
        out.append((acc * x + secret) % p)
    return out


def share(secret: int, params: SharingParams,
          rng: random.Random) -> list[Share]:
    values = share_values(secret, params.n, params.t, rng)
    return [Share(i + 1, v, params.t) for i, v in enumerate(values)]


@lru_cache(maxsize=4096)
def lagrange_at(xs: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Lagrange basis coefficients for interpolating at ``x`` from points ``xs``."""
    coeffs = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * (x - xj) % PRIME
            den = den * (xi - xj) % PRIME
        coeffs.append(num * pow(den, -1, PRIME) % PRIME)
    return tuple(coeffs)


def interpolate(points: list[tuple[int, int]], x: int = 0) -> int:
    """Value at ``x`` of the unique polynomial through ``points``."""
    xs = tuple(px for px, _ in points)
    lam = lagrange_at(xs, x)
    acc = 0
    for (_, y), c in zip(points, lam):
        acc += y * c
    return acc % PRIME


def _check_share_set(shares: list[Share]) -> int:
    if not shares:
        raise InsufficientShares("no shares given")
    degree = shares[0].degree
    seen = set()
    for s in shares:
        if s.degree != degree:
            raise DegreeMismatch(f"mixed degrees {degree} and {s.degree}")
        if s.party < 1 or s.party in seen:
            raise PartyMismatch(f"bad or duplicate party index {s.party}")
        seen.add(s.party)
    return degree


def reconstruct(shares: list[Share]) -> int:
    """Recover the secret from at least degree+1 shares.

    With more shares than strictly needed, the extra points are verified
    to lie on the interpolated polynomial; disagreement raises
    InconsistentShares.  This detects corruption but does not correct it.
    """
    degree = _check_share_set(shares)
    if len(shares) < degree + 1:
        raise InsufficientShares(
            f"degree {degree} needs {degree + 1} shares, got {len(shares)}"
        )
    base = shares[: degree + 1]
    points = [(s.party, s.value) for s in base]
    secret = interpolate(points, 0)
    for extra in shares[degree + 1:]:
        if interpolate(points, extra.party) != extra.value % PRIME:
            raise InconsistentShares(
                f"share of party {extra.party} is off the polynomial"
            )
    return secret


def extend_to_secret(known: list[Share], alt_secret: int,
                     params: SharingParams) -> list[Share]:
    """Complete up to t known shares into a full sharing of ``alt_secret``.

    This is the privacy argument made constructive: any t shares are
    consistent with every possible secret, and the completion below
    exhibits the polynomial.  Free party indices are filled with
    arbitrary (zero) values before interpolating.
    """
    field.validate(alt_secret)
    if len(known) > params.t:
        raise InvalidParams(f"at most t={params.t} shares may be fixed")
    _check_share_set(known) if known else None
    points = [(0, alt_secret)] + [(s.party, s.value) for s in known]
    taken = {x for x, _ in points}
    for x in range(1, params.n + 1):
        if len(points) == params.t + 1:
            break
        if x not in taken:
            points.append((x, 0))
    return [
        Share(x, interpolate(points, x), params.t)
        for x in range(1, params.n + 1)
    ]
