"""Polynomial secret sharing over the fixed prime field.

Shares are evaluations of a random degree-t polynomial at the party
indices 1..n; the secret sits at x = 0.  With n >= 2t+1 the scheme
tolerates n-(t+1) missing shares and any t shares reveal nothing,
which is the honest-majority setting the aggregation engine assumes.
"""

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import add, mod, mul, ne
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

# element-wise sum of two columns; reduce() folds a list of columns with it
_add_columns = partial(map, add)


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
    """Lagrange basis coefficients for interpolating at ``x`` from points ``xs``.

    They are centred into (-p/2, p/2]: small integers for consecutive
    points ((3, -3, 1) at 0 from 1, 2, 3), which keeps every product and
    column sum short.  A value is the same after its one reduction mod p.
    """
    coeffs = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * (x - xj) % PRIME
            den = den * (xi - xj) % PRIME
        w = num * pow(den, -1, PRIME) % PRIME
        coeffs.append(w - PRIME if w > PRIME >> 1 else w)
    return tuple(coeffs)


def interpolate(points: list[tuple[int, int]], x: int = 0) -> int:
    """Value at ``x`` of the unique polynomial through ``points``."""
    xs = tuple(px for px, _ in points)
    lam = lagrange_at(xs, x)
    acc = 0
    for (_, y), c in zip(points, lam):
        acc += y * c
    return acc % PRIME


@lru_cache(maxsize=4096)
def open_weights(xs: tuple[int, ...], t: int) -> tuple:
    """``(lam0, checks)`` for shares at the ordered points ``xs``: ``lam0``
    gives the secret from the first t+1 shares, and each check
    ``(k, x, lam)`` gives from them the share expected at ``x = xs[k]``.
    Fewer than t+1 points fix no degree-t polynomial and are refused."""
    if len(xs) < t + 1:
        raise InsufficientShares(
            f"degree {t} needs {t + 1} shares, got {len(xs)}")
    base = xs[: t + 1]
    checks = [(k, x, lagrange_at(base, x)) for k, x in enumerate(xs) if k > t]
    return lagrange_at(base, 0), tuple(checks)


def recover(columns, weights) -> list[int]:
    """Secrets of a batch of sharings given as one column of reduced shares
    per point of ``weights`` (``open_weights``), interpolated from the first
    t+1 columns: zipped with t+1 weights, the rest drop out.  A later share
    off its polynomial raises InconsistentShares (detected, not corrected)."""
    lam0, checks = weights

    def at(lam):
        terms = [map(mul, col, repeat(w)) for col, w in zip(columns, lam)]
        return map(mod, reduce(_add_columns, terms), repeat(PRIME))

    for k, x, lam in checks:
        if any(map(ne, at(lam), columns[k])):
            raise InconsistentShares(
                f"share of party {x} is off the polynomial"
            )
    return list(at(lam0))


def _check_share_set(shares: list[Share]) -> int:
    if not shares:
        raise InsufficientShares("no shares given")
    degree = shares[0].degree
    seen = set()
    for s in shares:
        # bool is an int; a negative degree would interpolate from no points
        if type(s.degree) is not int or s.degree < 0:
            raise DegreeMismatch(f"degree {s.degree!r} is not an int >= 0")
        if s.degree != degree:
            raise DegreeMismatch(f"mixed degrees {degree} and {s.degree}")
        if s.party < 1 or s.party in seen:
            raise PartyMismatch(f"bad or duplicate party index {s.party}")
        seen.add(s.party)
    return degree


def reconstruct(shares: list[Share]) -> int:
    """The secret of at least degree+1 shares, by ``recover``'s rule."""
    degree = _check_share_set(shares)
    xs = tuple(s.party for s in shares)
    columns = [(s.value % PRIME,) for s in shares]
    return recover(columns, open_weights(xs, degree))[0]


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
