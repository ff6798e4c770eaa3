"""Polynomial secret sharing over the fixed prime field.

Shares are evaluations of a random degree-t polynomial at the party
indices 1..n; the secret sits at x = 0.  With n >= 2t+1 the scheme
tolerates n-(t+1) missing shares and any t shares reveal nothing,
which is the honest-majority setting the aggregation engine assumes.

This module holds the only polynomial rules (Shamir, CACM 1979), which
the engine's coefficient rows use too: ``draw`` (coefficients by
``randrange(p)``'s rule), ``evaluate`` (values at a list of points) and
``fit_rule``/``fit`` (the polynomial through t+1 points, checked against
the rest; a rule's row 0 is the Lagrange weights at 0 of reconstruction
and of a product's reshare, Gennaro, Rabin, Rabin, PODC 1998).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import mul
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
# draw and share_values draw by that rule; the shares of every golden
# scenario depend on it matching randrange draw for draw.
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


def draw(rng: random.Random, k: int) -> list[int]:
    """k field elements by ``randrange(p)``'s rule, in draw order.

    Words at or above p are dropped and the list is topped up one word
    at a time, which accepts exactly the words k ``randrange`` calls
    would (see ``RAND_BITS``) and leaves the same rng state.
    """
    p = PRIME
    getrandbits = rng.getrandbits
    words = list(map(getrandbits, repeat(RAND_BITS, k)))
    if k and max(words) >= p:
        words = [w for w in words if w < p]
        while len(words) < k:
            w = getrandbits(RAND_BITS)
            if w < p:
                words.append(w)
    return words


def evaluate(coeffs, xs) -> list[int]:
    """P(x) mod p at each point x of ``xs``, for P's coefficients c_0..c_t,
    summed unreduced by Horner and reduced once.  It takes a whole
    sharing's points, so a sharing pays one call, not one per point."""
    p = PRIME
    top = coeffs[::-1]
    out = []
    for x in xs:
        acc = 0
        for c in top:
            acc = acc * x + c
        out.append(acc % p)
    return out


def share_values(secret: int, n: int, t: int, rng: random.Random) -> list[int]:
    """Share values at x = 1..n as a plain list (index i holds party i+1).

    The t random coefficients a_1..a_t are drawn in that order by ``draw``,
    so the values and the rng state afterwards equal those of t
    ``randrange`` calls.  At t = 1 the one draw is inlined and each share
    is stepped as secret + a_1*x along x, reduced mod p once (0.67 against
    0.84 us a call at n = 3 through a coefficient list); above, the shares
    are ``evaluate``d.
    """
    p = PRIME
    if not (isinstance(secret, int) and 0 <= secret < p):
        field.validate(secret)
    if t == 1:
        getrandbits = rng.getrandbits
        c = getrandbits(RAND_BITS)
        while c >= p:
            c = getrandbits(RAND_BITS)
        out = []
        v = secret
        for _ in range(n):
            v += c
            out.append(v % p)
        return out
    return evaluate([secret, *draw(rng, t)], range(1, n + 1))


def share(secret: int, params: SharingParams,
          rng: random.Random) -> list[Share]:
    values = share_values(secret, params.n, params.t, rng)
    return [Share(i + 1, v, params.t) for i, v in enumerate(values)]


@lru_cache(maxsize=4096)
def fit_rule(xs: tuple[int, ...], t: int) -> tuple:
    """How ``fit`` reads a degree-t polynomial off shares at the ordered
    points ``xs``: ``(base, rows, checks)``.

    ``base`` holds the first t+1 points.  Coefficient d is ``sum(rows[d][k]
    * y_k)`` over their shares (the inverse Vandermonde matrix of ``base``),
    so ``rows[0]`` holds the Lagrange weights at 0.  The weights are
    centred into (-p/2, p/2]: small integers for consecutive points ((3,
    -3, 1) at 0 from 1, 2, 3), which keeps every product and column sum
    short, and a sum is the same after its one reduction mod p.  Each
    check ``(k, x, powers)`` names a further point x = xs[k] with its
    powers x^0..x^t.  Fewer than t+1 points fix no degree-t polynomial and
    are refused.
    """
    if len(xs) < t + 1:
        raise InsufficientShares(
            f"degree {t} needs {t + 1} shares, got {len(xs)}")
    p = PRIME
    base = xs[: t + 1]
    cols = []
    for k, xk in enumerate(base):
        # the coefficients of the Lagrange basis polynomial of point k:
        # num times (x - xj) for every other point, over their product den
        num, den = [1], 1
        for j, xj in enumerate(base):
            if j != k:
                shifted = [0] + num
                num = [(a - xj * c) % p for a, c in zip(shifted, num + [0])]
                den = den * (xk - xj) % p
        inv = pow(den, -1, p)
        cols.append([c * inv % p for c in num])
    rows = tuple(tuple(w - p if w > p >> 1 else w for w in row)
                 for row in zip(*cols))
    checks = tuple((k, x, tuple(pow(x, d, p) for d in range(t + 1)))
                   for k, x in enumerate(xs) if k > t)
    return base, rows, checks


def fit(ys, xs: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Coefficients c_0..c_t, reduced mod p, of the degree-t polynomial
    through the shares ``ys`` at the points ``xs``, read off the first t+1
    of them (``fit_rule``); c_0 is the secret.  A later share off that
    polynomial raises InconsistentShares (detected, not corrected)."""
    p = PRIME
    _, rows, checks = fit_rule(xs, t)
    base = ys[: t + 1]
    coeffs = tuple([sum(map(mul, row, base)) % p for row in rows])
    for k, x, powers in checks:
        if (sum(map(mul, powers, coeffs)) - ys[k]) % p:
            raise InconsistentShares(
                f"share of party {x} is off the polynomial")
    return coeffs


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
    """The secret of at least degree+1 shares, by ``fit``'s rule."""
    degree = _check_share_set(shares)
    xs = tuple(s.party for s in shares)
    return fit([s.value for s in shares], xs, degree)[0]


def extend_to_secret(known: list[Share], alt_secret: int,
                     params: SharingParams) -> list[Share]:
    """Complete up to t known shares into a full sharing of ``alt_secret``.

    This is the privacy argument made constructive: any t shares are
    consistent with every possible secret, and the completion below
    exhibits the polynomial.  Free party indices are filled with
    arbitrary (zero) values before the polynomial is fitted.  A known
    share must have degree t and a party in 1..n, as the returned ones do.
    """
    field.validate(alt_secret)
    if len(known) > params.t:
        raise InvalidParams(f"at most t={params.t} shares may be fixed")
    if known:
        if _check_share_set(known) != params.t:
            raise DegreeMismatch(f"known shares must have degree {params.t}")
        if max(s.party for s in known) > params.n:
            raise PartyMismatch(f"known parties must be in 1..{params.n}")
    points = [(0, alt_secret)] + [(s.party, s.value) for s in known]
    taken = {x for x, _ in points}
    for x in range(1, params.n + 1):
        if len(points) == params.t + 1:
            break
        if x not in taken:
            points.append((x, 0))
    xs, ys = zip(*points)
    parties = range(1, params.n + 1)
    values = evaluate(fit(ys, xs, params.t), parties)
    return [Share(x, v, params.t) for x, v in zip(parties, values)]
