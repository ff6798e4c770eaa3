"""Simulated arithmetic black box over n lockstep parties.

The engine keeps the sharing polynomial of every live secret, which fixes
every party's share, so a single scheduler thread can play all parties of
the honest-but-curious protocol while charging costs exactly as the real
message pattern would.  A multiplication is one degree-reduction round
in which the first 2t+1 live holders each send a share to every other
live party, (2t+1)*(live-1) share messages, which equals n*(n-1) only
when n = 2t+1.  An opening is one broadcast round in which every live
holder sends its share to every other live party.  Party state is only
ever read through quorum checks, so marking a party failed simply
removes it from every later quorum; failures are permanent for the
engine's lifetime (there is deliberately no un-fail operation).

Batch variants of the interactive operations share one round, which is
what a real implementation would do, and take handle columns; ``open``
is a convenience that wraps a batch of one.
Determinism: all randomness flows from the seed given at
construction, including the control bits of ``gates.oblivious_permute``,
and parties are driven in lockstep by the calling thread.
A party-per-thread driver would have to reproduce the same message
schedule to stay contract-compatible; this engine does not provide one.

Handle lifetime: handles are numbered from 1 upwards and a number is
never reused, so a handle names one sharing for the engine's lifetime and
transcripts stay comparable across runs.  ``release`` forgets sharings
that no later step reads.  It is strict: releasing a handle that was
never issued or is already released raises ``KeyError``, so an ownership
mistake fails loudly instead of freeing a caller's sharing.  The rule
every gate and region circuit follows: a routine releases only handles
it registered itself, which by monotonic numbering are those at or above
the first handle it registered, and never its own outputs.  Numbers are
issued in three places: ``_admit`` registers a delivered sharing,
``_store`` a batch of computed rows under consecutive numbers, and
``skip_handles(k)`` issues k numbers without storing a sharing under
them.  Such a number is never live and must not be released.  A fused
round (``product_batch(..., as_or=True)``) issues its products' numbers
this way, and the transcript still names them; the equality gate issues
the numbers of flips that reuse a stored complement this way.

Sharings: each live sharing is stored as one flat tuple of ints,
``(c_0, ..., c_t, mask)``.  c_0..c_t are the t+1 coefficients, reduced mod
p, of the one degree-t polynomial P whose value P(i) is party i's share
(Shamir, CACM 1979); c_0 is the secret.  The mask comes last: bit i is set
if party i+1 holds its share.  Every operation works on the coefficients:
an affine combination combines them, an opening reads c_0, and a product
computes its new coefficients directly (see ``product_batch``).  A share
is evaluated only where one is read: ``export_shares``, by
``shamir.evaluate``; shares are read into coefficients only at intake
(``input_shares``, by ``shamir.fit``'s rule, which checks every further
live holder's share).  Coefficients are drawn by ``shamir``'s one draw
rule: a product round's run as one block (``shamir.draw_block``), every
other draw as a list (``shamir.draw``).  A row is stored once (``_admit``,
``_store``) and never changed.
One flat tuple because a region holds tens of thousands of rows at once:
it is one allocation towards the next collection, not two as with nested
coefficients, and the cyclic garbage collector stops tracking a tuple of
ints at its first scan, while it rescans a list on every full collection.

Why a product needs no shares: the 2t+1 senders' local products
a(x_s)*b(x_s) lie on A*B, of degree 2t, so their Lagrange combination at
0 over those 2t+1 points is (A*B)(0) = a_0*b_0 (Gennaro, Rabin, Rabin,
PODC 1998).  That is the combined reshare polynomial's constant term.
Its other coefficients weigh the senders' draws by the same weights; a
round sums them for a whole run at once on lanes of Python ints, in the
layout ``shamir`` draws them in (``_reshare_columns``).

Affine combinations are local: each party applies one to its own shares,
so they send no message (Ben-Or, Goldwasser, Wigderson, STOC 1988), and
the engine applies it to the coefficients.  They come in two forms, with
no path unrolled for a number of terms.  ``lincomb_batch`` takes term
positions, each a coefficient and a column of handles with one entry per
combination, and computes whole columns, one ``map`` pass per term
position (the gates' one- and two-term glue, hundreds of combinations
per call).  ``lincomb`` takes one combination as ``(coef, handle)`` terms
and sums it on its own, one column sum per coefficient (a region's cell
and bucket sums, hundreds of terms in one combination).

Transcript: with ``record_transcript=True`` the engine appends one record
per message group, ``(round, links, handle)``: a sharing's delivery to
the servers, one product's reshare round or one handle's opening
broadcast.  ``links`` is a non-empty tuple of ``"sender,receiver"``
strings, sender-major, each carrying one ``SHARE_BYTES`` share.  A
round's links come from one cached plan per (live holders, live parties),
and the meter counts those same tuples.  Records share their links tuple
wherever they can: a product round's or an opening's records hold its
group's plan tuple, and consecutive deliveries from one sender to the same
live holders (a meter's bundle, a run of dealer inputs) hold one tuple,
built at the first of them.  A writer expands each record into one line
per link, and may cut those lines once per run of records with the same
round and links tuple (see ``cli.write_transcript``).
"""

from contextlib import contextmanager
from dataclasses import dataclass, field as dfield, fields as dfields
from functools import lru_cache, reduce
from itertools import compress, groupby, islice, repeat
from operator import add, and_, itemgetter, mod, mul, sub
import random
from typing import NamedTuple

from . import field
from .errors import (
    InconsistentShares,
    InsufficientShares,
    LengthMismatch,
    TooManyFailures,
)
from .shamir import (
    SHARE_BYTES,
    SharingParams,
    draw,
    draw_block,
    evaluate,
    fit,
    fit_rule,
    lanes,
    share_values,  # noqa: F401  not called here; bench/tracer.py probes it
)

PRIME = field.PRIME

Handle = int


@dataclass
class PhaseCount:
    """Operation and traffic counters for one labelled protocol phase."""

    multiplications: int = 0
    opens: int = 0
    rounds: int = 0
    random_bits: int = 0
    exchange_gates: int = 0
    msgs_sm_to_dcc: int = 0
    msgs_between_dcc: int = 0
    msgs_dcc_to_recipients: int = 0

    # every message carries one wire share, so bytes follow from messages
    @property
    def bytes_sm_to_dcc(self) -> int:
        return self.msgs_sm_to_dcc * SHARE_BYTES

    @property
    def bytes_between_dcc(self) -> int:
        return self.msgs_between_dcc * SHARE_BYTES

    @property
    def bytes_dcc_to_recipients(self) -> int:
        return self.msgs_dcc_to_recipients * SHARE_BYTES

    @property
    def mult_equivalents(self) -> int:
        """Opens cost the same interaction as one multiplication."""
        return self.multiplications + self.opens

    def add(self, other: "PhaseCount") -> None:
        for f in dfields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class CostMeter:
    """Monotone counters bucketed by phase label."""

    phases: dict = dfield(default_factory=dict)

    def bucket(self, label: str) -> PhaseCount:
        pc = self.phases.get(label)
        if pc is None:
            pc = self.phases[label] = PhaseCount()
        return pc

    def total(self) -> PhaseCount:
        return self.matching("")

    def matching(self, prefix: str) -> PhaseCount:
        """Aggregate of all phases whose label starts with ``prefix``."""
        out = PhaseCount()
        for label, pc in self.phases.items():
            if label.startswith(prefix):
                out.add(pc)
        return out

    def merge(self, other: "CostMeter") -> None:
        for label, pc in other.phases.items():
            self.bucket(label).add(pc)


_FIRST, _SECOND, _LAST = itemgetter(0), itemgetter(1), itemgetter(-1)

# Most products a product round computes at once (see product_batch).  One
# 16,000-pair as_or round at (5,2) peaks 0.74 MB above its stored rows,
# against 3.7 computed whole and 1.9 at 4,096 (tracemalloc), and takes 23.8
# ms, against 27.6 whole, 26.0 at 256 and 23.9 at 4,096 (medians of 15 runs,
# one process, Python 3.11, 2-core x86-64 host).
_CHUNK = 1024

# 2^63 mod p: a lane x is folded to (x mod 2^63) + _FOLD*(x >> 63)
_FOLD = (1 << 63) - PRIME


class _Plan(NamedTuple):
    holders: tuple      # party indices (from 0) in q, ascending
    points: tuple       # their points x = index + 1
    rule: tuple         # shamir.fit_rule of those points, read by intake
    factored: tuple     # Lagrange weights at 0 of the first 2t+1 holders,
                        # by magnitude, see _factor
    lanes: tuple        # (width, bias, folds) of the reshare kernel, see
                        # _lane_rule
    reshare: tuple      # "pI,pJ" links of a product round
    broadcast: tuple    # "pI,pJ" links of an opening


@lru_cache(maxsize=1024)
def _plan(q: int, live: int, t: int) -> _Plan:
    """What the rounds do with a sharing held by the live parties ``q``
    while ``live`` are; links are in the module docstring's order.  Fewer
    than t+1 holders fix no degree-t polynomial: ``fit_rule`` refuses them
    with InsufficientShares, and no plan is cached."""
    holders = tuple(i for i in range(q.bit_length()) if q >> i & 1)
    points = tuple(i + 1 for i in holders)
    rule = fit_rule(points, t)
    # the Lagrange weights at 0 are row 0 of the fit through the senders
    base = points[: 2 * t + 1]
    factored = _factor(fit_rule(base, len(base) - 1)[1][0])
    receivers = [j for j in range(live.bit_length()) if live >> j & 1]
    broadcast = tuple(f"p{i + 1},p{j + 1}"
                      for i in holders for j in receivers if j != i)
    reshare = broadcast[: len(base) * (len(receivers) - 1)]
    return _Plan(holders, points, rule, factored, _lane_rule(factored),
                 reshare, broadcast)


def _factor(weights: tuple) -> tuple:
    """Weights as terms ``(m, plus, minus)``, one per magnitude m = |w| > 0,
    with sum_s weights[s]*r_s = sum over terms of m*(sum of r_s over the
    sender numbers s in plus - sum over minus).  Senders weighted w and -w
    share one multiplication: (3, -3, 1) is 3*(r_0 - r_1) + r_2.  A
    magnitude that only negative weights have has no plus senders."""
    signs: dict = {}
    for s, w in enumerate(weights):
        signs.setdefault(abs(w), ([], []))[w < 0].append(s)
    return tuple((m, tuple(plus), tuple(minus))
                 for m, (plus, minus) in signs.items())


def _lane_rule(factored: tuple) -> tuple:
    """How ``_reshare_columns`` packs a reshare's weighted sums into lanes:
    ``(width, bias, folds)``.

    A lane holds bias + the sum over terms of m*(sum of the plus senders'
    draws - sum of the minus senders'), each draw in [0, p).  ``bias``, the
    sum of m*|minus|*p, is 0 mod p and keeps every lane at or above 0, and
    no lane exceeds bias + the sum of m*|plus|*(p-1).  ``width`` rounds that
    bound's bits up to whole 64-bit words, so no lane carries into the
    next: 128 bits, or 192 where weights near p/2 push the bound past 2^128
    (it stays below 2^133 for 255 senders).  ``folds`` counts the folds
    x -> (x mod 2^63) + _FOLD*(x >> 63) that bring every lane below 2^64,
    where one machine word reads it.
    """
    p = PRIME
    bias = sum(m * len(minus) for m, _, minus in factored) * p
    bound = bias + sum(m * len(plus) for m, plus, _ in factored) * (p - 1)
    width = -(-bound.bit_length() // 64) * 64
    folds = 0
    while bound >> 64:
        bound = (1 << 63) - 1 + _FOLD * (bound >> 63)
        folds += 1
    return width, bias, folds


@lru_cache(maxsize=16)
def _lane_constants(bias: int, count: int, width: int) -> tuple:
    """``bias``, the mask of the low 63 bits and the mask of the bits above
    them, each in every one of ``count`` lanes of ``width`` bits.  An entry
    takes 3*count*width/8 bytes; the cache keeps the 16 shapes used last."""
    return (lanes(bias, count, width), lanes((1 << 63) - 1, count, width),
            lanes((1 << (width - 63)) - 1, count, width))


def _reshare_columns(block: bytes, plan: _Plan, count: int, t: int) -> list:
    """F_1..F_t of ``count`` products, each a list with an entry below 2^64
    per product, congruent mod p to sum_s lam_s*r_sd.

    ``block`` is the products' ``shamir.draw_block``, (2t+1)*t words per
    product in sender, then d order.  Sender s's draws for every product
    and d are copied, by strided ``memoryview`` slices, into the low words
    of zeroed lanes of ``plan.lanes``' width, product-major, and read as
    one int.  The terms of ``plan.factored`` and the bias are summed over
    those ints, lanes folded mod p, and each F_d is read off as every
    (t*width/64)-th word.
    """
    width, bias, folds = plan.lanes
    words = memoryview(block).cast("Q")
    step = (2 * t + 1) * t
    span = width >> 6             # words per lane
    stride = span * t             # words per product
    size = count * stride * 8
    lane_bytes = bytearray(size)
    slots = memoryview(lane_bytes).cast("Q")

    def widened(s):
        for d in range(t):
            slots[d * span::stride] = words[s * t + d::step]
        return int.from_bytes(lane_bytes, "little")

    acc, low, high = _lane_constants(bias, count * t, width)
    for m, plus, minus in plan.factored:
        term = sum(map(widened, plus)) - sum(map(widened, minus))
        acc += term if m == 1 else m * term
    for _ in range(folds):
        acc = (acc & low) + _FOLD * (acc >> 63 & high)
    out = memoryview(acc.to_bytes(size, "little")).cast("Q")
    return [out[d * span::stride].tolist() for d in range(t)]


class Engine:
    """n simulated parties holding degree-t sharings, with exact cost metering."""

    def __init__(self, params: SharingParams | None = None, seed: int = 0,
                 record_transcript: bool = False):
        self.params = params or SharingParams()
        self.n = self.params.n
        self.t = self.params.t
        self.rng = random.Random(seed)
        self.meter = CostMeter()
        self.opened_log: list[tuple[str, str, int]] = []
        self.transcript: list[tuple] | None = [] if record_transcript else None
        self._phase = "setup"
        self._round = 0
        self._h: dict[int, tuple[int, ...]] = {}  # (c_0, ..., c_t, mask)
        # intake's plans by live holder mask: a dict lookup per sharing,
        # about 50 against 125 ns for _plan's lru_cache key
        self._intake: dict[int, _Plan] = {}
        # the last delivery's (sender, live holders, links): a bundle's
        # sharings share one links tuple
        self._delivered: tuple = (None, 0, ())
        self._next_handle = 1
        self._active = (1 << self.n) - 1

    # -- phase bookkeeping ------------------------------------------------

    @contextmanager
    def phase(self, label: str):
        old = self._phase
        self._phase = label
        try:
            yield
        finally:
            self._phase = old

    @property
    def current_phase(self) -> str:
        return self._phase

    # -- party liveness ---------------------------------------------------

    def fail_party(self, party: int) -> None:
        """Drop a party from all future quorums.  Permanent."""
        if not 1 <= party <= self.n:
            raise TooManyFailures(f"no such party {party}")
        bit = 1 << (party - 1)
        if not self._active & bit:
            return
        if (self._active.bit_count() - 1) < self.t + 1:
            raise TooManyFailures(
                f"failing party {party} would leave fewer than t+1 alive"
            )
        self._active &= ~bit

    # -- handle plumbing --------------------------------------------------

    def _store(self, rows, k: int) -> list[Handle]:
        """Register k rows under the next k handle numbers, in order."""
        first = self._next_handle
        out = range(first, first + k)
        self._h.update(zip(out, rows))
        self._next_handle = out.stop
        return list(out)

    def _admit(self, row: tuple, sender: str) -> Handle:
        """Register a sharing delivered by ``sender``: one sm->dcc message
        per live holder (``row[-1]``) and, with a transcript, one record; a
        run of deliveries from one sender to those holders shares one links
        tuple.  Stored inline, not by ``_store``: a range, a zip and a dict
        update per meter sharing would cost more than the store itself."""
        h = self._next_handle
        self._next_handle = h + 1
        self._h[h] = row
        live = row[-1]
        self.meter.bucket(self._phase).msgs_sm_to_dcc += live.bit_count()
        if self.transcript is not None:
            last, held, links = self._delivered
            if sender != last or live != held:
                links = tuple(f"{sender},p{i + 1}"
                              for i in _plan(live, live, self.t).holders)
                self._delivered = (sender, live, links)
            self.transcript.append((self._round, links, h))
        return h

    def skip_handles(self, k: int) -> None:
        """Issue the next k handle numbers without storing a sharing."""
        self._next_handle += k

    def live_handles(self) -> list[Handle]:
        return list(self._h.keys())

    def release(self, handles) -> None:
        """Forget sharings; each handle must be live and listed once."""
        shares = self._h
        for h in handles:
            del shares[h]

    def handle_mask(self, h: Handle) -> int:
        """Holder bitmask of a sharing: bit i is set if party i+1 holds it."""
        return self._h[h][-1]

    def export_shares(self, h: Handle) -> dict[int, int]:
        """Shares held by live parties, keyed by party index."""
        *coeffs, mask = self._h[h]
        mask &= self._active
        xs = [i + 1 for i in range(self.n) if mask >> i & 1]
        return dict(zip(xs, evaluate(coeffs, xs)))

    # -- inputs and constants ----------------------------------------------

    def input(self, value: int, sender: str = "dealer") -> Handle:
        """Dealer-side sharing delivered to every live party; its t random
        coefficients come from ``shamir.draw``, as ``share_values``' do.
        ``_admit`` registers, meters and records it, as it does every
        delivery; ``_store`` registers only computed rows."""
        field.validate(value)
        return self._admit((value, *draw(self.rng, self.t), self._active),
                           sender)

    def input_shares(self, values, sender: str = "dealer",
                     holders: int | None = None) -> Handle:
        """Register an externally produced sharing from its party shares.

        ``values`` has one share per party, in party order.  ``holders`` is
        the mask of the parties that received the sharing, by default all
        of them.  The sharing is held by the live holders, at least t+1 of
        them must be, and only they are metered and recorded; the share of
        a failed party or of a party outside ``holders`` is not read.  The
        polynomial is read off the first t+1 held shares by
        ``shamir.fit``'s rule, and every further held share must lie on
        it: one that does not raises InconsistentShares (detected, not
        corrected).  A refused sharing registers, meters and records
        nothing.

        At t = 1 (each meter's intake at (3,1)) that rule is unrolled
        inline for a line, about 1.1 against 3.0 us per sharing at (3,1)
        through ``shamir.fit``, with or without a failed party (one
        process, 2,000 sharings, best of 15).
        """
        n, t, p = self.n, self.t, PRIME
        if len(values) != n:
            raise InsufficientShares(f"expected {n} share slots")
        live = self._active if holders is None else holders & self._active
        if live.bit_count() <= t:
            raise InsufficientShares(
                "sharing arrived at fewer than t+1 live parties")
        plan = self._intake.get(live)
        if plan is None:
            plan = self._intake[live] = _plan(live, live, t)
        if t == 1:
            # fit's rule unrolled for the line through the shares y at x
            # and z at x2: its rows[1] is (-w, w), so c_1 = (z - y)*w, and
            # c_0 = y - x*c_1
            (x, x2), (_, (_, w)), checks = plan.rule
            y = values[x - 1]
            c1 = (values[x2 - 1] - y) * w % p
            c0 = (y - x * c1) % p
            row = (c0, c1, live)
            for _, x, _ in checks:
                if (c0 + c1 * x - values[x - 1]) % p:
                    raise InconsistentShares(
                        f"share of party {x} is off the polynomial")
        else:
            row = (*fit([values[i] for i in plan.holders], plan.points, t),
                   live)
        return self._admit(row, sender)

    def constant(self, value: int) -> Handle:
        """Public constant as a degree-0 sharing known to everyone."""
        return self._store([(value % PRIME,) + (0,) * self.t
                            + ((1 << self.n) - 1,)], 1)[0]

    # -- local linear algebra ----------------------------------------------

    def lincomb(self, terms: list[tuple[int, Handle]], const: int = 0) -> Handle:
        """One affine combination of ``(coef, handle)`` terms plus ``const``,
        summed on its own: one column sum per coefficient, a bare sum where
        every coefficient is exactly 1.  It is held as a ``lincomb_batch``
        result is; no terms give the public constant, held by every party."""
        if not terms:
            return self.constant(const)
        rows = list(map(self._h.__getitem__, map(_SECOND, terms)))
        mask = reduce(and_, map(_LAST, rows))
        if (mask & self._active).bit_count() <= self.t:
            raise InsufficientShares(
                "combination survives at fewer than t+1 live parties"
            )
        coefs = list(map(_FIRST, terms))
        cols = islice(zip(*rows), self.t + 1)
        if coefs.count(1) == len(coefs):
            sums = list(map(sum, cols))
        else:
            sums = [sum(map(mul, coefs, col)) for col in cols]
        sums[0] += const
        return self._store([(*map(mod, sums, repeat(PRIME)), mask)], 1)[0]

    def lincomb_batch(self, terms: list[tuple],
                      const: int | list[int] = 0) -> list[Handle]:
        """Affine combinations over handle columns, registered in order.

        ``terms`` holds term positions ``(coef, handles)``: combination u
        is the sum over them of coef[u]*handles[u], plus const[u], where
        ``coef`` and ``const`` are each one int for every combination or a
        list with an entry per combination.  All these columns have one
        length, or the call raises LengthMismatch before any row is read.

        Each party applies the combination to its own shares, so a result
        lives at exactly the parties holding every term (failed ones too),
        and at least t+1 of them must be live.  Evaluation is linear, so
        the result's coefficients are the same combination of the terms'
        coefficients, with the constant added to c_0.  One ``map`` pass per
        term position computes whole columns; each coefficient is summed
        unreduced and reduced mod p once, and a position whose coefficients
        are all exactly 1 adds its bare column.  Every combination is
        computed and checked before any is registered, so a refused batch
        changes nothing.
        """
        columns = [column for term in terms for column in term] + [const]
        sizes = {len(c) for c in columns if not isinstance(c, int)}
        if len(sizes) > 1:
            raise LengthMismatch("columns of one batch differ in length")
        size = sizes.pop() if sizes else 0
        if not size:
            return []
        t = self.t
        shares = self._h
        cols = [repeat(0, size) for _ in range(t + 1)]
        masks = [(1 << self.n) - 1] * size
        for j, (coef, handles) in enumerate(terms):
            rows = list(map(shares.__getitem__, handles))
            masks = list(map(and_, masks, map(_LAST, rows)))
            if isinstance(coef, int):
                unit, coef = coef == 1, repeat(coef)
            else:
                unit = coef.count(1) == size
            for d in range(t + 1):
                col = map(itemgetter(d), rows)
                if not unit:
                    col = map(mul, coef, col)
                cols[d] = col if j == 0 else map(add, cols[d], col)
        if isinstance(const, int):
            if const:
                cols[0] = map(add, cols[0], repeat(const))
        elif const.count(0) != size:
            cols[0] = map(add, cols[0], const)
        live = map(and_, set(masks), repeat(self._active))
        if min(map(int.bit_count, live)) <= t:
            raise InsufficientShares(
                "combination survives at fewer than t+1 live parties"
            )
        reduced = [map(mod, col, repeat(PRIME)) for col in cols]
        return self._store(zip(*reduced, masks), size)

    # -- interactive operations --------------------------------------------

    def _charge(self, masks: list, links: dict, numbers) -> PhaseCount:
        """Meter a round; item u sends ``links[masks[u]]``, named ``numbers[u]``."""
        pc = self.meter.bucket(self._phase)
        self._round += 1
        pc.rounds += 1
        pc.msgs_between_dcc += sum(len(group) * masks.count(m)
                                   for m, group in links.items())
        if self.transcript is not None:
            self.transcript.extend(zip(repeat(self._round),
                                       map(links.__getitem__, masks), numbers))
        return pc

    def product_batch(self, left: list[Handle], right: list[Handle], *,
                      as_or: bool = False) -> list[Handle]:
        """One round of multiplications with degree reduction.

        Product u multiplies ``left[u]`` by ``right[u]``; factor columns of
        different lengths raise LengthMismatch before anything is checked,
        metered, drawn or numbered.  Each of 2t+1 senders s multiplies its
        shares locally, giving d_s = a(x_s)*b(x_s) on the degree-2t product
        polynomial, and reshares d_s with a fresh degree-t polynomial f_s(x)
        = d_s + r_s1*x + ... + r_st*x^t.  Target j keeps sum_s lam_s*f_s(j),
        lam being the Lagrange weights at 0 over the senders, which folds the
        2t+1-point interpolation back to a degree-t sharing of the same
        product (Gennaro, Rabin, Rabin, PODC 1998).

        That sum is F(j) for the one combined polynomial F = sum_s lam_s*f_s,
        and the round stores F's coefficients: F_0 = sum_s lam_s*d_s, which
        is a_0*b_0 because lam interpolates the degree-2t product at 0 from
        2t+1 points, and F_d = sum_s lam_s*r_sd for d >= 1.  No share is
        evaluated.  The round computes whole coefficient columns over runs
        of its products: F_0 with ``map``, reading c_0 off the factors'
        rows and their masks with ``itemgetter(t+1)``, and F_1..F_t on
        packed lanes (``_reshare_columns``):

        - Products are grouped by the parties holding both factors.  Every
          group's live holders must form a 2t+1 quorum, and all groups are
          checked first, so a refused round meters, draws and registers
          nothing.  A group's first 2t+1 live holders send, and its
          weights lam weigh its products' draws.
        - The round is metered and recorded whole, then computed in runs of
          consecutive products of one group, at most ``_CHUNK`` each, so
          the draws and columns held at once do not grow with K.  A run
          draws its (2t+1)*t words per product as one block
          (``shamir.draw_block``), in product, then sender, then d order,
          by ``randrange(p)``'s rule, which gives the words of one draw
          per round.
        - A run's weights are taken by magnitude (``_Plan.factored``): the
          draws of senders weighted w and -w are subtracted, and their
          difference is multiplied by |w| once; a weight of 1 multiplies
          nothing.  From consecutive holders the weights come in such
          pairs, so F_d is 3*(r_0d - r_1d) + r_2d at (3,1) and 5*(r_0d -
          r_3d) + 10*(r_2d - r_1d) + r_4d at (5,2).  Each sender's draws
          for the whole run are one int of lanes wide enough that no sum
          carries into the next lane (``_Plan.lanes``), so each term is a
          few big-int operations for the run, not one per product.
        - F_0 is summed unreduced and F_1..F_t are folded below 2^64 on the
          lanes; each is reduced mod p once, and each product is stored as
          one tuple ``(F_0, ..., F_t, mask)``.

        ``as_or=True`` returns sharings of a + b - ab (the OR of two shared
        bits) instead of ab: each coefficient is a_d + b_d - F_d, which is
        ``lincomb_batch([(1, left), (1, right), (-1, products)])`` in
        coefficients and masks (held where both factors and the party are
        all live).  The products are never stored, but their numbers are
        still issued: products take ``first..first+K-1``, which the
        transcript records name, and the merges ``first+K..first+2K-1``, as
        if the products had been registered, merged and released.  Rows are
        stored and transcript records appended in product order.
        """
        if len(left) != len(right):
            raise LengthMismatch("factor columns differ in length")
        if not left:
            return []
        t = self.t
        p = PRIME
        size = 2 * t + 1
        active = self._active
        shares = self._h
        left = list(map(shares.__getitem__, left))
        right = list(map(shares.__getitem__, right))
        # products group by the parties holding both factors
        mask_of = itemgetter(t + 1)
        masks = list(map(and_, map(mask_of, left), map(mask_of, right)))
        groups = dict.fromkeys(masks)
        for m in groups:
            if (m & active).bit_count() < size:
                raise InsufficientShares(
                    "fewer than 2t+1 parties hold both factors"
                )
            groups[m] = _plan(m & active, active, t)

        k = len(left)
        first = self._next_handle
        links = {m: plan.reshare for m, plan in groups.items()}
        self._charge(masks, links, range(first, first + k)).multiplications += k
        if as_or:
            # the products' numbers: named by the transcript, never stored
            self.skip_handles(k)

        step = size * t  # draws per product
        out = []
        end = 0
        for m, run in groupby(masks):
            start, end = end, end + len(list(run))
            plan = groups[m]
            # a merge lives where both factors and the party do
            held = repeat(m & active if as_or else active)
            for lo in range(start, end, _CHUNK):
                hi = min(lo + _CHUNK, end)
                a, b = left[lo:hi], right[lo:hi]
                block = draw_block(self.rng, (hi - lo) * step)
                # the factors' c_0 columns, read once for product and merge
                firsts = [list(map(_FIRST, a)), list(map(_FIRST, b))]
                cols = [map(mul, *firsts),
                        *_reshare_columns(block, plan, hi - lo, t)]
                if as_or:
                    factors = [firsts] + [
                        [map(get, a), map(get, b)]
                        for get in map(itemgetter, range(1, t + 1))]
                    cols = [map(sub, map(add, *pair), col)
                            for pair, col in zip(factors, cols)]
                rows = zip(*[map(mod, col, repeat(p)) for col in cols], held)
                out += self._store(rows, hi - lo)
        return out

    def open(self, h: Handle, kind: str = "value") -> int:
        return self.open_batch([h], kind)[0]

    def open_batch(self, handles: list[Handle], kind: str = "value") -> list[int]:
        """One broadcast round revealing the given secrets to all parties.

        Every live holder broadcasts its share, and the secret is c_0.  A
        handle with fewer than t+1 live holders fixes no degree-t
        polynomial, so the round is refused by ``shamir.fit_rule``'s rule
        (through ``_plan``) before it is metered, logged or recorded, and a
        refused round changes nothing.  Shares are checked where a sharing
        enters the engine (``input_shares``).
        """
        if not handles:
            return []
        t = self.t
        active = self._active
        rows = list(map(self._h.__getitem__, handles))
        present = list(map(and_, map(_LAST, rows), repeat(active)))
        groups = {q: _plan(q, active, t) for q in dict.fromkeys(present)}
        out = list(map(_FIRST, rows))

        links = {q: plan.broadcast for q, plan in groups.items()}
        self._charge(present, links, handles).opens += len(handles)
        self.opened_log.extend(zip(repeat(self._phase), repeat(kind), out))
        return out

    def random_bits_batch(self, k: int) -> list[Handle]:
        """Uniform secret bits nobody knows: 2 mult-equivalents each.

        Parties jointly hold a random field element, square it, open the
        square, and normalise the element by the public root; the result
        is a sharing of +-1 mapped affinely to {0, 1} (Damgard et al., TCC
        2006).  A zero draw is rejected and retried.  An attempt draws
        every pending element's polynomial, r then its t coefficients, as
        one ``shamir.draw`` list, which gives the same words and rng state
        as a ``draw(rng, t + 1)`` per element, and registers
        them in one update.  Each attempt's random elements and their
        squares are released once its bits exist.  The squaring round's
        2t+1 quorum is checked first, so a refused call draws and
        registers nothing.
        """
        if k and self._active.bit_count() < 2 * self.t + 1:
            raise InsufficientShares("fewer than 2t+1 live parties to square")
        out: list[Handle | None] = [None] * k
        pending = list(range(k))
        p = PRIME
        inv2 = pow(2, -1, p)
        pc = self.meter.bucket(self._phase)
        width = self.t + 1
        while pending:
            # element u's polynomial (r, c_1, ..., c_t) is
            # words[u*width:(u+1)*width]: one list gives the words and rng
            # state of one draw per element
            words = draw(self.rng, len(pending) * width)
            polys = zip(*[words[d::width] for d in range(width)],
                        repeat(self._active))
            rs = self._store(polys, len(pending))
            squares = self.product_batch(rs, rs)
            opened = self.open_batch(squares, kind="rand")
            coefs = field.inv_batch([2 * field.sqrt(sq) % p
                                     for sq in filter(None, opened)])
            bits = self.lincomb_batch([(coefs, list(compress(rs, opened)))],
                                      inv2)
            for slot, bit in zip(compress(pending, opened), bits):
                out[slot] = bit
            pc.random_bits += len(bits)
            retry = [slot for slot, sq in zip(pending, opened) if not sq]
            self.release(rs)
            self.release(squares)
            pending = retry
        return out  # type: ignore[return-value]
