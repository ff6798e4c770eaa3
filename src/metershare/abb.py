"""Simulated arithmetic black box over n lockstep parties.

The engine keeps every party's share of every live secret, so a single
scheduler thread can play all parties of the honest-but-curious protocol
while charging costs exactly as the real message pattern would.  A
multiplication is one degree-reduction round in which the first 2t+1 live
holders each send a share to every other live party, (2t+1)*(live-1) share
messages, which equals n*(n-1) only when n = 2t+1.  An opening is one
broadcast round in which every live holder sends its share to every other
live party.  Party state is only ever read through quorum checks, so
marking a party failed simply removes it from every later quorum; failures
are permanent for the engine's lifetime (there is deliberately no un-fail
operation).

Batch variants of the interactive operations share one round, which is
what a real implementation would do; per-call variants (``product``,
``open`` and the local ``lincomb``) are conveniences that wrap a batch of
one.  Determinism: all randomness flows from the seed given at
construction, and parties are driven in lockstep by the calling thread.
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
the first handle it registered, and never its own outputs.
``skip_handles(k)`` issues k numbers without storing a sharing under
them; such a number is never live and must not be released.  A fused
round (``product_batch(..., as_or=True)``) issues its products' numbers
this way, and the transcript still names them; the equality gate issues
the numbers of flips that reuse a stored complement this way.

Share rows: each live sharing is stored as ``(values, mask)``, where
``values`` is an immutable tuple of n party shares (None where a party
holds none) and bit i of ``mask`` is set if party i+1 holds its share.
A row is never changed after it is stored; every operation writes a new
one.  Tuples because a region holds tens of thousands of rows at once:
the cyclic garbage collector stops tracking a tuple of ints after its
first scan, while it rescans a list on every full collection for as long
as the list lives.

Transcript: with ``record_transcript=True`` the engine appends one record
per message group, ``(round, links, handle, bytes)``: a sharing's delivery
to the servers, one product's reshare round or one handle's opening
broadcast.  ``links`` is a non-empty tuple of ``"sender,receiver"``
strings, one per share message of ``bytes`` bytes, sender-major.  A
round's links come from one cached plan per (live holders, live parties),
and the meter counts those same tuples.  A writer expands each record
into one line per link.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field as dfield, fields as dfields
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import add, and_, itemgetter, mod, mul, sub
import random
from typing import NamedTuple

from . import field
from .errors import InsufficientShares, TooManyFailures
from .shamir import (
    RAND_BITS,
    SHARE_BYTES,
    SharingParams,
    _add_columns,
    lagrange_at,
    open_weights,
    recover,
    share_values,
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
        out = PhaseCount()
        for pc in self.phases.values():
            out.add(pc)
        return out

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


_FIRST, _SECOND = itemgetter(0), itemgetter(1)


class _Plan(NamedTuple):
    holders: tuple      # party indices (from 0) in q, ascending
    weights: tuple      # ((itemgetter(i), weight), ...) per reshare sender
    rule: tuple         # shamir.open_weights at the holders' points
    reshare: tuple      # "pI,pJ" links of a product round
    broadcast: tuple    # "pI,pJ" links of an opening


@lru_cache(maxsize=1024)
def _plan(q: int, live: int, t: int) -> _Plan:
    """What the rounds do with a sharing held by the live parties ``q``
    while ``live`` are; links are in the module docstring's order."""
    holders = tuple(i for i in range(q.bit_length()) if q >> i & 1)
    xs = tuple(i + 1 for i in holders)
    lam = lagrange_at(xs[: 2 * t + 1], 0)
    receivers = [j for j in range(live.bit_length()) if live >> j & 1]
    broadcast = tuple(f"p{i + 1},p{j + 1}"
                      for i in holders for j in receivers if j != i)
    weights = tuple(zip(map(itemgetter, holders), lam))
    reshare = broadcast[: len(lam) * (len(receivers) - 1)]
    return _Plan(holders, weights, open_weights(xs, t), reshare, broadcast)


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
        self._h: dict[int, tuple[tuple, int]] = {}
        self._next_handle = 1
        self._active = (1 << self.n) - 1

    # -- phase bookkeeping ------------------------------------------------

    def set_phase(self, label: str) -> None:
        self._phase = label

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

    def _register(self, values, mask: int) -> Handle:
        h = self._next_handle
        self._next_handle += 1
        self._h[h] = (tuple(values), mask)
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
        return self._h[h][1]

    def export_shares(self, h: Handle) -> dict[int, int]:
        """Shares held by live parties, keyed by party index."""
        values, mask = self._h[h]
        mask &= self._active
        return {i + 1: values[i] for i in range(self.n) if mask >> i & 1}

    # -- inputs and constants ----------------------------------------------

    def input(self, value: int, sender: str = "dealer") -> Handle:
        """Dealer-side sharing delivered to every party."""
        return self.input_shares(
            share_values(value, self.n, self.t, self.rng), sender
        )

    def input_shares(self, values, sender: str = "dealer") -> Handle:
        """Register an externally produced sharing; None marks a lost share.

        ``values`` is copied into the engine's row once; a tuple is stored
        as given.
        """
        n = self.n
        if len(values) != n:
            raise InsufficientShares(f"expected {n} share slots")
        mask, bit = 0, 1
        for v in values:
            if v is not None:
                mask |= bit
            bit <<= 1
        held = mask.bit_count()
        if held < self.t + 1:
            raise InsufficientShares("sharing arrived at fewer than t+1 parties")
        h = self._register(values, mask)
        self.meter.bucket(self._phase).msgs_sm_to_dcc += held
        if self.transcript is not None:
            # delivered to the row's own holders, failed or not
            links = tuple(f"{sender},p{i + 1}"
                          for i in _plan(mask, mask, self.t).holders)
            self.transcript.append((self._round, links, h, SHARE_BYTES))
        return h

    def constant(self, value: int) -> Handle:
        """Public constant as a degree-0 sharing known to everyone."""
        v = value % PRIME
        return self._register((v,) * self.n, (1 << self.n) - 1)

    # -- local linear algebra ----------------------------------------------

    def lincomb(self, terms: list[tuple[int, Handle]], const: int = 0) -> Handle:
        """Affine combination of sharings; free of interaction."""
        return self.lincomb_batch([(terms, const)])[0]

    def lincomb_batch(self, combos: list[tuple[list[tuple[int, Handle]], int]]
                      ) -> list[Handle]:
        """Affine combinations ``(terms, const)``, registered in list order.

        Each party applies the combination to its own shares, so a result
        lives at exactly the parties holding every term.  A share is summed
        unreduced and reduced mod p once.  Combinations of one or two fully
        held terms (the gate glue) take unrolled paths; the rest (region
        sums, partial holders) sum each party's column in one pass, as a
        bare sum when every coefficient is exactly 1 (the cell and bucket
        sums of the region circuits).  Every combination is computed and
        checked before any is registered, so a refused batch changes
        nothing.
        """
        n = self.n
        full = (1 << n) - 1
        p = PRIME
        shares = self._h
        made = []
        for terms, const in combos:
            vals = None
            k = len(terms)
            if k == 1:
                (c, a), = terms
                av, mask = shares[a]
                if mask == full:
                    vals = tuple([(c * x + const) % p for x in av])
            elif k == 2:
                (c, a), (d, b) = terms
                av, am = shares[a]
                bv, bm = shares[b]
                mask = am & bm
                if mask == full:
                    vals = tuple([(c * x + d * y + const) % p
                                  for x, y in zip(av, bv)])
            if vals is None:
                rows = [shares[x] for _, x in terms]
                mask = full
                for _, m in rows:
                    mask &= m
                if mask.bit_count() < self.t + 1:
                    raise InsufficientShares(
                        "combination survives at fewer than t+1 parties"
                    )
                coefs = [c for c, _ in terms]
                unit = coefs.count(1) == k
                cols = zip(*[v for v, _ in rows]) if rows else [()] * n
                vals = tuple([
                    ((sum(col) if unit else sum(map(mul, coefs, col)))
                     + const) % p
                    if mask >> i & 1 else None
                    for i, col in enumerate(cols)
                ])
            made.append((vals, mask))
        first = self._next_handle
        out = range(first, first + len(made))
        for h, row in zip(out, made):
            shares[h] = row
        self._next_handle = out.stop
        return list(out)

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
                                       map(links.__getitem__, masks),
                                       numbers, repeat(SHARE_BYTES)))
        return pc

    def product(self, a: Handle, b: Handle) -> Handle:
        return self.product_batch([(a, b)])[0]

    def product_batch(self, pairs: list[tuple[Handle, Handle]], *,
                      as_or: bool = False) -> list[Handle]:
        """One round of multiplications with degree reduction.

        Each of 2t+1 senders i multiplies its shares locally, giving
        d_i = a_i*b_i on the degree-2t product polynomial, and reshares d_i
        with a fresh degree-t polynomial f_i(x) = d_i + r_i1*x + ... +
        r_it*x^t.  Target j keeps sum_i lam_i*f_i(j), lam being the Lagrange
        weights at 0 over the senders, which folds the 2t+1-point
        interpolation back to a degree-t sharing of the same product
        (Gennaro, Rabin, Rabin, PODC 1998).

        Evaluation at j is linear in the coefficients, so that sum equals
        F(j) for the one combined polynomial F = sum_i lam_i*f_i, with
        F_0 = sum_i lam_i*d_i and F_k = sum_i lam_i*r_ik.  The round computes
        whole columns with ``map`` rather than looping over products,
        senders and targets:

        - Products are grouped by the parties holding both factors.  Every
          group's live holders must form a 2t+1 quorum, and all groups are
          checked first, so a refused round meters, draws and registers
          nothing.
        - All K*(2t+1)*t draws come from one list, in product, then sender,
          then k order, each by ``randrange(p)``'s rule (see
          ``shamir.RAND_BITS``): words at or above p are dropped and the
          list is topped up one word at a time, which accepts exactly the
          words a per-draw rejection loop would.
        - Per group, the first 2t+1 live holders send.  F_0 and each F_k
          are columns over the group's products, and every live target
          evaluates F on them by Horner, with one reduction mod p per share.

        ``as_or=True`` returns sharings of a + b - ab (the OR of two shared
        bits) instead of ab.  Every target holds its reduced product share
        after the round, so it applies the merge locally to the same share
        columns; the result equals ``lincomb_batch([(1, a), (1, b), (-1, ab)])``
        in values and masks (held where a, b and the party are all live).
        The products are never stored, but their numbers are still issued:
        products take ``first..first+K-1``, which the transcript records
        name, and the merges ``first+K..first+2K-1``, as if the products had
        been registered, merged and released.  Rows are stored and
        transcript records appended in pair order.
        """
        if not pairs:
            return []
        n, t = self.n, self.t
        p = PRIME
        size = 2 * t + 1
        active = self._active
        shares = self._h
        left = list(map(shares.__getitem__, map(_FIRST, pairs)))
        right = list(map(shares.__getitem__, map(_SECOND, pairs)))
        avals, bvals = list(map(_FIRST, left)), list(map(_FIRST, right))
        # products group by the parties holding both factors
        masks = list(map(and_, map(_SECOND, left), map(_SECOND, right)))
        groups = dict.fromkeys(masks)
        for m in groups:
            if (m & active).bit_count() < size:
                raise InsufficientShares(
                    "fewer than 2t+1 parties hold both factors"
                )
            groups[m] = _plan(m & active, active, t)

        k = len(pairs)
        first = self._next_handle
        links = {m: plan.reshare for m, plan in groups.items()}
        self._charge(masks, links, range(first, first + k)).multiplications += k

        # product u's draws for sender s are words[u*step + s*t:][:t]
        step = size * t
        need = k * step
        getrandbits = self.rng.getrandbits
        words = list(map(getrandbits, repeat(RAND_BITS, need)))
        if max(words) >= p:
            words = [w for w in words if w < p]
            while len(words) < need:
                w = getrandbits(RAND_BITS)
                if w < p:
                    words.append(w)

        rows: list = [None] * k
        for m, plan in groups.items():
            # a round with one holder set, the usual case, needs no picking
            if len(groups) == 1:
                idx = None
                av, bv = avals, bvals
            else:
                idx = list(compress(range(k), map(m.__eq__, masks)))
                av = list(map(avals.__getitem__, idx))
                bv = list(map(bvals.__getitem__, idx))
            weights = plan.weights
            # poly[d]: the column of F_d over the group's products
            poly = [list(reduce(_add_columns, [
                map(mul, map(mul, map(get, av), map(get, bv)), repeat(w))
                for get, w in weights
            ]))]
            for d in range(t):
                draws = [words[s * t + d::step] for s in range(size)]
                if idx is not None:
                    draws = [list(map(col.__getitem__, idx)) for col in draws]
                poly.append(list(reduce(_add_columns, [
                    map(mul, col, repeat(w))
                    for col, (_, w) in zip(draws, weights)
                ])))
            # a merge lives where both factors and the party do
            held = m & active if as_or else active
            cols = []
            for j in range(n):
                if not held >> j & 1:
                    cols.append(repeat(None))
                    continue
                x = repeat(j + 1)
                acc = poly[t]
                for c in poly[t - 1::-1]:
                    acc = map(add, map(mul, acc, x), c)
                if as_or:
                    get = itemgetter(j)
                    acc = map(sub, map(add, map(get, av), map(get, bv)), acc)
                cols.append(map(mod, acc, repeat(p)))
            made = zip(zip(*cols), repeat(held))
            if idx is None:
                rows = list(made)
            else:
                for u, row in zip(idx, made):
                    rows[u] = row

        if as_or:
            # the products' numbers: named by the transcript, never stored
            self.skip_handles(k)
        out = range(self._next_handle, self._next_handle + k)
        for h, row in zip(out, rows):
            shares[h] = row
        self._next_handle = out.stop
        return list(out)

    def open(self, h: Handle, kind: str = "value") -> int:
        return self.open_batch([h], kind)[0]

    def open_batch(self, handles: list[Handle], kind: str = "value") -> list[int]:
        """One broadcast round revealing the given secrets to all parties.

        Every live holder broadcasts its share.  ``shamir.recover`` takes
        each holder set's handles in one call, so a corrupted share raises
        InconsistentShares rather than being silently absorbed.  Every
        handle is recovered before the round is metered, logged or
        recorded, so a refused round changes nothing.
        """
        if not handles:
            return []
        active = self._active
        rows = list(map(self._h.__getitem__, handles))
        values = list(map(_FIRST, rows))
        # group by live holders; the plan's open_weights refuses a set below t+1
        present = list(map(and_, map(_SECOND, rows), repeat(active)))
        groups = {q: _plan(q, active, self.t) for q in dict.fromkeys(present)}
        got = {}
        for q, plan in groups.items():
            columns = list(zip(*compress(values, map(q.__eq__, present))))
            got[q] = iter(recover([columns[i] for i in plan.holders], plan.rule))
        # secrets back in handle order, each group's in its own order
        out = list(map(next, map(got.__getitem__, present)))

        links = {q: plan.broadcast for q, plan in groups.items()}
        self._charge(present, links, handles).opens += len(handles)
        self.opened_log.extend(zip(repeat(self._phase), repeat(kind), out))
        return out

    def random_bits_batch(self, k: int) -> list[Handle]:
        """Uniform secret bits nobody knows: 2 mult-equivalents each.

        Parties jointly hold a random field element, square it, open the
        square, and normalise the element by the public root; the result
        is a sharing of +-1 mapped affinely to {0, 1}.  A zero draw is
        rejected and retried.  Each attempt's random elements and their
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
        while pending:
            rs = []
            for _ in pending:
                r = self.rng.randrange(p)
                rs.append(self._register(
                    share_values(r, self.n, self.t, self.rng),
                    self._active,
                ))
            squares = self.product_batch([(h, h) for h in rs])
            opened = self.open_batch(squares, kind="rand")
            kept = [(slot, hr, sq)
                    for slot, hr, sq in zip(pending, rs, opened) if sq]
            coefs = field.inv_batch([2 * field.sqrt(sq) % p
                                     for _, _, sq in kept])
            bits = self.lincomb_batch([
                ([(coef, hr)], inv2) for (_, hr, _), coef in zip(kept, coefs)
            ])
            for (slot, _, _), bit in zip(kept, bits):
                out[slot] = bit
            pc.random_bits += len(kept)
            retry = [slot for slot, sq in zip(pending, opened) if not sq]
            self.release(rs)
            self.release(squares)
            pending = retry
        return out  # type: ignore[return-value]
