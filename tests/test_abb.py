"""Engine layer: products, opens, randomness, liveness, cost metering."""

import ast
import copy
from pathlib import Path
import random
import tracemalloc

from conftest import share_row
from hypothesis import given, settings, strategies as st
import pytest

from metershare import abb, field
from metershare.abb import Engine
from metershare.errors import (
    InconsistentShares,
    InsufficientShares,
    LengthMismatch,
    TooManyFailures,
)
from metershare.shamir import (
    SHARE_BYTES,
    Share,
    SharingParams,
    extend_to_secret,
    reconstruct,
    share_values,
)


def open_via_shamir(engine, h):
    # reconstruct outside the engine so its own open() is not trusted
    shares = [
        Share(p, v, engine.t) for p, v in engine.export_shares(h).items()
    ]
    return reconstruct(shares[: engine.t + 1])


def test_input_and_lincomb_oracle(engine, rng):
    p = field.PRIME
    xs = [rng.randrange(p) for _ in range(5)]
    hs = [engine.input(x) for x in xs]
    coef = [rng.randrange(p) for _ in range(5)]
    const = rng.randrange(p)
    out = engine.lincomb(list(zip(coef, hs)), const=const)
    want = (sum(c * x for c, x in zip(coef, xs)) + const) % p
    assert open_via_shamir(engine, out) == want
    assert engine.open(out) == want


def test_constant_handle(engine):
    h = engine.constant(17)
    assert set(engine.export_shares(h).values()) == {17}
    assert engine.open(h) == 17


def test_product_oracle(engine, rng):
    p = field.PRIME
    for _ in range(30):
        x, y = rng.randrange(p), rng.randrange(p)
        h = engine.product_batch([(engine.input(x), engine.input(y))])[0]
        assert open_via_shamir(engine, h) == x * y % p


def test_product_batch_oracle_n5(engine5, rng):
    p = field.PRIME
    pairs, want = [], []
    for _ in range(20):
        x, y = rng.randrange(p), rng.randrange(p)
        pairs.append((engine5.input(x), engine5.input(y)))
        want.append(x * y % p)
    out = engine5.product_batch(pairs)
    assert [open_via_shamir(engine5, h) for h in out] == want


def test_product_output_is_degree_t(engine5):
    """Degree reduction: any t+1 of the product shares must agree."""
    h = engine5.product_batch([(engine5.input(3), engine5.input(7))])[0]
    shares = [Share(p, v, 2) for p, v in engine5.export_shares(h).items()]
    values = set()
    for i in range(len(shares) - 2):
        values.add(reconstruct(shares[i:i + 3]))
    assert values == {21}


def test_product_costs_one_mult_one_round(engine):
    with engine.phase("probe"):
        engine.product_batch([
            (engine.input(1), engine.input(2)),
            (engine.input(3), engine.input(4)),
        ])
    pc = engine.meter.bucket("probe")
    assert pc.multiplications == 2
    assert pc.rounds == 1
    # 2t+1 senders each reach the other active parties, per product
    assert pc.msgs_between_dcc == 2 * 3 * 2
    assert pc.bytes_between_dcc == pc.msgs_between_dcc * SHARE_BYTES


@pytest.mark.parametrize("n,t,failed", [(5, 1, None), (7, 2, None), (5, 1, 2)])
def test_product_messages_per_mult(n, t, failed):
    # 2t+1 senders each reach every other live party: n*(n-1) only at
    # n = 2t+1, so these shapes tell the two counts apart
    engine = Engine(SharingParams(n, t), seed=n + t, record_transcript=True)
    xs = [engine.input(v) for v in range(1, 7)]
    if failed:
        engine.fail_party(failed)
    live = engine._active.bit_count()
    with engine.phase("probe"):
        engine.product_batch(list(zip(xs, xs[1:])))
    pc = engine.meter.bucket("probe")
    assert pc.multiplications == 5
    assert pc.msgs_between_dcc == 5 * (2 * t + 1) * (live - 1)
    products = engine.transcript[-5:]
    assert sum(len(links) for _, links, _ in products) == pc.msgs_between_dcc


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
def test_round_links_follow_the_live_set(n, t):
    # a and b are held by every party but n, so failing party n leaves
    # their holder set as it was: links cached by holder set alone would
    # still reach party n
    engine = Engine(SharingParams(n, t), seed=n + t, record_transcript=True)
    a, b = (engine.input_shares(share_values(v, n, t, engine.rng),
                                holders=(1 << (n - 1)) - 1)
            for v in (3, 4))
    for live in (n, n - 1):
        if live < n:
            engine.fail_party(n)
        with engine.phase(f"probe{live}"):
            engine.product_batch([(a, b)])
            assert engine.open(a) == 3
        product_links, open_links = (r[1] for r in engine.transcript[-2:])
        assert len(product_links) == (2 * t + 1) * (live - 1)
        assert len(open_links) == (n - 1) * (live - 1)
        pc = engine.meter.bucket(f"probe{live}")
        assert pc.msgs_between_dcc == len(product_links) + len(open_links)
        receivers = {link.split(",")[1] for link in product_links + open_links}
        assert receivers == {f"p{j}" for j in range(1, live + 1)}


def test_open_costs(engine):
    h = engine.input(5)
    with engine.phase("probe"):
        assert engine.open(h) == 5
    pc = engine.meter.bucket("probe")
    assert pc.opens == 1 and pc.rounds == 1
    assert pc.msgs_between_dcc == 3 * 2
    assert pc.mult_equivalents == 1


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3)])
def test_intake_detects_tampered_share(n, t):
    # one altered share at any position is off the polynomial the others
    # fix: refused at intake, leaving nothing registered, metered or recorded
    engine = Engine(SharingParams(n, t), seed=n + t, record_transcript=True)
    engine.input(1)
    values = share_values(5, n, t, engine.rng)
    before = engine_state(engine)
    for i in range(n):
        bad = values[:i] + [(values[i] + 1) % field.PRIME] + values[i + 1:]
        with pytest.raises(InconsistentShares):
            engine.input_shares(bad, "sm1")
        assert engine_state(engine) == before
    assert engine.open(engine.input_shares(values, "sm1")) == 5


def test_opened_log_records_phase_and_kind(engine):
    with engine.phase("somewhere"):
        engine.open(engine.input(9), kind="probe")
    assert engine.opened_log == [("somewhere", "probe", 9)]


def test_input_shares_with_gaps(engine):
    # only parties 1 and 2 received their share
    full = engine.input(77)
    vals = engine.export_shares(full)
    h = engine.input_shares(list(vals.values()), holders=0b011)
    assert engine.open(h) == 77
    with pytest.raises(InsufficientShares):
        engine.input_shares(list(vals.values()), holders=0b001)


def test_input_shares_counts_live_holders_only():
    engine = Engine(SharingParams(3, 1), seed=3, record_transcript=True)
    engine.fail_party(2)
    before = engine_state(engine)
    # sent to two parties, one of them failed: one live holder
    with pytest.raises(InsufficientShares):
        engine.input_shares([5, 6, 7], "sm1", holders=0b011)
    assert engine_state(engine) == before
    # sent to all three (on 4 + x): held, metered and recorded at 1 and 3 only
    with engine.phase("probe"):
        h = engine.input_shares([5, 6, 7], "sm1")
    assert engine.handle_mask(h) == 0b101
    assert engine.meter.bucket("probe").msgs_sm_to_dcc == 2
    assert engine.transcript[-1][1] == ("sm1,p1", "sm1,p3")
    assert engine.open(h) == 4


def test_input_shares_fits_only_held_shares():
    engine = Engine(SharingParams(3, 1), seed=3, record_transcript=True)
    # a party the sharing was not sent to does not hold it (on 4 + x) ...
    with engine.phase("probe"):
        h = engine.input_shares([5, 6, 7], "sm1", holders=0b101)
    assert engine.handle_mask(h) == 0b101
    assert engine.meter.bucket("probe").msgs_sm_to_dcc == 2
    assert engine.transcript[-1][1] == ("sm1,p1", "sm1,p3")
    assert engine.open(h) == 4
    # ... so it does not count toward a product's 2t+1 quorum
    before = engine_state(engine)
    with pytest.raises(InsufficientShares):
        engine.product_batch([(h, h)])
    assert engine_state(engine) == before
    # a share outside holders, or at a failed party, is not fitted or checked
    g = engine.input_shares([5, 6, 99], "sm1", holders=0b011)
    assert engine.handle_mask(g) == 0b011 and engine.open(g) == 4
    engine.fail_party(3)
    f = engine.input_shares([5, 6, 99], "sm1")
    assert engine.handle_mask(f) == 0b011 and engine.open(f) == 4


def test_delivery_links_follow_sender_and_holders():
    # interleaved deliveries: each record's links are its own sender's to
    # its own live holders, however the one before it was sent
    engine = Engine(SharingParams(3, 1), seed=3, record_transcript=True)
    sent = [("sm1", 0b111), ("sm1", 0b111), ("sm1", 0b101), ("sm2", 0b101),
            ("dealer", 0b111), ("sm1", 0b111)]
    for sender, holders in sent:
        if sender == "dealer":
            engine.input(4)
        else:
            engine.input_shares([5, 6, 7], sender, holders)
    engine.fail_party(2)
    engine.input_shares([5, 6, 7], "sm1")
    sent.append(("sm1", 0b101))

    records = engine.transcript
    assert len(records) == len(sent)
    for (sender, holders), (_, links, _) in zip(sent, records):
        assert links == tuple(f"{sender},p{i}" for i in (1, 2, 3)
                              if holders >> (i - 1) & 1)
    # one bundle's sharings share one links tuple
    assert records[0][1] is records[1][1]


def test_random_bits_are_bits(engine, rng):
    bits = engine.random_bits_batch(64)
    opened = engine.open_batch(bits)
    assert set(opened) <= {0, 1}
    assert 10 < sum(opened) < 54  # crude uniformity check


def test_random_bit_cost_two_mult_equivalents():
    engine = Engine(SharingParams(3, 1), seed=5)
    with engine.phase("probe"):
        engine.random_bits_batch(8)
    pc = engine.meter.bucket("probe")
    assert pc.random_bits == 8
    # 1 squaring product + 1 open per bit, barring zero-retries
    assert pc.mult_equivalents == 16


def test_random_bits_batch_leaves_only_its_bits(engine, monkeypatch):
    mine = [engine.input(v) for v in (3, 4)]
    # the first random element is 0, so its square opens to 0 and retries
    monkeypatch.setattr(engine.rng, "getrandbits",
                        zero_first(engine.rng.getrandbits))
    with engine.phase("probe"):
        bits = engine.random_bits_batch(5)
    pc = engine.meter.bucket("probe")
    assert pc.random_bits == 5
    assert pc.opens == 6                       # one retry
    assert set(engine.live_handles()) == set(mine + bits)
    assert engine.open_batch(mine) == [3, 4]
    assert set(engine.open_batch(bits)) <= {0, 1}


def zero_first(getrandbits):
    """``getrandbits`` that returns a zero word at its first call, without
    consuming the generator there; ``randrange`` and ``shamir.draw`` both
    draw through it, so the first field element either of them draws is 0."""
    calls = []

    def draw(k):
        calls.append(k)
        return 0 if len(calls) == 1 else getrandbits(k)

    return draw


def test_release_is_strict_and_never_reuses_numbers(engine):
    a, b = engine.input(1), engine.input(2)
    engine.release([a])
    with pytest.raises(KeyError):
        engine.release([a])                    # already released
    with pytest.raises(KeyError):
        engine.release([b + 100])              # never issued
    assert engine.live_handles() == [b]
    assert engine.input(3) == b + 1
    assert engine.open(b) == 2


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3)])
def test_engine_outputs_extend_to_any_secret(n, t):
    # criterion 8 samples the sharings still live at the end of a region,
    # which no longer include intermediates; check engine-made ones here
    p = field.PRIME
    params = SharingParams(n, t)
    engine = Engine(params, seed=n)
    rng = random.Random(n * 10 + t)
    xs = [engine.input(rng.randrange(p)) for _ in range(6)]
    made = engine.product_batch(list(zip(xs, xs[1:] + xs[:1])))
    made += engine.lincomb_batch([
        ([(rng.randrange(p), a), (1, b)], rng.randrange(p))
        for a, b in zip(made, xs)
    ])
    for h in made:
        shares = engine.export_shares(h)
        for party, value in shares.items():
            seen = Share(party, value, t)
            alt = rng.randrange(p)
            full = extend_to_secret([seen], alt, params)
            assert {s.party: s.value for s in full}[party] == value
            assert reconstruct(full) == alt


def test_fail_party_then_product_still_correct():
    engine = Engine(SharingParams(5, 1), seed=3)
    x = engine.input(6)
    y = engine.input(7)
    engine.fail_party(2)
    h = engine.product_batch([(x, y)])[0]
    assert engine.open(h) == 42
    values, mask = share_row(engine, h)
    assert values[1] is None and not mask & 0b10
    assert engine._active == 0b11101


def test_fail_party_below_quorum_raises():
    engine = Engine(SharingParams(3, 1), seed=3)
    engine.fail_party(3)
    with pytest.raises(TooManyFailures):
        engine.fail_party(2)


def test_product_without_mult_quorum_raises():
    engine = Engine(SharingParams(3, 1), seed=3)
    x, y = engine.input(2), engine.input(3)
    engine.fail_party(1)
    # 2 live parties cannot interpolate a degree-2 product polynomial
    with pytest.raises(InsufficientShares):
        engine.product_batch([(x, y)])


def test_open_after_failures(engine):
    h = engine.input(13)
    engine.fail_party(2)
    assert engine.open(h) == 13


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3)])
@pytest.mark.parametrize("failed", [None, 2])
def test_open_and_reconstruct_share_one_rule(n, t, failed):
    engine = Engine(SharingParams(n, t), seed=10 * n + t,
                    record_transcript=True)
    secrets = [0, 1, field.PRIME - 1, 123456789]
    full = [engine.input(v) for v in secrets]
    # the same secrets held by all but one party: a second holder mask
    missing = n if n - 2 >= t + 1 else 2
    part = [engine.input_shares(share_values(s, n, t, engine.rng),
                                holders=(1 << n) - 1 - (1 << (missing - 1)))
            for s in secrets]
    if failed:
        engine.fail_party(failed)

    def exported(h):
        return [Share(p, v, t) for p, v in engine.export_shares(h).items()]

    for h, v in zip(full + part, secrets * 2):
        assert reconstruct(exported(h)) == v
    # one batch across both masks comes back in handle order
    mixed = [h for pair in zip(full, part) for h in pair]
    doubled = [v for v in secrets for _ in range(2)]
    with engine.phase("mixed"):
        assert engine.open_batch(mixed) == doubled
    assert engine.opened_log[-8:] == [("mixed", "value", v) for v in doubled]
    live = [j for j in range(1, n + 1) if j != failed]
    records = engine.transcript[-8:]
    assert [h for _, _, h in records] == mixed
    for (_, links, h) in records:
        assert list(links) == [f"p{i},p{j}" for i in engine.export_shares(h)
                               for j in live if j != i]

    shares = engine.export_shares(full[2])
    if len(shares) < t + 2:
        return      # t+1 shares fit any polynomial: nothing to cross-check
    # a tampered share is refused by the recipients' rule and at intake,
    # which is where the engine checks shares
    before = engine_state(engine)
    for i in shares:
        bad = {p: (v + 1) % field.PRIME if p == i else v
               for p, v in shares.items()}
        with pytest.raises(InconsistentShares):
            reconstruct([Share(p, v, t) for p, v in bad.items()])
        with pytest.raises(InconsistentShares):
            engine.input_shares([bad.get(p, 0) for p in range(1, n + 1)])
        assert engine_state(engine) == before


def test_transcript_recording():
    engine = Engine(SharingParams(3, 1), seed=3, record_transcript=True)
    engine.product_batch([(engine.input(2, sender="sm1"),
                           engine.input(3, sender="sm1"))])
    links = [link.split(",") for _, group, _ in engine.transcript
             for link in group]
    senders = {s for s, _ in links}
    receivers = {r for _, r in links}
    assert "sm1" in senders and {"p1", "p2", "p3"} <= receivers
    # meters count exactly what the transcript shows, one share per link
    total = engine.meter.total()
    shares = sum(len(group) for _, group, _ in engine.transcript)
    assert total.bytes_sm_to_dcc + total.bytes_between_dcc == \
        shares * SHARE_BYTES


def test_meter_merge_and_matching():
    a = Engine(SharingParams(3, 1), seed=1)
    b = Engine(SharingParams(3, 1), seed=2)
    with a.phase("region_aggregation/1/imp"):
        a.product_batch([(a.input(1), a.input(1))])
    with b.phase("region_aggregation/2/imp"):
        b.product_batch([(b.input(1), b.input(1))])
    a.meter.merge(b.meter)
    assert a.meter.matching("region_aggregation").multiplications == 2
    assert a.meter.matching("region_aggregation/1").multiplications == 1
    assert a.meter.total().multiplications == 2


# -- share-exact references ---------------------------------------------------
#
# The loops below are the engine's earlier, direct forms: every sender's
# reshare polynomial evaluated at every target (with a separate t == 1
# loop), and a lincomb reducing after every term.  The engine must produce
# the very same shares and leave its random generator in the same state.
# The reshare weights come from the textbook formula, not from shamir.

def textbook_weights(xs):
    """Lagrange weights at 0 over the points ``xs``: the product of x_j /
    (x_j - x_i) over j != i, mod p, centred into (-p/2, p/2]."""
    p = field.PRIME
    out = []
    for i, xi in enumerate(xs):
        w = 1
        for j, xj in enumerate(xs):
            if j != i:
                w = w * xj * pow(xj - xi, -1, p) % p
        out.append(w - p if w > p // 2 else w)
    return tuple(out)


@pytest.mark.parametrize("n,t", [(3, 1), (5, 1), (5, 2), (7, 3)])
def test_plan_weights_match_the_textbook_formula(n, t):
    # every holder set of t+1 or more parties; the weights are over its
    # first 2t+1 holders, or all of them when it has fewer
    for q in range(1 << n):
        if q.bit_count() <= t:
            continue
        plan = abb._plan(q, (1 << n) - 1, t)
        want = textbook_weights(plan.points[: 2 * t + 1])
        expanded = [0] * len(want)
        for w, plus, minus in plan.factored:
            for s in plus:
                expanded[s] += w
            for s in minus:
                expanded[s] -= w
        assert tuple(expanded) == want


def reference_reshare(engine, pairs):
    """Per-sender degree reduction; returns (values, mask) per product."""
    n, t, p = engine.n, engine.t, field.PRIME
    active = engine._active
    rng = engine.rng
    out = []
    for ha, hb in pairs:
        av, am = share_row(engine, ha)
        bv, bm = share_row(engine, hb)
        q = am & bm & active
        senders = [i for i in range(n) if q >> i & 1][: 2 * t + 1]
        targets = [i for i in range(n) if active >> i & 1]
        lam = textbook_weights([i + 1 for i in senders])
        new = [None] * n
        for idx, i in enumerate(senders):
            d = av[i] * bv[i] % p
            w = lam[idx]
            if t == 1:
                c1 = rng.randrange(p)
                for j in targets:
                    prev = new[j]
                    contrib = w * (d + c1 * (j + 1)) % p
                    new[j] = contrib if prev is None else (prev + contrib) % p
            else:
                coeffs = [d] + [rng.randrange(p) for _ in range(t)]
                for j in targets:
                    x = j + 1
                    acc = 0
                    for c in reversed(coeffs):
                        acc = (acc * x + c) % p
                    contrib = w * acc % p
                    prev = new[j]
                    new[j] = contrib if prev is None else (prev + contrib) % p
        mask = 0
        for j in targets:
            mask |= 1 << j
        out.append((tuple(new), mask))
    return out


def reference_lincomb(engine, terms, const=0, extra=None):
    """Term-by-term affine combination; returns (values, mask).  ``extra``
    maps handles the engine does not hold to their rows."""
    n, p = engine.n, field.PRIME
    mask = (1 << n) - 1
    vals = [const % p] * n
    for coef, h in terms:
        hv, hm = extra[h] if extra and h in extra else share_row(engine, h)
        mask &= hm
        c = coef % p
        for i in range(n):
            v = hv[i]
            if v is not None:
                vals[i] = (vals[i] + c * v) % p
    return tuple(vals[i] if mask >> i & 1 else None for i in range(n)), mask


def loaded_engine(n, t, degrade, record_transcript=False):
    """Engine holding 12 sharings, optionally with a failed party or with
    sharings missing one party's share."""
    engine = Engine(SharingParams(n, t), seed=n * 100 + t,
                    record_transcript=record_transcript)
    draw = random.Random(n * 7 + t)
    handles = []
    for k in range(12):
        h = engine.input(draw.randrange(field.PRIME))
        if degrade == "gapped" and k % 2:
            h = engine.input_shares(share_row(engine, h)[0],
                                    holders=(1 << n) - 1 - (1 << k % n))
        handles.append(h)
    if degrade in ("failed", "failed3"):
        engine.fail_party(3 if degrade == "failed3" else 2)
    return engine, handles


RESHARE_CASES = [
    (3, 1, None), (5, 2, None), (7, 3, None),
    # a lost share or failed party needs a spare sender beyond 2t+1
    (5, 1, "failed"), (7, 2, "failed"), (9, 3, "failed"),
    # senders {1, 2, 4}: weights (8/3, -2, 1/3), no two of one magnitude
    (5, 1, "failed3"),
    (5, 1, "gapped"), (7, 2, "gapped"), (9, 3, "gapped"),
]


# the engine's chunk and one that cuts a round's 13 pairs into 4-pair runs,
# so runs of the "gapped" cases' groups straddle chunk boundaries
CHUNKS = (abb._CHUNK, 4)


def reshare_pairs(handles):
    pairs = [(handles[k], handles[(5 * k + 3) % 12]) for k in range(12)]
    return pairs + [(handles[0], handles[0])]


@pytest.mark.parametrize("n,t,degrade", RESHARE_CASES)
def test_product_batch_is_share_exact(n, t, degrade, monkeypatch):
    for chunk in CHUNKS:
        monkeypatch.setattr(abb, "_CHUNK", chunk)
        engine, handles = loaded_engine(n, t, degrade)
        ref, _ = loaded_engine(n, t, degrade)
        pairs = reshare_pairs(handles)

        out = engine.product_batch(pairs)
        assert [share_row(engine, h) for h in out] == \
            reference_reshare(ref, pairs)
        assert engine.rng.getstate() == ref.rng.getstate()
        for h, (ha, hb) in zip(out, pairs):
            want = engine.open(ha) * engine.open(hb) % field.PRIME
            assert engine.open(h) == want


class StoreLog(dict):
    """Handle table that remembers every number ever stored in it."""

    def __init__(self, table):
        super().__init__(table)
        self.stored = []

    def __setitem__(self, h, value):
        self.stored.append(h)
        super().__setitem__(h, value)

    def update(self, pairs):
        for h, value in pairs:
            self[h] = value


@pytest.mark.parametrize("n,t,degrade", RESHARE_CASES)
def test_product_batch_as_or_is_share_exact(n, t, degrade, monkeypatch):
    # the fused OR round against a plain round, the per-sender reshare and
    # the term-by-term merge a + b - ab it replaces
    for chunk in CHUNKS:
        monkeypatch.setattr(abb, "_CHUNK", chunk)
        engine, handles = loaded_engine(n, t, degrade, record_transcript=True)
        plain, _ = loaded_engine(n, t, degrade, record_transcript=True)
        ref, _ = loaded_engine(n, t, degrade)
        pairs = reshare_pairs(handles)
        k = len(pairs)
        first = engine._next_handle
        engine._h = StoreLog(engine._h)

        with engine.phase("probe"):
            out = engine.product_batch(pairs, as_or=True)
        with plain.phase("probe"):
            products = plain.product_batch(pairs)
        assert products == list(range(first, first + k))
        rows = dict(zip(products, reference_reshare(ref, pairs)))
        want = [reference_lincomb(ref, [(1, a), (1, b), (-1, ab)], extra=rows)
                for (a, b), ab in zip(pairs, products)]

        assert out == list(range(first + k, first + 2 * k))
        assert [share_row(engine, h) for h in out] == want
        assert engine._next_handle == first + 2 * k
        assert engine.rng.getstate() == ref.rng.getstate() \
            == plain.rng.getstate()
        # records name the products; counters match the plain round
        assert engine.transcript == plain.transcript
        assert engine.meter == plain.meter
        # no product number was ever live
        assert engine._h.stored == out
        opened = engine.open_batch(out)
        for value, (a, b) in zip(opened, pairs):
            x, y = engine.open(a), engine.open(b)
            assert value == (x + y - x * y) % field.PRIME


@pytest.mark.parametrize("where", ["first", "middle", "last", "all",
                                   "chunk edge"])
@pytest.mark.parametrize("as_or", [False, True])
@pytest.mark.parametrize("n,t,degrade", RESHARE_CASES)
def test_product_batch_redraws_words_above_prime(n, t, degrade, as_or, where,
                                                 force_rejects, monkeypatch):
    for chunk in CHUNKS:
        monkeypatch.setattr(abb, "_CHUNK", chunk)
        engine, handles = loaded_engine(n, t, degrade)
        ref, _ = loaded_engine(n, t, degrade)
        pairs = reshare_pairs(handles)
        k = len(pairs)
        step = (2 * t + 1) * t
        draws = k * step
        # the first run: the leading pairs of one holder mask, one chunk at
        # most; "chunk edge" rejects its last word and the next run's first
        masks = [engine.handle_mask(a) & engine.handle_mask(b)
                 for a, b in pairs]
        run = next((u for u, m in enumerate(masks) if m != masks[0]), k)
        edge = min(run, chunk) * step
        # raw word numbers at which the first, a middle and the last draw of
        # the round meet a word >= p; "all" and the edge count the redraws
        # before them
        at = {"first": {0}, "middle": {draws // 2}, "last": {draws - 1},
              "all": {0, draws // 2 + 1, draws + 1},
              "chunk edge": {edge - 1, edge + 1}}[where]
        force_rejects(engine.rng, at)
        force_rejects(ref.rng, at)
        first = engine._next_handle

        out = engine.product_batch(pairs, as_or=as_or)
        want = reference_reshare(ref, pairs)
        if as_or:
            products = range(first, first + k)
            rows = dict(zip(products, want))
            want = [reference_lincomb(ref, [(1, a), (1, b), (-1, ab)],
                                      extra=rows)
                    for (a, b), ab in zip(pairs, products)]
        shift = k if as_or else 0
        assert out == list(range(first + shift, first + shift + k))
        assert engine._next_handle == first + shift + k
        assert [share_row(engine, h) for h in out] == want
        assert engine.rng.getstate() == ref.rng.getstate()


def test_product_round_transients_are_bounded():
    # one 16,000-pair round at (5,2) computed whole held all its draw words
    # and columns at once, 9.0 MB above the rows it stored
    engine = Engine(SharingParams(5, 2), seed=24)
    handles = [engine.input(v) for v in range(200)]
    pairs = [(handles[u % 200], handles[7 * u % 199]) for u in range(16_000)]
    tracemalloc.start()
    try:
        out = engine.product_batch(pairs)
        stored, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 16_000
    assert peak - stored <= 2_000_000


def engine_state(engine):
    return (copy.deepcopy(engine.meter), engine._next_handle, engine._round,
            engine.rng.getstate(), list(engine.opened_log),
            list(engine.transcript), dict(engine._h))


@pytest.mark.parametrize("op", ["product", "product as_or", "product late",
                                "product late as_or", "open short",
                                "intake tampered"])
def test_refused_round_changes_nothing(op):
    engine = Engine(SharingParams(5, 2), seed=21, record_transcript=True)
    a, b = engine.input(3), engine.input(4)
    values = share_row(engine, engine.input(5))[0]
    # c is held by parties 1-3 only: enough to open, too few to multiply
    c = engine.input_shares(values, holders=0b00111)
    tampered = values[:4] + ((values[4] + 1) % field.PRIME,)
    engine.open(engine.product_batch([(a, b)])[0])
    if op == "open short":
        engine.fail_party(3)
    before = engine_state(engine)
    with engine.phase("probe"), pytest.raises((InsufficientShares,
                                               InconsistentShares)) as refused:
        if op.startswith("product"):
            # "late": the refused pair sits in the round's second chunk
            pairs = [(a, b)] * (abb._CHUNK if "late" in op else 1)
            engine.product_batch(pairs + [(a, c)], as_or=op.endswith("as_or"))
        elif op == "open short":
            engine.open_batch([a, c])
        else:
            engine.input_shares(tampered)
    if op == "open short":
        # shamir.fit_rule's refusal, word for word
        assert str(refused.value) == "degree 2 needs 3 shares, got 2"
    assert engine_state(engine) == before
    assert "probe" not in engine.meter.phases


def test_refused_lincomb_batch_changes_nothing():
    engine = Engine(SharingParams(5, 2), seed=22, record_transcript=True)
    a = engine.input(3)
    values = share_row(engine, engine.input(5))[0]
    # c and d are held by parties 1-3 and 3-5: their sum by party 3 only
    c = engine.input_shares(values, holders=0b00111)
    d = engine.input_shares(values, holders=0b11100)
    gone = engine.input(7)
    engine.release([gone])
    before = engine_state(engine)
    with engine.phase("probe"), pytest.raises(InsufficientShares):
        engine.lincomb_batch([([(1, a), (1, a)], 0), ([(1, c), (1, d)], 0)])
    assert engine_state(engine) == before
    assert engine.live_handles() == list(before[-1])

    # a refused or unreadable combination anywhere in a batch, combined
    # either way: with two others of its length a 1- or 2-term one is
    # summed as columns, with one other a 3-term one on its own
    good = {1: [([(1, a)], 0), ([(-1, c)], 1)],
            2: [([(2, a), (1, c)], 4), ([(1, a), (1, a)], 0)],
            3: [([(1, a), (5, a), (3, c)], 2)]}
    refused = [([(1, c), (1, d)], 0), ([(1, a), (1, c), (1, d)], 0)]
    for bad in refused + [([(1, gone)], 0), ([(1, a), (1, gone)], 0)]:
        same = good[len(bad[0])]
        for at in range(len(same) + 1):
            combos = same[:at] + [bad] + same[at:]
            with engine.phase("probe"), pytest.raises(
                    InsufficientShares if bad in refused else KeyError):
                engine.lincomb_batch(combos)
            assert engine_state(engine) == before, (bad, at)
    # a batch of mixed lengths is refused before any row is read, also
    # when it names a released handle
    mixed = [combo for same in good.values() for combo in same]
    for combos in (mixed, mixed + [([(1, gone)], 0)]):
        with engine.phase("probe"), pytest.raises(LengthMismatch):
            engine.lincomb_batch(combos)
        assert engine_state(engine) == before
    assert "probe" not in engine.meter.phases


@pytest.mark.parametrize("slots", [4, 6])
def test_input_shares_refuses_wrong_slot_count(slots):
    engine = Engine(SharingParams(5, 2), seed=25, record_transcript=True)
    values = share_values(9, 5, 2, random.Random(25))
    before = engine_state(engine)
    with pytest.raises(InsufficientShares, match="expected 5 share slots"):
        engine.input_shares((values + [0])[:slots])
    assert engine_state(engine) == before


def test_random_bits_below_quorum_changes_nothing():
    engine = Engine(SharingParams(5, 2), seed=23, record_transcript=True)
    engine.input(1)
    engine.fail_party(1)
    engine.fail_party(2)
    before = engine_state(engine)
    # three live parties can open but not square
    with pytest.raises(InsufficientShares):
        engine.random_bits_batch(2)
    assert engine_state(engine) == before
    assert engine.random_bits_batch(0) == []


def test_skip_handles_issues_unstored_numbers(engine):
    a = engine.input(4)
    engine.skip_handles(3)
    assert engine.live_handles() == [a]
    assert engine.input(5) == a + 4


def handle_issuers() -> set:
    """The ``Engine`` methods in ``abb.py`` that issue a handle number or
    add a row: they assign ``_next_handle`` or ``_h``, or store into
    ``_h`` by item, ``update`` or ``setdefault``, directly or through a
    local name bound to it (``shares = self._h``)."""
    tree = ast.parse(Path(abb.__file__).read_text())
    (engine,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Engine"]
    found = set()
    for method in engine.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        nodes = list(ast.walk(method))
        aliases = {target.id for node in nodes if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "_h"
                   for target in node.targets if isinstance(target, ast.Name)}

        def is_store(node):
            return (isinstance(node, ast.Attribute) and node.attr == "_h"
                    or isinstance(node, ast.Name) and node.id in aliases)

        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in (n for t in targets for n in ast.walk(t)):
                    if (isinstance(target, ast.Attribute)
                            and target.attr in ("_next_handle", "_h")
                            or isinstance(target, ast.Subscript)
                            and is_store(target.value)):
                        found.add(method.name)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("update", "setdefault")
                  and is_store(node.func.value)):
                found.add(method.name)
    return found


def test_only_the_registration_helpers_issue_handles():
    # one admission path for delivered sharings, one store for computed
    # batches, and the unstored numbers of skip_handles
    assert handle_issuers() == {"__init__", "_store", "_admit", "skip_handles"}


def reference_random_bits(engine, k):
    """The earlier form of ``random_bits_batch``: one lincomb and one
    inversion per bit."""
    out = [None] * k
    pending = list(range(k))
    p = field.PRIME
    inv2 = pow(2, -1, p)
    pc = engine.meter.bucket(engine.current_phase)
    while pending:
        rs = []
        for _ in pending:
            r = engine.rng.randrange(p)
            # the coefficients share_values draws after the secret
            coeffs = [engine.rng.randrange(p) for _ in range(engine.t)]
            rs += engine._store([(r, *coeffs, engine._active)], 1)
        squares = engine.product_batch([(h, h) for h in rs])
        opened = engine.open_batch(squares, kind="rand")
        retry = []
        for slot, hr, sq in zip(pending, rs, opened):
            if sq == 0:
                retry.append(slot)
                continue
            root = field.sqrt(sq)
            coef = pow(2 * root % p, -1, p)
            out[slot] = engine.lincomb([(coef, hr)], const=inv2)
            pc.random_bits += 1
        engine.release(rs)
        engine.release(squares)
        pending = retry
    return out


def assert_random_bits_match_reference(n, t, failed, steer):
    """Nine bits from ``random_bits_batch`` and from the reference, on two
    engines whose generators ``steer`` has patched alike; returns the
    engine's meter."""
    def make():
        engine = Engine(SharingParams(n, t), seed=40 + n)
        for v in (3, 4):
            engine.input(v)
        if failed:
            engine.fail_party(2)
        steer(engine.rng)
        return engine

    engine, ref = make(), make()
    with engine.phase("bits"):
        out = engine.random_bits_batch(9)
    with ref.phase("bits"):
        want = reference_random_bits(ref, 9)
    assert out == want
    assert list(engine._h.items()) == list(ref._h.items())
    assert engine._next_handle == ref._next_handle
    assert engine.rng.getstate() == ref.rng.getstate()
    assert engine.meter == ref.meter
    assert engine.opened_log == ref.opened_log
    return engine.meter


@pytest.mark.parametrize("retry", [False, True])
@pytest.mark.parametrize("n,t,failed", [(3, 1, False), (5, 1, True)])
def test_random_bits_batch_is_share_exact(n, t, failed, retry):
    def steer(rng):
        if retry:
            # the first random element is 0, so its square opens to 0
            rng.getrandbits = zero_first(rng.getrandbits)

    meter = assert_random_bits_match_reference(n, t, failed, steer)
    assert meter.bucket("bits").opens == (10 if retry else 9)


@pytest.mark.parametrize("n,t,failed", [(3, 1, False), (5, 1, True),
                                        (5, 2, False)])
def test_random_bits_batch_redraws_words_above_prime(n, t, failed,
                                                     force_rejects):
    # words >= p at the two draws after the fifth element's r, which
    # randrange redraws in turn and the one-list draw drops and tops up,
    # and at the second top-up word, which the top-up loop redraws itself
    width = t + 1
    at = {4 * width + 1, 4 * width + 2, 9 * width + 1}
    meter = assert_random_bits_match_reference(
        n, t, failed, lambda rng: force_rejects(rng, at))
    assert meter.bucket("bits").opens == 9


def coefficients(kind, draw):
    p = field.PRIME
    if kind == "unit":
        return lambda: 1
    if kind == "minus":
        return lambda: -1
    if kind == "near p":
        # each is 1, -1 or 2 in the field but not the integer 1
        return lambda: draw.choice([p + 1, p - 1, 2 * p + 2, p + 2])
    return lambda: draw.choice([1, -1, 2, 0, draw.randrange(p)])


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3)])
@pytest.mark.parametrize("degrade", [None, "gapped", "failed"])
@pytest.mark.parametrize("arity", [0, 1, 2, 3, 8, "mixed"])
@pytest.mark.parametrize("kind", ["unit", "minus", "mixed", "near p"])
def test_columnar_lincomb_is_share_exact(n, t, degrade, arity, kind,
                                         monkeypatch):
    # ten combinations of one arity take the columns; a batch of mixed
    # arities is refused before any row is read
    engine, handles = loaded_engine(n, t, degrade, record_transcript=True)
    if degrade == "gapped":
        # one sharing lacks a share, so the combinations' masks differ
        handles = handles[:2] + handles[2::2]
    draw = random.Random(f"{n}{t}{degrade}{arity}{kind}")
    coef = coefficients(kind, draw)
    arities = [0, 1, 2, 3, 8, 1, 2, 2, 0, 1] if arity == "mixed" else [arity] * 10
    combos = []
    for k in arities:
        terms = [(coef(), draw.choice(handles)) for _ in range(k)]
        if kind == "unit":
            const = 0
        elif kind == "minus":
            const = 1
        else:
            const = draw.choice([0, 7, -3, field.PRIME - 1,
                                 draw.randrange(field.PRIME)])
        combos.append((terms, const))
    if arity == "mixed":
        before = engine_state(engine)
        with pytest.raises(LengthMismatch):
            engine.lincomb_batch(combos)
        assert engine_state(engine) == before
        return
    want = [reference_lincomb(engine, terms, const) for terms, const in combos]
    products = []
    real_mul = abb.mul

    def counting_mul(x, y):
        products.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(abb, "mul", counting_mul)
    first = engine._next_handle
    out = engine.lincomb_batch(combos)
    assert out == list(range(first, first + len(combos)))
    assert engine._next_handle == first + len(combos)
    assert [share_row(engine, h) for h in out] == want
    for h in out:
        row = engine._h[h]
        assert type(row) is tuple and len(row) == t + 2
        assert all(0 <= c < field.PRIME for c in row[:-1])
    # every coefficient exactly 1: bare columns, no multiplication
    assert bool(products) == (kind != "unit" and arity != 0)


@pytest.mark.parametrize("n,t,degrade", RESHARE_CASES)
@pytest.mark.parametrize("n_terms", [0, 1, 3, 1000])
def test_lincomb_is_share_exact(n, t, degrade, n_terms):
    engine, handles = loaded_engine(n, t, degrade)
    draw = random.Random(n_terms)
    if degrade == "gapped":
        # two gapped sharings leave too few holders for t = 3 at n = 9
        handles = handles[:2] + handles[2::2]
    terms = [
        (draw.choice([1, -1, 2, draw.randrange(field.PRIME)]),
         handles[draw.randrange(len(handles))])
        for _ in range(n_terms)
    ]
    const = draw.randrange(-5, field.PRIME)
    want = reference_lincomb(engine, terms, const)
    assert share_row(engine, engine.lincomb(terms, const)) == want
    batch = engine.lincomb_batch([(terms, const), (terms[::-1], 0)])
    assert share_row(engine, batch[0]) == want
    assert share_row(engine, batch[1]) == reference_lincomb(engine, terms)


@pytest.mark.parametrize("n,t,degrade", RESHARE_CASES)
def test_unit_sums_are_share_exact(n, t, degrade, monkeypatch):
    engine, handles = loaded_engine(n, t, degrade)
    if degrade == "gapped":
        handles = handles[:2] + handles[2::2]
    products = []
    real_mul = abb.mul

    def counting_mul(x, y):
        products.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(abb, "mul", counting_mul)
    p = field.PRIME
    terms = [(1, h) for h in handles + handles[:3]]
    for const in (0, 12345, -1):
        want = reference_lincomb(engine, terms, const)
        assert share_row(engine, engine.lincomb(terms, const)) == want
    assert not products  # every coefficient is 1: a bare column sum
    # p + 1 is 1 in the field but not the integer 1, so it multiplies
    near = [(p + 1, h) for _, h in terms]
    want = reference_lincomb(engine, terms, 7)
    assert share_row(engine, engine.lincomb(near, 7)) == want
    assert products


def test_every_stored_row_is_a_tuple(engine5):
    # one flat tuple of plain ints, whatever made the sharing: t+1
    # coefficients reduced mod p, then the holder mask
    e = engine5
    a, b, c = e.input(3), e.input(4), e.input(5)
    values = e.export_shares(a)
    gapped = e.input_shares(list(values.values()), holders=0b01101)
    stored = {
        "input": a,
        "input_shares gapped": gapped,
        "input_shares list": e.input_shares(list(values.values())),
        "constant": e.constant(7),
        "lincomb 1 term": e.lincomb([(2, a)], 1),
        "lincomb 2 terms": e.lincomb([(2, a), (3, b)]),
        "lincomb unit": e.lincomb([(1, a), (1, b), (1, c)]),
        "lincomb general": e.lincomb([(2, a), (3, gapped)]),
        "product_batch": e.product_batch([(a, b)])[0],
        "product_batch as_or": e.product_batch([(a, b)], as_or=True)[0],
        "random_bits_batch": e.random_bits_batch(1)[0],
    }
    for path, h in stored.items():
        row = e._h[h]
        assert type(row) is tuple and len(row) == e.t + 2, path
        assert all(type(v) is int for v in row), path
        assert all(0 <= c < field.PRIME for c in row[:-1]), path
        assert row[-1] == e.handle_mask(h), path


def test_lincomb_batch_registers_in_order(engine):
    a, b = engine.input(4), engine.input(9)
    first = engine.lincomb([(1, a)])
    out = engine.lincomb_batch([([(1, a), (1, b)], 0), ([(3, b), (0, a)], 1),
                                ([(0, a), (0, b)], 5)])
    assert out == [first + 1, first + 2, first + 3]
    assert engine.open_batch(out) == [13, 28, 5]
    assert engine.lincomb_batch([]) == []


def test_lincomb_below_quorum_raises(engine5):
    full = engine5.input(3)
    values = list(engine5.export_shares(full).values())
    left = engine5.input_shares(values, holders=0b00111)
    right = engine5.input_shares(values, holders=0b11100)
    with pytest.raises(InsufficientShares):
        engine5.lincomb([(1, left), (1, right)])


@pytest.mark.parametrize("batch", [False, True])
def test_lincomb_counts_live_holders_only(batch):
    # a is held by parties 1 and 2; once party 2 fails it lives at party 1
    # alone, which fixes no line, so no combination of it may be stored
    engine = Engine(SharingParams(3, 1), seed=23, record_transcript=True)
    a = engine.input_shares([5, 6, 7], holders=0b011)
    b = engine.input(7)
    engine.fail_party(2)
    combos = [([(2, a)], 1)]
    if batch:
        combos = [([(1, b)], 0)] + combos + [([(3, a)], 0)]
    before = engine_state(engine)
    with engine.phase("probe"), pytest.raises(InsufficientShares):
        engine.lincomb_batch(combos)
    assert engine_state(engine) == before
    assert "probe" not in engine.meter.phases
    # the stored mask is left as it is: b still lists the failed party
    assert engine.handle_mask(b) == 0b111
    assert engine.handle_mask(engine.lincomb([(1, b)], 0)) == 0b111


# -- fuzz: random engine circuits against the plaintext circuit ------------

FUZZ_PARAMS = [(3, 1), (5, 2), (7, 3), (5, 1), (7, 2)]
P = field.PRIME
coefs = st.one_of(st.integers(-3, 3), st.integers(0, P - 1))
slots = st.integers(0, 10 ** 6)
fuzz_ops = st.lists(st.one_of(
    st.tuples(st.just("input"), st.integers(0, P - 1)),
    st.tuples(st.just("input_shares"), st.integers(0, P - 1),
              st.sets(st.integers(1, 7), max_size=2)),
    st.tuples(st.just("lincomb"),
              st.lists(st.tuples(coefs, slots), max_size=4), coefs),
    st.tuples(st.just("lincomb_batch"),
              st.lists(st.tuples(st.lists(st.tuples(coefs, slots), max_size=4),
                                 coefs), max_size=4)),
    st.tuples(st.just("product_batch"),
              st.lists(st.tuples(slots, slots), min_size=1, max_size=5)),
    st.tuples(st.just("open_batch"), st.lists(slots, min_size=1, max_size=4)),
), min_size=4, max_size=25)


def share_values_for(value, n, t, seed):
    """A valid degree-t sharing of ``value`` drawn outside the engine."""
    poly = [value] + [random.Random(seed + value).randrange(P) for _ in range(t)]
    return [sum(c * x ** k for k, c in enumerate(poly)) % P
            for x in range(1, n + 1)]


@settings(max_examples=150, deadline=None, database=None)
@given(params=st.sampled_from(FUZZ_PARAMS), ops=fuzz_ops,
       fail=st.none() | st.tuples(st.integers(0, 25), st.integers(1, 7)),
       seed=st.integers(0, 2 ** 32))
def test_fuzz_engine_circuits_match_plaintext(params, ops, fail, seed):
    n, t = params
    if fail is not None:
        ops = list(ops)
        ops.insert(min(fail[0], len(ops)), ("fail_party", fail[1]))
    engine = Engine(SharingParams(n, t), seed=seed)
    full = (1 << n) - 1
    active = full
    # plaintext model: handle -> (value, mask of parties holding a share)
    plain: dict = {}
    handles: list = []
    products = batches = opens = 0

    def pick(slot):
        return handles[slot % len(handles)]

    def combine(terms, const):
        value, mask = const, full
        for c, h in terms:
            value += c * plain[h][0]
            mask &= plain[h][1]
        return value % P, mask

    for op, *args in ops:
        # a sharing is delivered to, and held by, live parties only
        if op == "input":
            h = engine.input(args[0])
            plain[h] = (args[0], active)
        elif op == "input_shares":
            value, lost = args
            mask = full
            for party in lost:
                mask &= ~(1 << (party - 1))
            values = share_values_for(value, n, t, seed)
            if (mask & active).bit_count() < t + 1:
                with pytest.raises(InsufficientShares):
                    engine.input_shares(values, holders=mask)
                continue
            h = engine.input_shares(values, holders=mask)
            plain[h] = (value, mask & active)
        elif not handles:
            continue
        elif op in ("lincomb", "lincomb_batch"):
            combos = [args] if op == "lincomb" else args[0]
            combos = [([(c, pick(s)) for c, s in terms], const)
                      for terms, const in combos]
            if len({len(terms) for terms, _ in combos}) > 1:
                with pytest.raises(LengthMismatch):
                    engine.lincomb_batch(combos)
                continue
            want = [combine(terms, const) for terms, const in combos]
            if any((m & active).bit_count() < t + 1 for _, m in want):
                with pytest.raises(InsufficientShares):
                    engine.lincomb_batch(combos)
                continue
            if op == "lincomb":
                got = [engine.lincomb(*combos[0])]
            else:
                got = engine.lincomb_batch(combos)
            plain.update(zip(got, want))
        elif op == "product_batch":
            pairs = [
                (pick(a), pick(b)) for a, b in args[0]
                if (plain[pick(a)][1] & plain[pick(b)][1]
                    & active).bit_count() >= 2 * t + 1
            ]
            if not pairs:
                continue
            got = engine.product_batch(pairs)
            for h, (a, b) in zip(got, pairs):
                plain[h] = (plain[a][0] * plain[b][0] % P, active)
            products += len(pairs)
            batches += 1
        elif op == "open_batch":
            hs = [pick(s) for s in args[0]
                  if (plain[pick(s)][1] & active).bit_count() >= t + 1]
            if not hs:
                continue
            assert engine.open_batch(hs) == [plain[h][0] for h in hs]
            opens += len(hs)
            batches += 1
        elif op == "fail_party":
            party = args[0]
            if party > n:
                continue
            bit = 1 << (party - 1)
            if active & bit and (active & ~bit).bit_count() < t + 1:
                with pytest.raises(TooManyFailures):
                    engine.fail_party(party)
                continue
            engine.fail_party(party)
            active &= ~bit
        handles = sorted(plain)

    readable = [h for h in handles if (plain[h][1] & active).bit_count() >= t + 1]
    if readable:
        assert engine.open_batch(readable) == [plain[h][0] for h in readable]
        opens += len(readable)
        batches += 1
    total = engine.meter.total()
    assert total.multiplications == products
    assert total.opens == opens
    assert total.rounds == batches
