"""Circuit layer: equality tests, exchange networks, oblivious shuffles."""

import itertools
import random

from conftest import share_row
import pytest

from metershare.abb import Engine
from metershare.errors import LengthMismatch
from metershare.gates import (
    compose_bits_batch,
    equals_public_batch,
    exchange_layers,
    oblivious_permute,
)
from metershare.shamir import SharingParams


def input_bits(engine, value, width):
    # most significant bit first, matching the composer
    return [engine.input(value >> (width - 1 - k) & 1) for k in range(width)]


def test_equality_exhaustive_small_width():
    width = 4
    for x in range(1 << width):
        for y in range(1 << width):
            engine = Engine(SharingParams(3, 1), seed=x * 16 + y)
            bits = input_bits(engine, x, width)
            with engine.phase("eq"):
                h = equals_public_batch(engine, [(bits, y)], width)[0]
            assert engine.open(h) == (1 if x == y else 0)
            pc = engine.meter.bucket("eq")
            assert pc.multiplications == width
            # fold tree of width+1 leaves
            assert pc.rounds == (width + 1 - 1).bit_length()


def test_equality_batch_matches_singles(rng):
    width = 8
    engine = Engine(SharingParams(3, 1), seed=7)
    queries = []
    want = []
    for _ in range(40):
        x, y = rng.randrange(1 << width), rng.randrange(1 << width)
        queries.append((input_bits(engine, x, width), y))
        want.append(1 if x == y else 0)
    with engine.phase("eq"):
        out = equals_public_batch(engine, queries, width)
    assert engine.open_batch(out) == want
    pc = engine.meter.bucket("eq")
    assert pc.multiplications == 40 * width
    assert pc.rounds == 4  # levels are batched across queries


def test_compose_bits(rng):
    engine = Engine(SharingParams(3, 1), seed=9)
    values = [rng.randrange(1 << 8) for _ in range(20)]
    hs = compose_bits_batch(engine, [input_bits(engine, v, 8) for v in values])
    assert engine.open_batch(hs) == values


def test_exchange_layers_known_size():
    layers = exchange_layers(8)
    assert sum(len(l) for l in layers) == 19
    # layers never touch a wire twice, so each shares one round
    for layer in layers:
        wires = list(itertools.chain.from_iterable(layer))
        assert len(wires) == len(set(wires))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_exchange_layers_sort_binary_inputs(m):
    """Zero-one principle: a comparator net sorting all 0/1 vectors sorts."""
    layers = exchange_layers(m)
    for bits in range(1 << m):
        v = [(bits >> i) & 1 for i in range(m)]
        for layer in layers:
            for a, b in layer:
                if v[a] > v[b]:
                    v[a], v[b] = v[b], v[a]
        assert v == sorted(v), f"m={m} input={bits:0{m}b}"


def test_exchange_layers_trivial_sizes():
    assert exchange_layers(0) == ()
    assert exchange_layers(1) == ()
    assert sum(len(l) for l in exchange_layers(2)) == 1


def test_oblivious_permute_preserves_multiset(rng):
    engine = Engine(SharingParams(3, 1), seed=21)
    vals = [(rng.randrange(50), rng.randrange(10 ** 6)) for _ in range(9)]
    rows = [tuple(engine.input(v) for v in pair) for pair in vals]
    out = oblivious_permute(engine, rows, setup_phase="perm_setup")
    opened = [tuple(engine.open(h) for h in row) for row in out]
    assert sorted(opened) == sorted(vals)


def test_oblivious_permute_cost_accounting():
    engine = Engine(SharingParams(3, 1), seed=22)
    rows = [tuple(engine.input(v) for v in (i, i)) for i in range(8)]
    with engine.phase("perm"):
        oblivious_permute(engine, rows, setup_phase="perm_setup")
    perm = engine.meter.bucket("perm")
    setup = engine.meter.bucket("perm_setup")
    assert perm.exchange_gates == 19
    assert perm.multiplications == 19 * 2      # one product per stream
    assert setup.random_bits == 19
    assert perm.opens == 0                     # bit opens live in setup
    assert setup.opens >= 19


def test_oblivious_permute_hits_every_position():
    # over many seeds the first input must reach every output slot
    landed = set()
    for seed in range(60):
        engine = Engine(SharingParams(3, 1), seed=seed)
        rows = [(engine.input(i),) for i in range(4)]
        out = oblivious_permute(engine, rows, setup_phase="perm_setup")
        opened = [engine.open(r[0]) for r in out]
        landed.add(opened.index(0))
        if landed == {0, 1, 2, 3}:
            break
    assert landed == {0, 1, 2, 3}


def test_oblivious_permute_draws_from_the_engine_seed():
    # the engine's rng is the one source of the control bits: one seed
    # opens one order and leaves one generator state
    def run(seed):
        engine = Engine(SharingParams(3, 1), seed=seed)
        rows = [(engine.input(i),) for i in range(6)]
        out = oblivious_permute(engine, rows, setup_phase="perm_setup")
        return [engine.open(r[0]) for r in out], engine.rng.getstate()

    order, state = run(5)
    assert run(5) == (order, state)
    assert any(run(other)[0] != order for other in range(6, 26))


def test_oblivious_permute_rejects_ragged_rows():
    engine = Engine(SharingParams(3, 1), seed=1)
    rows = [(engine.input(1),), (engine.input(2), engine.input(3))]
    with pytest.raises(LengthMismatch):
        oblivious_permute(engine, rows, setup_phase="perm_setup")


def test_oblivious_permute_single_row_noop():
    engine = Engine(SharingParams(3, 1), seed=1)
    rows = [(engine.input(5),)]
    assert oblivious_permute(engine, rows, setup_phase="perm_setup") == rows
    assert engine.live_handles() == [rows[0][0]]


# -- handle lifetime: a gate leaves only its outputs newly live -------------

def test_equals_public_batch_leaves_only_outputs(rng):
    width = 6
    engine = Engine(SharingParams(3, 1), seed=31)
    queries = [(input_bits(engine, rng.randrange(1 << width), width), y)
               for y in (0, 5, (1 << width) - 1, 42)]
    caller = engine.live_handles()
    out = equals_public_batch(engine, queries, width)
    assert engine.live_handles() == caller + out
    assert set(engine.open_batch(caller)) <= {0, 1}


@pytest.mark.parametrize("n_bits,public_id", [(3, 5), (5, 5), (4, 16),
                                              (4, 1 << 40)])
def test_equals_public_batch_refuses_before_registering(n_bits, public_id):
    # a wrong bit count, or a public ID of width bits or more, refuses the
    # whole batch before its zero or any complement is registered
    width = 4
    engine = Engine(SharingParams(3, 1), seed=32, record_transcript=True)
    queries = [(input_bits(engine, 9, width), 9),
               (input_bits(engine, 5, n_bits), public_id)]
    before = (engine._next_handle, engine.live_handles(),
              list(engine.transcript), engine.rng.getstate())
    with pytest.raises(LengthMismatch):
        equals_public_batch(engine, queries, width)
    assert (engine._next_handle, engine.live_handles(),
            list(engine.transcript), engine.rng.getstate()) == before


def test_equals_public_batch_in_flight_bound(rng):
    # live gate-made handles at each level's product round: width 8 carries
    # a leaf column through three levels, width 5 a made column, and width
    # 6 a leaf column that pairs at level 1
    n_queries = 12
    for width, want in ((8, [67, 55, 31, 19]), (5, [47, 36, 24]),
                        (6, [55, 47, 24])):
        engine = Engine(SharingParams(3, 1), seed=32)
        queries = [(input_bits(engine, rng.randrange(1 << width), width),
                    (1 << width) - 1 if q % 2 else rng.randrange(1 << width))
                   for q in range(n_queries)]
        caller = len(engine.live_handles())
        inner = engine.product_batch
        in_flight = []

        def counting(pairs, **kwargs):
            in_flight.append(len(engine.live_handles()) - caller)
            return inner(pairs, **kwargs)

        engine.product_batch = counting
        equals_public_batch(engine, queries, width)
        assert len(in_flight) == width.bit_length()  # one call per level
        # one level's nodes plus the shared zero; keeping every level alive
        # would reach 14 per query by the last level at width 8
        assert max(in_flight) <= n_queries * (width + 1) + 1
        assert in_flight == want


def test_oblivious_permute_leaves_only_output_rows():
    engine = Engine(SharingParams(3, 1), seed=33)
    rows = [tuple(engine.input(v) for v in (i, 100 + i)) for i in range(7)]
    caller = engine.live_handles()
    out = oblivious_permute(engine, rows, setup_phase="perm_setup")
    made = [h for row in out for h in row]
    assert sorted(engine.live_handles()) == sorted(caller + made)
    assert sorted(engine.open_batch(caller)) == sorted(
        v for i in range(7) for v in (i, 100 + i))


# -- share-exact reference: the earlier per-gate exchange loop --------------

def reference_permute(engine, rows, setup_phase):
    """The earlier form of ``oblivious_permute``: three lincombs per gate
    and stream, b' formed as a + b - a'."""
    layers = exchange_layers(len(rows))
    n_gates = sum(len(layer) for layer in layers)
    with engine.phase(setup_phase):
        bits = engine.random_bits_batch(n_gates)
    mark = min(bits)
    engine.meter.bucket(engine.current_phase).exchange_gates += n_gates
    rows = list(rows)
    used = 0
    streams = len(rows[0])
    for layer in layers:
        ctrls = bits[used:used + len(layer)]
        used += len(layer)
        deltas = []
        for (a, b), c in zip(layer, ctrls):
            for s in range(streams):
                deltas.append((c, engine.lincomb(
                    [(1, rows[b][s]), (-1, rows[a][s])]
                )))
        moved = engine.product_batch(deltas)
        replaced = []
        for gi, (a, b) in enumerate(layer):
            ra, rb = rows[a], rows[b]
            na, nb = [], []
            for s in range(streams):
                m = moved[gi * streams + s]
                ha = engine.lincomb([(1, ra[s]), (1, m)])
                na.append(ha)
                nb.append(engine.lincomb([(1, ra[s]), (1, rb[s]), (-1, ha)]))
            rows[a] = tuple(na)
            rows[b] = tuple(nb)
            replaced += ra + rb
        engine.release(d for _, d in deltas)
        engine.release(moved)
        engine.release(ctrls)
        engine.release(h for h in replaced if h >= mark)
    return rows


@pytest.mark.parametrize("n,t,failed", [(3, 1, False), (5, 1, True)])
def test_oblivious_permute_is_share_exact(n, t, failed):
    def make():
        engine = Engine(SharingParams(n, t), seed=50 + n)
        rows = [tuple(engine.input(v) for v in (i, 100 + i)) for i in range(9)]
        if failed:
            engine.fail_party(2)
        return engine, rows

    (engine, rows), (ref, ref_rows) = make(), make()
    with engine.phase("perm"):
        out = oblivious_permute(engine, rows, setup_phase="perm_setup")
    with ref.phase("perm"):
        want = reference_permute(ref, ref_rows, "perm_setup")
    assert out == want
    assert list(engine._h.items()) == list(ref._h.items())
    assert engine._next_handle == ref._next_handle
    assert engine.rng.getstate() == ref.rng.getstate()
    assert engine.meter == ref.meter
    assert engine.meter.bucket("perm").exchange_gates > 0



# -- share-exact reference: the earlier per-query equality gate -------------

def reference_equals(engine, queries, width):
    """The earlier form of ``equals_public_batch``: a node list per query
    and one flipped row per (query, set bit)."""
    zero = mark = engine.constant(0)
    flipped = iter(engine.lincomb_batch([
        ([(-1, bh)], 1)
        for bits, public_id in queries
        for k, bh in enumerate(bits)
        if public_id >> (width - 1 - k) & 1
    ]))
    nodes = [
        [zero] + [
            next(flipped) if public_id >> (width - 1 - k) & 1 else bh
            for k, bh in enumerate(bits)
        ]
        for bits, public_id in queries
    ]
    size = width + 1
    while size > 1:
        half = size // 2
        pairs = [pair for lst in nodes
                 for pair in zip(lst[0:2 * half:2], lst[1:2 * half:2])]
        merged = engine.product_batch(pairs, as_or=True)
        nodes = [merged[qi * half:(qi + 1) * half] + lst[2 * half:]
                 for qi, lst in enumerate(nodes)]
        size -= half
        engine.release({h for pair in pairs for h in pair if h >= mark})
    out = engine.lincomb_batch([([(-1, lst[0])], 1) for lst in nodes])
    engine.release({lst[0] for lst in nodes})
    return out


def equality_case(n, t, width, case):
    """An engine and naa-style queries: every meter's bits against several
    public IDs, plus queries that reuse bit handles at other positions.

    "partial" runs at n = 2t+3 and holds one meter at 2t+1 servers only.
    """
    if case == "partial":
        n += 2
    engine = Engine(SharingParams(n, t), seed=60 + 10 * n + width,
                    record_transcript=True)
    draw = random.Random(width * 31 + n)
    meters = [input_bits(engine, draw.randrange(1 << width), width)
              for _ in range(3)]
    if case == "partial":
        gapped = []
        for bh in meters[1]:
            gapped.append(engine.input_shares(share_row(engine, bh)[0],
                                              holders=(1 << (2 * t + 1)) - 1))
        meters[1] = gapped
    ids = sorted({0, (1 << width) - 1, *(draw.randrange(1 << width)
                                          for _ in range(3))})
    queries = [(bits, u) for bits in meters for u in ids]
    if width:
        # a meter's bits in reverse order, and one bit in every position
        queries.append((meters[0][::-1], ids[-1]))
        queries.append(([meters[2][0]] * width, draw.randrange(1 << width)))
    return engine, queries


@pytest.mark.parametrize("case", ["shared", "partial", "rejects"])
@pytest.mark.parametrize("width", [0, 1, 2, 5, 6, 8, 10])
@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3)])
def test_equals_public_batch_is_share_exact(n, t, width, case,
                                            force_rejects):
    engine, queries = equality_case(n, t, width, case)
    ref, ref_queries = equality_case(n, t, width, case)
    if case == "rejects":
        # two words of the first level's draws are >= p
        force_rejects(engine.rng, {0, 4})
        force_rejects(ref.rng, {0, 4})

    with engine.phase("eq"):
        out = equals_public_batch(engine, queries, width)
    with ref.phase("eq"):
        want = reference_equals(ref, ref_queries, width)
    assert out == want
    assert list(engine._h.items()) == list(ref._h.items())
    assert engine._next_handle == ref._next_handle
    assert engine.rng.getstate() == ref.rng.getstate()
    assert engine.meter == ref.meter
    assert engine.transcript == ref.transcript
    opened = [engine.open_batch(bits) for bits, _ in queries]
    assert engine.open_batch(out) == [
        int(sum(b << (width - 1 - k) for k, b in enumerate(bits)) == u)
        for bits, (_, u) in zip(opened, queries)
    ]


def test_equals_public_batch_one_complement_per_bit():
    # naa's shape: every supplier's query for a meter reuses its bit handles
    width = 8
    engine = Engine(SharingParams(3, 1), seed=34)
    meters = [input_bits(engine, v, width) for v in (3, 200, 77)]
    suppliers = [1, 2, 3, 5, 129, 255]
    caller = len(engine.live_handles())
    flipped = {bh for bits in meters for u in suppliers
               for k, bh in enumerate(bits) if u >> (width - 1 - k) & 1}
    inner = engine.product_batch
    in_flight = []

    def counting(pairs, **kwargs):
        in_flight.append(len(engine.live_handles()) - caller)
        return inner(pairs, **kwargs)

    engine.product_batch = counting
    equals_public_batch(engine, [(bits, u) for bits in meters
                                 for u in suppliers], width)
    # the shared zero and one complement per distinct flipped bit, against
    # one row per (query, set bit), 3 * 16 of them, before
    assert in_flight[0] == 1 + len(flipped) == 1 + 3 * 8
