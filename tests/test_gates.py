"""Circuit layer: equality tests, exchange networks, oblivious shuffles."""

import itertools
import random

import pytest

from metershare.abb import Engine
from metershare.errors import LengthMismatch
from metershare.gates import (
    compose_bits,
    equals_public,
    equals_public_batch,
    exchange_gate,
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
                h = equals_public(engine, bits, y, width)
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
    for _ in range(20):
        v = rng.randrange(1 << 8)
        h = compose_bits(engine, input_bits(engine, v, 8))
        assert engine.open(h) == v


def test_exchange_gate_swaps_on_control():
    engine = Engine(SharingParams(3, 1), seed=4)
    a = (engine.input(10), engine.input(100))
    b = (engine.input(20), engine.input(200))
    keep = exchange_gate(engine, a, b, engine.input(0))
    swap = exchange_gate(engine, a, b, engine.input(1))
    assert [engine.open(h) for h in keep[0]] == [10, 100]
    assert [engine.open(h) for h in keep[1]] == [20, 200]
    assert [engine.open(h) for h in swap[0]] == [20, 200]
    assert [engine.open(h) for h in swap[1]] == [10, 100]


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
    assert exchange_layers(0) == []
    assert exchange_layers(1) == []
    assert sum(len(l) for l in exchange_layers(2)) == 1


def test_oblivious_permute_preserves_multiset(rng):
    engine = Engine(SharingParams(3, 1), seed=21)
    vals = [(rng.randrange(50), rng.randrange(10 ** 6)) for _ in range(9)]
    rows = [tuple(engine.input(v) for v in pair) for pair in vals]
    out = oblivious_permute(engine, rows)
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
        out = oblivious_permute(engine, rows)
        opened = [engine.open(r[0]) for r in out]
        landed.add(opened.index(0))
        if landed == {0, 1, 2, 3}:
            break
    assert landed == {0, 1, 2, 3}


def test_oblivious_permute_dedicated_rng_is_deterministic():
    def run(seed):
        engine = Engine(SharingParams(3, 1), seed=77)
        rows = [(engine.input(i),) for i in range(6)]
        out = oblivious_permute(engine, rows, rng=random.Random(seed))
        return [engine.open(r[0]) for r in out]

    assert run(5) == run(5)
    found_different = any(run(5) != run(other) for other in range(6, 26))
    assert found_different


def test_oblivious_permute_rejects_ragged_rows():
    engine = Engine(SharingParams(3, 1), seed=1)
    rows = [(engine.input(1),), (engine.input(2), engine.input(3))]
    with pytest.raises(LengthMismatch):
        oblivious_permute(engine, rows)


def test_oblivious_permute_single_row_noop():
    engine = Engine(SharingParams(3, 1), seed=1)
    rows = [(engine.input(5),)]
    assert oblivious_permute(engine, rows) == rows
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


def test_equals_public_batch_in_flight_bound(rng):
    width, n_queries = 8, 12
    engine = Engine(SharingParams(3, 1), seed=32)
    queries = [(input_bits(engine, rng.randrange(1 << width), width),
                (1 << width) - 1 if q % 2 else rng.randrange(1 << width))
               for q in range(n_queries)]
    caller = len(engine.live_handles())
    inner = engine.product_batch
    in_flight = []

    def counting(pairs):
        in_flight.append(len(engine.live_handles()) - caller)
        return inner(pairs)

    engine.product_batch = counting
    equals_public_batch(engine, queries, width)
    assert len(in_flight) == 4                 # one call per fold level
    # one level's nodes plus the shared zero; keeping every level alive
    # would reach 14 per query by the last level
    assert max(in_flight) <= n_queries * (width + 1) + 1


@pytest.mark.parametrize("dedicated", [False, True])
def test_oblivious_permute_leaves_only_output_rows(dedicated):
    engine = Engine(SharingParams(3, 1), seed=33)
    rows = [tuple(engine.input(v) for v in (i, 100 + i)) for i in range(7)]
    caller = engine.live_handles()
    rng = random.Random(5) if dedicated else None
    out = oblivious_permute(engine, rows, rng=rng)
    made = [h for row in out for h in row]
    assert sorted(engine.live_handles()) == sorted(caller + made)
    assert sorted(engine.open_batch(caller)) == sorted(
        v for i in range(7) for v in (i, 100 + i))
