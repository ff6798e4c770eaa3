"""Region algorithms against the plaintext group-by oracle."""

import copy
import gc
import random

import pytest

from metershare import aggregation, cli, field
from metershare.abb import Engine
from metershare.aggregation import (
    STREAMS,
    MeterTuple,
    RegionRows,
    distribute_outputs,
    export_rows,
    grid_aggregate,
    grid_view,
    merge_cells,
    naa_region,
    ncaa_region,
    niaa_region,
    recipient_bundles,
    reconstruct_cell,
)
from metershare.errors import (
    InsufficientShares,
    OpenedIdInvalid,
    VectorLengthMismatch,
)
from metershare.metering import (
    Scenario,
    build_meters,
    encode,
    generate_readings,
    plaintext_totals,
    submit,
)
from metershare.shamir import SharingParams, share_values


CIRCUITS = {"naa": naa_region, "ncaa": ncaa_region, "niaa": niaa_region}


def small_scenario(alg, seed=31, m=(11, 7)):
    return Scenario(
        n_dno=len(m), n_suppliers=4, sm_per_region=list(m),
        seed=seed, sigma=5, algorithm=alg,
    )


def run_regions(scenario):
    """Direct pipeline: encode, submit, aggregate, export; per region."""
    meters = build_meters(scenario)
    readings = generate_readings(scenario, meters)
    outs = []
    for region in range(1, scenario.n_dno + 1):
        engine = Engine(scenario.params, seed=1000 + region)
        rng = random.Random(region)
        enc = [
            encode(m, readings[m.sm_id][0], readings[m.sm_id][1], scenario, rng)
            for m in meters if m.region == region
        ]
        with engine.phase("input_distribution"):
            tuples, report = submit(engine, scenario, enc, rng)
        rows = CIRCUITS[scenario.algorithm](engine, tuples, scenario.suppliers,
                                            region=region)
        outs.append((engine, export_rows(engine, rows)))
    oracle = plaintext_totals(meters, readings,
                              {m.sm_id for m in meters},
                              scenario.n_dno, scenario.n_suppliers)
    return outs, oracle


def opened_matrix(shares_list, scenario):
    t = scenario.threshold
    return [
        [[reconstruct_cell(c, t) for c in r.cells[s]] for _, r in shares_list]
        for s in range(len(STREAMS))
    ]


@pytest.mark.parametrize("alg", ["naa", "ncaa", "niaa"])
def test_region_algorithms_match_oracle(alg):
    scenario = small_scenario(alg)
    outs, oracle = run_regions(scenario)
    imp, exp = opened_matrix(outs, scenario)
    assert imp == oracle["imp_matrix"]
    assert exp == oracle["exp_matrix"]


def test_naa_multiplication_count_is_exact():
    scenario = small_scenario("naa")
    outs, _ = run_regions(scenario)
    for region, (engine, _) in enumerate(outs, start=1):
        m = scenario.sm_per_region[region - 1]
        # both streams share the region's one phase
        pc = engine.meter.bucket(f"region_aggregation/{region}/imp+exp")
        assert pc.multiplications == 2 * (
            scenario.sigma * m * scenario.n_suppliers + m * scenario.n_suppliers)
        assert pc.opens == 0


def test_naa_rows_leave_the_garbage_collector():
    # a stored sharing is one flat tuple of ints, which the first full
    # collection stops tracking; a row nesting a second tuple can survive
    # that collection still tracked
    outs, _ = run_regions(small_scenario("naa"))
    gc.collect()
    for engine, _ in outs:
        rows = list(engine._h.values())
        assert rows
        assert not any(map(gc.is_tracked, rows))


@pytest.mark.parametrize("alg", sorted(CIRCUITS))
def test_region_skips_interaction_for_empty_region(alg):
    scenario = small_scenario(alg)
    engine = Engine(scenario.params, seed=0)
    rows = CIRCUITS[alg](engine, [], scenario.suppliers)
    total = engine.meter.total()
    assert total.multiplications == total.opens == total.rounds == 0
    if alg == "ncaa":
        assert rows.leaked_counts == {
            s: {u: 0 for u in scenario.suppliers} for s in STREAMS}
    cells = [c for stream_cells in rows.cells for c in stream_cells]
    assert len(cells) == len(STREAMS) * scenario.n_suppliers
    for (h,) in cells:
        assert set(engine.export_shares(h).values()) == {0}


def test_ncaa_leak_is_membership_multiset():
    scenario = small_scenario("ncaa", seed=57)
    meters = build_meters(scenario)
    outs, _ = run_regions(scenario)
    for region, (_, shares) in enumerate(outs, start=1):
        mine = [m for m in meters if m.region == region]
        for stream, attr in (("imp", "supplier_imp"), ("exp", "supplier_exp")):
            true_counts = {u: 0 for u in scenario.suppliers}
            for m in mine:
                true_counts[getattr(m, attr)] += 1
            assert shares.leaked_counts[stream] == true_counts


def test_ncaa_region_opens_only_supplier_ids():
    scenario = small_scenario("ncaa", seed=58)
    outs, _ = run_regions(scenario)
    registry = set(scenario.suppliers)
    for engine, _ in outs:
        assert engine.opened_log, "permutation must open the routed IDs"
        for phase, kind, value in engine.opened_log:
            if phase.startswith("region_aggregation/"):
                assert kind == "supplier_id"
                assert value in registry
            else:
                # control-bit generation opens blinded squares only
                assert phase.startswith("randomness_setup/")
                assert kind == "rand"


@pytest.mark.parametrize("alg", ["naa", "ncaa", "niaa"])
def test_run_opens_only_what_its_algorithm_reveals(alg):
    # opened values by phase and kind over a whole run: naa and niaa open
    # nothing before output distribution, ncaa the routed supplier IDs and
    # the blinded squares of its control bits
    sc = small_scenario(alg, seed=61)
    run = cli.run_scenario(sc)
    assert cli.check_result(run) == [] and not run.excluded
    opened: dict = {}
    for phase, kind, value in run.opened_log:
        opened.setdefault((phase.split("/")[0], kind), []).append(value)
    if alg != "ncaa":
        assert opened == {}
        return
    assert set(opened) == {("region_aggregation", "supplier_id"),
                           ("randomness_setup", "rand")}
    ids = [u for m in build_meters(sc) for u in m.suppliers]
    assert sorted(opened["region_aggregation", "supplier_id"]) == sorted(ids)


def test_ncaa_rejects_unregistered_id():
    engine = Engine(SharingParams(3, 1), seed=2)
    sigma, suppliers = 4, [1, 2, 3]

    def mk(supplier):
        bits = [engine.input(supplier >> (sigma - 1 - k) & 1)
                for k in range(sigma)]
        return MeterTuple(sm=1, fields=(bits, bits),
                          readings=(engine.input(9), engine.input(9)))

    with engine.phase("input_distribution"):
        tuples = [mk(2), mk(7)]  # 7 is nobody
    with pytest.raises(OpenedIdInvalid):
        ncaa_region(engine, tuples, suppliers)


def test_niaa_is_non_interactive():
    scenario = small_scenario("niaa")
    outs, _ = run_regions(scenario)
    for engine, _ in outs:
        pc = engine.meter.matching("region_aggregation")
        assert pc.multiplications == 0
        assert pc.msgs_between_dcc == 0
        assert pc.opens == 0
        assert engine.opened_log == []


def test_niaa_rejects_wrong_vector_length():
    scenario = small_scenario("niaa")
    outs, _ = run_regions(scenario)
    engine = outs[0][0]
    bad = MeterTuple(sm=1, fields=((engine.input(0),) * 3,) * 2, readings=())
    with pytest.raises(VectorLengthMismatch):
        niaa_region(engine, [bad], scenario.suppliers)


def test_niaa_groups_follow_sorted_holder_lists():
    # meters reach {2,3}, {1,3} and {1,2,3}, in that order.  The group sums
    # are issued in the order of the sorted holder lists, (1,2,3) < (1,3)
    # < (2,3): neither arrival order nor the masks' integer order (5, 6, 7)
    engine = Engine(SharingParams(3, 1), seed=6)
    rng = random.Random(6)
    lost_party = [0, 1, None, 0, None, 1]
    tuples, sums = [], {}
    for sm, lost in enumerate(lost_party, start=1):
        vectors = []
        for s in range(len(STREAMS)):
            vector = []
            for k in range(2):
                secret = rng.randrange(1000)
                holders = 0b111 if lost is None else 0b111 ^ 1 << lost
                vector.append(engine.input_shares(
                    share_values(secret, 3, 1, rng), holders=holders))
                key = (s, k, lost)
                sums[key] = sums.get(key, 0) + secret
            vectors.append(vector)
        tuples.append(MeterTuple(sm=sm, fields=tuple(vectors), readings=()))
    first = len(lost_party) * len(STREAMS) * 2 + 1
    rows = niaa_region(engine, tuples, [1, 2])
    order = [None, 1, 0]          # lost party of {1,2,3}, {1,3}, {2,3}
    for s in range(len(STREAMS)):
        for k in range(2):
            cell = rows.cells[s][k]
            assert cell == list(range(first, first + 3))
            first += 3
            masks = [engine.handle_mask(h) for h in cell]
            assert masks == [0b111, 0b101, 0b110]
    shares = export_rows(engine, rows)
    for s in range(len(STREAMS)):
        for k in range(2):
            groups = list(shares.cells[s][k].items())
            assert [holders for holders, _ in groups] == \
                [(1, 2, 3), (1, 3), (2, 3)]
            assert [reconstruct_cell(dict([g]), 1) for g in groups] == \
                [sums[s, k, lost] for lost in order]


def test_composite_cell_merges_heterogeneous_masks():
    p = field.PRIME
    rng = random.Random(8)
    params = SharingParams(5, 1)
    engine = Engine(params, seed=8)
    a = engine.input(100)
    b = engine.input(200)
    cell_a = {tuple(range(1, 6)): engine.export_shares(a)}
    # b's share only reached servers 1..3
    shares_b = {s: v for s, v in engine.export_shares(b).items() if s <= 3}
    cell_b = {(1, 2, 3): shares_b}
    acc = {}
    merge_cells(acc, cell_a)
    merge_cells(acc, cell_b)
    assert len(acc) == 2
    assert reconstruct_cell(acc, 1) == 300
    # losing server 1 keeps both groups above t+1
    assert reconstruct_cell(acc, 1, frozenset({1})) == 300
    # losing 2 and 3 starves the second group; this must never pass silently
    with pytest.raises(InsufficientShares):
        reconstruct_cell(acc, 1, frozenset({2, 3}))
    del rng, p


def test_export_sums_handles_of_one_holder_set():
    # two handles of one cell held by the same servers merge share-wise into
    # one group, which reconstructs to their sum
    p = field.PRIME
    rng = random.Random(9)
    engine = Engine(SharingParams(5, 2), seed=9)
    a = engine.input_shares(share_values(40, 5, 2, rng), holders=0b01111)
    b = engine.input_shares(share_values(2, 5, 2, rng), holders=0b01111)
    c = engine.input(7)
    rows = RegionRows(region=1, cells=[[[a, c, b]], [[]]])
    cells = export_rows(engine, rows).cells
    cell = cells[0][0]
    assert list(cell) == [(1, 2, 3, 4), (1, 2, 3, 4, 5)]
    sa, sb = engine.export_shares(a), engine.export_shares(b)
    assert cell[1, 2, 3, 4] == {i: (sa[i] + sb[i]) % p for i in sa}
    assert reconstruct_cell({(1, 2, 3, 4): cell[1, 2, 3, 4]}, 2) == 42
    assert reconstruct_cell(cell, 2) == 49
    assert cells[1][0] == {}


def test_grid_and_distribution_match_oracle():
    scenario = small_scenario("naa", seed=77)
    outs, oracle = run_regions(scenario)
    matrix = grid_aggregate([s for _, s in outs])
    dist = distribute_outputs(matrix, scenario.params)
    tso = dist.bundles["tso"]
    for key in oracle:
        assert tso[key] == oracle[key]
    for j in range(scenario.n_dno):
        b = dist.bundles[f"dno:{j + 1}"]
        assert b["imp_by_supplier"] == oracle["imp_matrix"][j]
        assert b["imp_total"] == oracle["imp_region_totals"][j]
    for k in range(scenario.n_suppliers):
        b = dist.bundles[f"supplier:{k + 1}"]
        assert b["exp_by_region"] == [
            oracle["exp_matrix"][j][k] for j in range(scenario.n_dno)
        ]
        assert b["exp_total"] == oracle["exp_supplier_totals"][k]


def test_grid_view_totals():
    # the grid operator's bundle and the oracle share this derivation, so
    # pin it against totals worked out by hand
    imp = [[1, 2], [3, 4], [5, 6]]
    exp = [[0, 7], [8, 0], [0, 0]]
    assert grid_view([imp, exp]) == {
        "imp_matrix": imp,
        "imp_region_totals": [3, 7, 11],
        "imp_supplier_totals": [9, 12],
        "imp_grid_total": 21,
        "exp_matrix": exp,
        "exp_region_totals": [7, 8, 0],
        "exp_supplier_totals": [8, 7],
        "exp_grid_total": 15,
    }


@pytest.mark.parametrize("alg", ["naa", "ncaa", "niaa"])
def test_run_reconstructs_each_cell_once(monkeypatch, alg):
    # faults split cells into holder groups and a failed server's shares
    # are gone; every recipient still reads one reconstruction per cell
    sc = Scenario(n_dno=3, n_suppliers=4, sm_per_region=[9, 0, 7], seed=5,
                  sigma=3, algorithm=alg, n_servers=5, fault_rate=0.2,
                  fail_servers=[2])
    calls = []
    original = aggregation.reconstruct_cell

    def counting(cell, t, failed=frozenset()):
        calls.append(cell)
        return original(cell, t, failed)

    monkeypatch.setattr(aggregation, "reconstruct_cell", counting)
    run = cli.run_scenario(sc)
    assert cli.check_result(run) == []
    assert len(calls) == 2 * sc.n_dno * sc.n_suppliers
    if alg == "niaa":
        assert any(len(cell) > 1 for cell in calls)


def test_recipient_bundles_layout_and_isolation():
    matrices = [[[1, 2], [3, 4], [5, 6]], [[0, 7], [8, 0], [0, 0]]]
    view = grid_view(copy.deepcopy(matrices))
    bundles = recipient_bundles(view)
    assert bundles["tso"] is view
    assert len(bundles) == 1 + 3 + 2
    assert bundles["dno:2"] == {"imp_by_supplier": [3, 4], "imp_total": 7,
                                "exp_by_supplier": [8, 0], "exp_total": 8}
    assert bundles["supplier:1"] == {"imp_by_region": [1, 3, 5],
                                     "imp_total": 9, "exp_by_region": [0, 8, 0],
                                     "exp_total": 8}
    # changing a list of one recipient's bundle in place changes no other
    # bundle and not the grid operator's view
    for name, bundle in bundles.items():
        if name == "tso":
            continue
        for key in [k for k, v in bundle.items() if isinstance(v, list)]:
            fresh = recipient_bundles(grid_view(copy.deepcopy(matrices)))
            before = copy.deepcopy(fresh)
            fresh[name][key][0] += 1
            del fresh[name], before[name]
            assert fresh == before


def test_distribution_message_count():
    scenario = small_scenario("naa", seed=78)
    outs, _ = run_regions(scenario)
    matrix = grid_aggregate([s for _, s in outs])
    dist = distribute_outputs(matrix, scenario.params)
    nd, ns, n = scenario.n_dno, scenario.n_suppliers, scenario.n_servers
    # every cell crosses the wire three times: matrix row, column, and
    # grid view; each crossing is one share from each live server
    cells = nd * ns * 2
    assert dist.messages == cells * 3 * n
    # one record per cell crossing, one link per share
    assert len(dist.records) == cells * 3
    assert sum(len(links) for links, _ in dist.records) == dist.messages
    assert all(len(links) == n for links, _ in dist.records)


def test_distribution_with_failed_server_unchanged():
    scenario = small_scenario("ncaa", seed=79)
    outs, oracle = run_regions(scenario)
    matrix = grid_aggregate([s for _, s in outs])
    clean = distribute_outputs(matrix, scenario.params)
    for lost in (1, 2, 3):
        degraded = distribute_outputs(matrix, scenario.params,
                                      failed=frozenset({lost}))
        assert degraded.bundles == clean.bundles
        assert degraded.messages < clean.messages
    with pytest.raises(InsufficientShares):
        distribute_outputs(matrix, scenario.params, failed=frozenset({1, 2}))


def test_empty_region_contributes_zero_row():
    scenario = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[5, 0],
                        seed=3, sigma=4, algorithm="naa")
    outs, oracle = run_regions(scenario)
    matrix = grid_aggregate([s for _, s in outs])
    dist = distribute_outputs(matrix, scenario.params)
    assert dist.bundles["dno:2"]["imp_by_supplier"] == [0, 0, 0]
    assert dist.bundles["tso"]["imp_matrix"] == oracle["imp_matrix"]


@pytest.mark.parametrize("alg,m", [("naa", 6), ("ncaa", 6), ("ncaa", 1)])
def test_region_leaves_only_cells_live(alg, m):
    scenario = small_scenario(alg, m=(m,))
    meters = build_meters(scenario)
    readings = generate_readings(scenario, meters)
    engine = Engine(scenario.params, seed=5)
    rng = random.Random(5)
    enc = [encode(sm, readings[sm.sm_id][0], readings[sm.sm_id][1],
                  scenario, rng) for sm in meters]
    tuples, _ = submit(engine, scenario, enc, rng)
    inputs = engine.live_handles()
    rows = CIRCUITS[alg](engine, tuples, scenario.suppliers)
    # meter inputs stay live; every intermediate sharing is gone
    cells = {h for stream_cells in rows.cells for cell in stream_cells
             for h in cell}
    assert set(engine.live_handles()) == set(inputs) | cells
    oracle = plaintext_totals(meters, readings, {sm.sm_id for sm in meters},
                              1, scenario.n_suppliers)
    imp, exp = opened_matrix([(engine, export_rows(engine, rows))], scenario)
    assert imp == oracle["imp_matrix"] and exp == oracle["exp_matrix"]
