"""Scenario handling, meter population, encoding, and submission rules."""

import copy
import json
import random

import pytest

from metershare import cli, field
from metershare.abb import Engine
from metershare.errors import (
    IdOverflow,
    InsufficientShares,
    ScenarioError,
    UnknownSupplier,
)
from metershare.metering import (
    DEFAULT_EXP_LEVEL,
    DEFAULT_IMP_LEVEL,
    Scenario,
    SmartMeter,
    build_meters,
    derive_seed,
    encode,
    encode_bitwise,
    encode_onehot,
    generate_readings,
    submit,
)
from metershare.shamir import Share, reconstruct


def scenario(**kw):
    base = dict(n_dno=2, n_suppliers=3, sm_per_region=[4, 5], seed=1)
    base.update(kw)
    return Scenario(**base)


def test_derive_seed_is_stable():
    # frozen value: changing it silently would break reproducibility
    assert derive_seed(1, "engine", 2) == derive_seed(1, "engine", 2)
    assert derive_seed(1, "engine", 2) != derive_seed(1, "engine", 3)
    assert 0 <= derive_seed("x") < 2 ** 64


@pytest.mark.parametrize("n_suppliers", [10, 16])
def test_meters_and_readings_draw_as_randint(n_suppliers):
    # 5,000 meters, each drawing from its own derived seeds; 16 suppliers
    # need 5-bit words, half of which are redrawn
    sc = scenario(n_suppliers=n_suppliers, sm_per_region=[2000, 3000],
                  seed=n_suppliers)
    meters = build_meters(sc)
    readings = generate_readings(sc, meters, slot=2)
    for m in meters:
        rng = random.Random(derive_seed(sc.seed, "meter", m.sm_id))
        assert m.suppliers == (rng.randint(1, n_suppliers),
                               rng.randint(1, n_suppliers))
        rng = random.Random(derive_seed(sc.seed, "reading", 2, m.sm_id))
        assert readings[m.sm_id] == (rng.randint(0, DEFAULT_IMP_LEVEL),
                                     rng.randint(0, DEFAULT_EXP_LEVEL))


@pytest.mark.parametrize("bad", [
    dict(n_servers=2),                     # violates honest majority
    dict(threshold=0),
    dict(n_dno=0, sm_per_region=[]),
    dict(n_suppliers=0),
    dict(sm_per_region=[4]),               # length mismatch
    dict(sm_per_region=[4, -1]),
    dict(sigma=0),
    dict(sigma=1, n_suppliers=3),          # ids do not fit
    dict(sigma=63),                        # packed ids would wrap the field
    dict(sigma=2**40),
    dict(fault_rate=1.5),
    dict(algorithm="magic"),
    dict(byte_accounting="guess"),
    dict(fail_servers=[9]),
    dict(fail_servers=[2, 3]),             # leaves < t+1 alive
    # wrong types, as a JSON scenario file can carry them
    dict(sm_per_region=[2.5, 5]),
    dict(sm_per_region=9),
    dict(n_servers=3.0),
    dict(n_suppliers=2.0),
    dict(fail_servers=[2.0]),
    dict(fail_servers=2),
    dict(seed=1.5),
    dict(threshold=1.0),
    dict(sigma=8.0),
    dict(n_dno=True, sm_per_region=[4]),
    dict(sm_per_region=[True, 5]),
    dict(fault_rate=True),
    dict(fault_rate="0.1"),
    dict(n_servers=256),                   # party indices fit one byte
])
def test_scenario_validation_rejects(bad):
    with pytest.raises(ScenarioError):
        scenario(**bad)


def test_scenario_accepts_ids_up_to_62_bits():
    assert scenario(sigma=62).sigma == 62


def test_scenario_accepts_tuples_for_lists():
    # only the entry types are checked; callers may pass tuples
    sc = scenario(sm_per_region=(4, 5), fail_servers=(2,))
    assert build_meters(sc) == build_meters(
        scenario(sm_per_region=[4, 5], fail_servers=[2]))


def test_scenario_rejects_population_overflow():
    # enough meters at full scale could wrap the field modulus
    huge = field.PRIME // ((1 << field.READING_BITS) - 1) + 1
    with pytest.raises(ScenarioError):
        scenario(sm_per_region=[huge, 0])


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"n_dno": 1, "n_suppliers": 1,
                            "sm_per_region": [1], "seed": 0, "typo": True})


def test_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError):
        Scenario.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        Scenario.from_file(bad)


def test_scenario_file_roundtrip(tmp_path):
    sc = scenario(algorithm="ncaa", fault_rate=0.25)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc.to_dict()))
    assert Scenario.from_file(path) == sc


def test_build_meters_deterministic_and_in_range():
    sc = scenario()
    a, b = build_meters(sc), build_meters(sc)
    assert a == b
    assert [m.sm_id for m in a] == list(range(1, 10))
    assert [m.region for m in a] == [1] * 4 + [2] * 5
    for m in a:
        assert 1 <= m.supplier_imp <= sc.n_suppliers
        assert 1 <= m.supplier_exp <= sc.n_suppliers


def test_generate_readings_reproducible():
    sc = scenario()
    meters = build_meters(sc)
    r0 = generate_readings(sc, meters, slot=0)
    assert r0 == generate_readings(sc, meters, slot=0)
    assert r0 != generate_readings(sc, meters, slot=1)
    for imp, exp in r0.values():
        assert 0 <= imp < (1 << field.READING_BITS)
        assert 0 <= exp < (1 << field.READING_BITS)


def reconstruct_sharing(values, t=1):
    shares = [Share(i, v, t) for i, v in enumerate(values, 1)]
    return reconstruct(shares[:t + 1])


def test_encode_bitwise_layout(rng):
    sc = scenario(sigma=4)
    meter = SmartMeter(sm_id=1, region=1, supplier_imp=3, supplier_exp=2)
    enc = encode_bitwise(meter, 1000, 2000, sc, rng)
    assert [len(f) for f in enc.fields] == [sc.sigma, sc.sigma]
    assert len(enc.readings) == 2
    imp_bits = [reconstruct_sharing(v) for v in enc.fields[0]]
    exp_bits = [reconstruct_sharing(v) for v in enc.fields[1]]
    assert imp_bits == [0, 0, 1, 1]   # 3, most significant bit first
    assert exp_bits == [0, 0, 1, 0]   # 2
    assert reconstruct_sharing(enc.readings[0]) == 1000
    assert reconstruct_sharing(enc.readings[1]) == 2000


def test_encode_onehot_layout(rng):
    sc = scenario()
    meter = SmartMeter(sm_id=1, region=1, supplier_imp=2, supplier_exp=1)
    enc = encode_onehot(meter, 70, 80, sc, rng)
    assert [len(f) for f in enc.fields] == [sc.n_suppliers] * 2
    assert enc.readings == ()
    imp_vec = [reconstruct_sharing(v) for v in enc.fields[0]]
    exp_vec = [reconstruct_sharing(v) for v in enc.fields[1]]
    assert imp_vec == [0, 70, 0]
    assert exp_vec == [80, 0, 0]


def shape(rec):
    """Per-stream field widths and the number of reading sharings."""
    return [len(f) for f in rec.fields], len(rec.readings)


def test_encode_dispatches_on_algorithm(rng):
    meter = SmartMeter(sm_id=1, region=1, supplier_imp=1, supplier_exp=1)
    bitwise, onehot = ([8, 8], 2), ([3, 3], 0)
    assert shape(encode(meter, 1, 1, scenario(), rng)) == bitwise
    assert shape(encode(meter, 1, 1, scenario(algorithm="ncaa"), rng)) == \
        bitwise
    assert shape(encode(meter, 1, 1, scenario(algorithm="niaa"), rng)) == \
        onehot


def test_encode_rejects_bad_suppliers(rng):
    sc = scenario()
    ghost = SmartMeter(sm_id=1, region=1, supplier_imp=9, supplier_exp=1)
    with pytest.raises(UnknownSupplier):
        encode(ghost, 1, 1, sc, rng)
    wide = SmartMeter(sm_id=1, region=1, supplier_imp=1 << sc.sigma,
                      supplier_exp=1)
    with pytest.raises(IdOverflow):
        encode(wide, 1, 1, sc, rng)


def encode_all(sc, rng):
    meters = build_meters(sc)
    readings = generate_readings(sc, meters)
    return [
        encode(m, readings[m.sm_id][0], readings[m.sm_id][1], sc, rng)
        for m in meters if m.region == 1
    ]


def test_submit_without_faults_admits_all(rng):
    sc = scenario()
    engine = Engine(sc.params, seed=1)
    enc = encode_all(sc, rng)
    with engine.phase("input_distribution"):
        tuples, report = submit(engine, sc, enc, rng)
    assert len(tuples) == len(enc)
    assert report.excluded == []
    assert report.delivered_bundles == len(enc) * 3
    # every sharing of every bundle crossed the wire to all 3 servers
    per = 2 * sc.sigma + 2
    assert report.delivered_shares == len(enc) * per * 3
    pc = engine.meter.bucket("input_distribution")
    assert pc.msgs_sm_to_dcc == report.delivered_shares
    assert pc.bytes_sm_to_dcc == report.delivered_shares * 10


class FixedDrops:
    """Deterministic fault source: drop exactly the scripted legs.

    A leg is lost when random() falls below the fault rate, so a
    scripted 1 returns 0.0 (drop) and anything else keeps the leg.
    """

    def __init__(self, script):
        self.script = list(script)

    def random(self):
        if self.script and self.script.pop(0):
            return 0.0
        return 1.0


def test_submit_quorum_rules_per_algorithm(rng):
    # first meter loses three of its five legs, keeping only t+1 = 2
    for alg, survives in (("naa", False), ("ncaa", False), ("niaa", True)):
        sc = scenario(algorithm=alg, fault_rate=0.5,
                      n_servers=5, threshold=1)
        engine = Engine(sc.params, seed=1)
        enc = encode_all(sc, rng)
        script = [1, 1, 1, 0, 0] + [0] * (5 * (len(enc) - 1))
        with engine.phase("input_distribution"):
            tuples, report = submit(engine, sc, enc, FixedDrops(script))
        first = enc[0].sm
        if survives:
            assert first in report.included
        else:
            assert first in report.excluded
            assert len(tuples) == len(enc) - 1


def test_submit_full_coverage_rule_for_permutation(rng):
    # 3 of 5 legs survive: enough for a 2t+1 multiplication quorum, but
    # the permutation mixes all rows and insists on full coverage
    for alg, survives in (("naa", True), ("ncaa", False)):
        sc = scenario(algorithm=alg, fault_rate=0.5,
                      n_servers=5, threshold=1)
        engine = Engine(sc.params, seed=1)
        enc = encode_all(sc, rng)
        script = [1, 1, 0, 0, 0] + [0] * (5 * (len(enc) - 1))
        with engine.phase("input_distribution"):
            tuples, report = submit(engine, sc, enc, FixedDrops(script))
        assert (enc[0].sm in report.included) == survives


def test_submit_requires_mult_quorum_of_servers(rng):
    sc = scenario(algorithm="naa", n_servers=5, threshold=2,
                  fail_servers=[1])
    engine = Engine(sc.params, seed=1)
    for s in sc.fail_servers:
        engine.fail_party(s)
    with engine.phase("input_distribution"), pytest.raises(InsufficientShares):
        submit(engine, sc, encode_all(sc, rng), rng)


@pytest.mark.parametrize("alg, fault_rate", [("naa", 0.0), ("niaa", 0.3)])
def test_submit_reads_encoded_lazily(rng, alg, fault_rate):
    # when a sharing is registered, the only bundle drawn beyond those
    # already registered is the one it belongs to
    sc = scenario(algorithm=alg, fault_rate=fault_rate)
    engine = Engine(sc.params, seed=1)
    bundles = encode_all(sc, rng)
    drawn = []

    def spy():
        for rec in bundles:
            drawn.append(rec.sm)
            yield rec

    calls = []
    input_shares = engine.input_shares

    def spy_input_shares(values, sender="dealer", holders=None):
        calls.append((sender, drawn[-1]))
        return input_shares(values, sender, holders)

    engine.input_shares = spy_input_shares
    with engine.phase("input_distribution"):
        _, report = submit(engine, sc, spy(), rng)
    assert drawn == [rec.sm for rec in bundles]
    assert all(sender == f"sm{last}" for sender, last in calls)
    assert {sender for sender, _ in calls} == \
        {f"sm{sm}" for sm in report.included}
    if fault_rate:
        assert report.excluded


def test_submit_excluded_traffic_still_counted(rng):
    sc = scenario(algorithm="ncaa", fault_rate=0.5)
    engine = Engine(sc.params, seed=1)
    enc = encode_all(sc, rng)
    script = [1, 0, 0] + [0] * (3 * (len(enc) - 1))
    with engine.phase("input_distribution"):
        tuples, report = submit(engine, sc, enc, FixedDrops(script))
    assert enc[0].sm in report.excluded
    pc = engine.meter.bucket("input_distribution")
    # the two delivered legs of the excluded meter still cost traffic
    assert pc.msgs_sm_to_dcc == report.delivered_shares
    sharings = 2 * sc.sigma + 2
    assert report.delivered_shares == \
        (len(enc) - 1) * sharings * 3 + sharings * 2


@pytest.mark.parametrize("alg", ["naa", "ncaa"])
def test_report_bundle_counts_under_faults_and_failed_server(alg):
    # server 3 never receives; faults drop more legs, some meters excluded
    sc = scenario(algorithm=alg, n_servers=5, threshold=1, fault_rate=0.3,
                  fail_servers=[3], sm_per_region=[12, 10])
    run = cli.run_scenario(sc)
    report = cli.build_report(run)
    # every delivered bundle carries 2*sigma+2 sharings over the wire
    msgs = report["segments"]["sms_to_dcc"]["measured_messages"]
    delivered, rest = divmod(msgs, 2 * sc.sigma + 2)
    assert rest == 0 and delivered == run.delivered_bundles
    sent = sc.n_servers * sum(sc.sm_per_region)
    assert report["faults"]["delivered_bundles"] == delivered
    assert report["faults"]["dropped_bundles"] == sent - delivered
    assert sent - delivered > sum(sc.sm_per_region)
    assert report["faults"]["excluded_sms"]
    # the paper prices four shared fields per delivered bundle
    seg = report["segments"]["sms_to_dcc"]
    assert seg["nominal_bits_63_formula_fields"] == 4 * delivered * 63


# -- share-exactness against the per-entry code the encoders replaced --------

def reference_share_values(secret, n, t, rng):
    """Sharing as the encoders used to do it: randrange draws, Horner mod p."""
    poly = [secret] + [rng.randrange(field.PRIME) for _ in range(t)]
    out = []
    for x in range(1, n + 1):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % field.PRIME
        out.append(acc)
    return out


def reference_onehot(meter, imp, exp, sc, rng):
    n, t = sc.n_servers, sc.threshold
    secrets = []
    for supplier, reading in zip(meter.suppliers, (imp, exp)):
        for u in range(1, sc.n_suppliers + 1):
            secrets.append(reference_share_values(
                reading if u == supplier else 0, n, t, rng))
    return secrets


def reference_bitwise(meter, imp, exp, sc, rng):
    n, t = sc.n_servers, sc.threshold
    secrets = []
    for supplier in meter.suppliers:
        for k in range(sc.sigma - 1, -1, -1):
            secrets.append(
                reference_share_values(supplier >> k & 1, n, t, rng))
    for reading in (imp, exp):
        secrets.append(reference_share_values(reading, n, t, rng))
    return secrets


@pytest.mark.parametrize("n, t", [(3, 1), (5, 2), (7, 3)])
def test_encoders_match_per_entry_reference(n, t):
    sc = scenario(n_servers=n, threshold=t, sigma=4)
    meters = build_meters(sc)
    readings = generate_readings(sc, meters)
    for encoder, reference in ((encode_onehot, reference_onehot),
                               (encode_bitwise, reference_bitwise)):
        ours, ref = random.Random(n), random.Random(n)
        for m in meters:
            imp, exp = readings[m.sm_id]
            got = sharings_of(encoder(m, imp, exp, sc, ours))
            assert got == reference(m, imp, exp, sc, ref)
        assert ours.getstate() == ref.getstate()


def sharings_of(rec):
    """A record's sharings in draw order: the fields, then the readings."""
    return [v for group in (*rec.fields, rec.readings) for v in group]


def reference_intake(engine, sc, enc, script):
    """Per-sharing intake as submit used to do it, for the quorum rules of
    naa and niaa: a lost leg is a server left out of the holder mask."""
    n, t = sc.n_servers, sc.threshold
    alive = [s for s in range(1, n + 1) if s not in sc.fail_servers]
    need = t + 1 if sc.algorithm == "niaa" else 2 * t + 1
    script = list(script)
    for rec in enc:
        received = [s for s in alive if not script.pop(0)]
        if len(received) < need:
            engine.meter.bucket(engine.current_phase).msgs_sm_to_dcc += \
                len(received) * len(sharings_of(rec))
            continue
        holders = sum(1 << (s - 1) for s in received)
        for values in sharings_of(rec):
            engine.input_shares(values, f"sm{rec.sm}", holders)


def engine_state(engine):
    return (
        [(h, engine._h[h]) for h in engine.live_handles()],
        engine.meter,
        engine.transcript,
    )


@pytest.mark.parametrize("alg", ["naa", "niaa"])
def test_submit_intake_matches_per_share_reference(alg, rng):
    # server 3 failed; per meter the script covers live servers 1, 2, 4, 5
    sc = scenario(algorithm=alg, n_servers=5, threshold=1, fault_rate=0.5,
                  fail_servers=[3])
    enc = encode_all(sc, rng)
    script = ([1, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1])
    script = [leg for meter in script for leg in meter]
    sent = copy.deepcopy(enc)
    engines = []
    for _ in range(2):
        engine = Engine(sc.params, seed=1, record_transcript=True)
        engine.fail_party(3)
        engines.append(engine)
    with engines[0].phase("input_distribution"):
        tuples, report = submit(engines[0], sc, enc, FixedDrops(script))
    with engines[1].phase("input_distribution"):
        reference_intake(engines[1], sc, enc, script)
    assert enc == sent                     # the caller's shares are untouched
    # meter 3 keeps one leg; meter 4 keeps two, enough only to add
    assert report.excluded == ([3] if alg == "niaa" else [3, 4])
    assert engine_state(engines[0]) == engine_state(engines[1])
    # per stream sigma ID bits or N_s one-hot entries, then the readings
    widths = ([sc.n_suppliers] * 2, 0) if alg == "niaa" else ([sc.sigma] * 2, 2)
    assert all(shape(tup) == widths for tup in tuples)
    assert all(type(group) is tuple for tup in tuples
               for group in (tup.fields, *tup.fields, tup.readings))
    assert [tup.sm for tup in tuples] == report.included
    # all of a meter's handles carry its bundle's holder mask
    assert all(len({engines[0].handle_mask(h) for h in sharings_of(tup)}) == 1
               for tup in tuples)
    handles = [h for tup in tuples for h in sharings_of(tup)]
    assert handles == engines[1].live_handles()
    per_meter = len(sharings_of(enc[0]))
    lost = [engines[0].handle_mask(h) for h in handles[::per_meter]]
    assert lost == ([0b11010, 0b11011, 0b01001] if alg == "niaa"
                    else [0b11010, 0b11011])
