"""Closed-form cost model against hand-computed reference values."""

import csv
from dataclasses import replace
import math

import pytest

from metershare import cli
from metershare.costs import (
    SEGMENTS,
    CostParams,
    build_report,
    build_table,
    bytes_from_transcript,
    extrapolate_cpu,
    formula_comm,
    formula_mults,
    sweep_series,
)
from metershare.errors import UnknownRow
from metershare.metering import Scenario
from metershare.shamir import SHARE_BYTES

# reference figures computed by hand at the default parameter set:
# 14 regions, 10 suppliers, 8 ID bits, 2.2e6 meters per region,
# 32-bit readings, 63-bit shares, 1024-bit ciphertexts
DEFAULTS = CostParams()
FROZEN_BITS = {
    ("trad", "sms_to_dcc"): 1_971_200_000,
    ("trad", "between_dcc"): 0,
    ("trad", "dcc_to_recipients"): 26_880,
    ("dep2sa", "sms_to_dcc"): 63_078_400_000,
    ("dep2sa", "between_dcc"): 0,
    ("dep2sa", "dcc_to_recipients"): 591_360,
    ("naa", "sms_to_dcc"): 23_284_800_000,
    ("naa", "between_dcc"): 74_844_000_000,
    ("naa", "dcc_to_recipients"): 158_760,
    ("ncaa", "sms_to_dcc"): 23_284_800_000,
    ("ncaa", "dcc_to_recipients"): 158_760,
    ("niaa", "sms_to_dcc"): 116_424_000_000,
    ("niaa", "between_dcc"): 0,
    ("niaa", "dcc_to_recipients"): 158_760,
}


def test_formula_comm_frozen_values():
    for (proto, seg), want in FROZEN_BITS.items():
        assert formula_comm(proto, seg, DEFAULTS) == want, (proto, seg)


def test_ncaa_between_matches_printed_expression():
    m = DEFAULTS.sm_per_region
    want = 6 * 63 * (2 * (m * math.log2(m) + m))
    assert formula_comm("ncaa", "between_dcc", DEFAULTS) == want


def test_trusted_tso_variant():
    # recipients fetch from one trusted party: 6*Nd*Ns*63 share bits
    # plus one 128-bit encrypted message per DNO and supplier
    want = 6 * 14 * 10 * 63 + (14 + 10) * 128
    assert want == 55_992
    for proto in ("naa", "ncaa", "niaa"):
        assert formula_comm(proto, "dcc_to_recipients", DEFAULTS,
                            trusted_tso=True) == want
    # baselines ignore the flag
    assert formula_comm("trad", "dcc_to_recipients", DEFAULTS,
                        trusted_tso=True) == 26_880


def test_formula_mults_reference():
    assert formula_mults("naa", DEFAULTS) == 198_000_000
    assert formula_mults("niaa", DEFAULTS) == 0
    m = DEFAULTS.sm_per_region
    assert math.isclose(formula_mults("ncaa", DEFAULTS),
                        2 * (m * math.log2(m) + m), rel_tol=1e-12)
    batcher = formula_mults("ncaa", DEFAULTS, variant="batcher")
    assert math.isclose(batcher, 2 * (3 * m * math.log2(m) ** 2 + m),
                        rel_tol=1e-12)
    assert batcher > formula_mults("ncaa", DEFAULTS)


def test_formula_mults_small_population_edge():
    p = replace(DEFAULTS, sm_per_region=1)
    assert formula_mults("ncaa", p) == 2  # log term vanishes at m=1


def test_extrapolate_cpu_matches_headline_claim():
    # 1.98e8 multiplications at 20.8 us each over 8 threads
    p = replace(DEFAULTS, threads=8)
    secs = extrapolate_cpu(formula_mults("naa", p), p)
    assert abs(secs - 514.8) < 1e-6
    assert secs < 600
    assert extrapolate_cpu(100, replace(DEFAULTS, threads=2)) == \
        50 * DEFAULTS.per_mult_seconds * 2 / 2


@pytest.mark.parametrize("alg,mults", [("naa", 1024), ("ncaa", 896)])
def test_report_cpu_formula_prices_each_stream_once(alg, mults):
    # one 64-meter region: naa's per-stream 64*2*(3+1) = 512 twice,
    # ncaa's table 2*(64*log2(64) + 64) = 896 already both streams
    sc = Scenario(n_dno=1, n_suppliers=2, sm_per_region=[64], seed=6,
                  sigma=3, algorithm=alg)
    report = build_report(cli.run_scenario(sc))
    (compute,) = [r for r in cli.report_rows(report)
                  if r["segment"] == "region_multiplications"]
    assert compute["formula_mults"] == mults
    assert report["cpu"]["projected_seconds_formula"] == \
        extrapolate_cpu(mults, DEFAULTS)


def test_unknown_rows_raise():
    with pytest.raises(UnknownRow):
        formula_comm("carrier_pigeon", "sms_to_dcc", DEFAULTS)
    with pytest.raises(UnknownRow):
        formula_comm("naa", "smoke_signals", DEFAULTS)
    with pytest.raises(UnknownRow):
        formula_mults("trad", DEFAULTS)
    with pytest.raises(UnknownRow):
        formula_mults("ncaa", DEFAULTS, variant="bubble")
    # names match exactly; they are not case-folded
    with pytest.raises(UnknownRow):
        formula_mults("NAA", DEFAULTS)
    with pytest.raises(UnknownRow):
        formula_comm("NAA", "sms_to_dcc", DEFAULTS)
    with pytest.raises(UnknownRow):
        formula_comm("naa", "SMS_TO_DCC", DEFAULTS)


def test_params_validation_and_with():
    with pytest.raises(UnknownRow):
        CostParams(n_dno=0)
    p = replace(DEFAULTS, sm_per_region=5)
    assert p.sm_per_region == 5 and p.n_dno == DEFAULTS.n_dno
    with pytest.raises(UnknownRow):
        replace(DEFAULTS, threads=0)


def test_build_table_covers_grid():
    rows = build_table(DEFAULTS)
    keys = {(r["protocol"], r["segment"]) for r in rows}
    for proto in ("trad", "dep2sa", "naa", "ncaa", "niaa"):
        for seg in ("sms_to_dcc", "between_dcc", "dcc_to_recipients"):
            assert (proto, seg) in keys
    assert ("naa", "region_multiplications") in keys
    assert ("ncaa", "region_multiplications_batcher") in keys
    by_key = {(r["protocol"], r["segment"]): r for r in rows}
    assert by_key[("naa", "sms_to_dcc")]["formula_bits"] == 23_284_800_000
    assert by_key[("naa", "region_multiplications")]["formula_mults"] == \
        198_000_000


def test_sweep_series_shapes_and_monotonicity():
    ms = [1000, 2000, 4000]
    series = sweep_series(DEFAULTS, ms)
    assert set(series) == {
        "compute", "comm_sms_to_dcc", "comm_between_dcc",
        "comm_dcc_to_recipients",
    }
    compute = series["compute"]
    assert [r["sm_per_region"] for r in compute] == ms
    naa = [r["naa_mults"] for r in compute]
    assert naa == sorted(naa) and naa[0] < naa[-1]
    # recipient traffic is independent of the meter population
    rec = series["comm_dcc_to_recipients"]
    assert len({r["naa"] for r in rec}) == 1


@pytest.mark.parametrize("flags", [[], ["--trusted-tso"]])
def test_sweep_recipient_rows_equal_the_table(tmp_path, flags):
    # every sweep point prices recipient traffic as the table does, with
    # the trusted-grid-operator variant or without it
    assert cli.main(["costs", "--out", str(tmp_path), "--sweep",
                     "sm=1k:3k:1k", *flags]) == 0
    with open(tmp_path / "cost_table.csv") as fh:
        table = {r["protocol"]: r["formula_bits"] for r in csv.DictReader(fh)
                 if r["segment"] == "dcc_to_recipients"}
    with open(tmp_path / "sweep_comm_dcc_to_recipients.csv") as fh:
        points = list(csv.DictReader(fh))
    assert len(points) == 3
    for point in points:
        assert {proto: point[proto] for proto in table} == table
    assert table["naa"] == ("55992" if flags else "158760")


@pytest.mark.parametrize("trusted_tso", [False, True])
@pytest.mark.parametrize("params", [
    DEFAULTS,
    CostParams(n_dno=3, sigma=12, threads=4, per_mult_seconds=1e-5),
])
def test_sweep_points_are_the_table(params, trusted_tso):
    # every cell of every series, compute included, is the table's cell at
    # that population
    ms = [1, 2, 1000, 2_200_000]
    series = sweep_series(params, ms, trusted_tso)
    for i, m in enumerate(ms):
        table = {(r["protocol"], r["segment"]): r for r in build_table(
            replace(params, sm_per_region=m), trusted_tso)}
        want = {"compute": {"sm_per_region": m}}
        for alg in ("naa", "ncaa", "niaa"):
            row = table[(alg, "region_multiplications")]
            want["compute"][f"{alg}_mults"] = row["formula_mults"]
            want["compute"][f"{alg}_cpu_seconds"] = row["cpu_seconds"]
        want["compute"]["ncaa_batcher_mults"] = \
            table[("ncaa", "region_multiplications_batcher")]["formula_mults"]
        for seg in SEGMENTS:
            want[f"comm_{seg}"] = {"sm_per_region": m, **{
                proto: table[(proto, seg)]["formula_bits"]
                for proto in ("trad", "dep2sa", "naa", "ncaa", "niaa")}}
        # the same cells, series and columns in the same order
        got = [(name, list(rows[i].items())) for name, rows in series.items()]
        assert got == [(name, list(p.items())) for name, p in want.items()]


def test_bytes_from_transcript_classification():
    records = [
        (0, ("sm4,p1",), "h1"),
        (1, ("p1,p2", "p2,p1"), "h2"),
        (2, ("p1,tso",), "cell/imp/1/1"),
        (2, ("p1,sup3",), "cell/imp/1/3"),
    ]
    out = bytes_from_transcript(records)
    assert out == {
        "sms_to_dcc": SHARE_BYTES,
        "between_dcc": 2 * SHARE_BYTES,
        "dcc_to_recipients": 2 * SHARE_BYTES,
    }


def per_link_bytes(records) -> dict:
    """``bytes_from_transcript``'s classification applied link by link,
    record by record, with nothing shared between records."""
    out = dict.fromkeys(SEGMENTS, 0)
    for _, links, _ in records:
        for link in links:
            sender, receiver = link.split(",")
            if sender.startswith("sm") or sender == "dealer":
                out["sms_to_dcc"] += SHARE_BYTES
            elif receiver.startswith("p"):
                out["between_dcc"] += SHARE_BYTES
            else:
                out["dcc_to_recipients"] += SHARE_BYTES
    return out


def test_bytes_from_transcript_matches_per_link_reference():
    bundle = ("sm1,p1", "sm1,p2", "sm1,p3")
    twin = tuple(list(bundle))          # equal, but another object
    assert twin == bundle and twin is not bundle
    mixed = ("p1,p2", "p2,p1", "p1,tso", "dealer,p3")
    records = [
        (0, bundle, 1), (0, bundle, 2), (0, twin, 3),
        (1, mixed, 4), (2, mixed, 5), (3, bundle, 6),
        (4, ("p3,sup1",), "cell/imp/1/1"),
    ]
    assert bytes_from_transcript(records) == per_link_bytes(records)

    # records made on the fly and read once, a links tuple of each
    def fresh():
        for r in range(200):
            yield (r, tuple(["sm2,p1"] if r % 2 else ["p1,tso"]), r)

    assert bytes_from_transcript(fresh()) == per_link_bytes(list(fresh()))


def test_bytes_from_transcript_on_a_fault_run():
    sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[6, 5], seed=21,
                  sigma=4, n_servers=5, threshold=1, algorithm="naa",
                  fault_rate=0.2, fail_servers=[2])
    run = cli.run_scenario(sc, record_transcript=True)
    assert run.excluded
    assert bytes_from_transcript(run.transcript) == \
        per_link_bytes(run.transcript)
