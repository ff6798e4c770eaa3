"""End-to-end acceptance gate.

Each test covers one numbered contract of the package and prints a
single PASS/FAIL line (straight to the real stdout, so the summary
survives pytest's capture) in addition to the usual pytest verdict.
"""

import json
import math
import random
import time

import pytest

from metershare import cli, field
from metershare.abb import Engine
from metershare.aggregation import distribute_outputs, grid_aggregate
from metershare.costs import CostParams, extrapolate_cpu, formula_comm, formula_mults
from metershare.errors import InsufficientShares
from metershare.gates import equals_public_batch
from metershare.metering import Scenario, build_meters
from metershare.shamir import Share, SharingParams, extend_to_secret, reconstruct


def report(capfd, ok: bool, label: str) -> None:
    # step around pytest's capture so the verdict always reaches the console
    with capfd.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {label}", flush=True)


def corpus_scenarios():
    """20 deterministic scenario shapes: 2-4 regions, 10-200 SMs, 3-10 suppliers."""
    rng = random.Random(2026)
    shapes = []
    for i in range(20):
        nd = rng.randint(2, 4)
        ns = rng.randint(3, 10)
        if i == 0:
            sizes = [200] + [rng.randint(10, 40) for _ in range(nd - 1)]
        else:
            sizes = [rng.randint(10, 60) for _ in range(nd)]
        shapes.append(dict(n_dno=nd, n_suppliers=ns, sm_per_region=sizes,
                           seed=9000 + i, sigma=8))
    return shapes


@pytest.fixture(scope="session")
def corpus():
    """Every scenario under every algorithm, with wall time per run."""
    runs = {}
    started = time.perf_counter()
    for i, shape in enumerate(corpus_scenarios()):
        for alg in ("naa", "ncaa", "niaa"):
            scenario = Scenario(algorithm=alg, **shape)
            runs[(i, alg)] = cli.run_scenario(scenario)
    return runs, time.perf_counter() - started


def test_criterion_1_oracle_equivalence(corpus, capfd):
    runs, elapsed = corpus
    problems = []
    for (i, alg), run in runs.items():
        mismatches = cli.check_result(run)
        if mismatches:
            problems.append(f"scenario {i} {alg}: {mismatches[0]}")
        if run.excluded:
            problems.append(f"scenario {i} {alg}: unexpected exclusions")
    if elapsed >= 30:
        problems.append(f"corpus took {elapsed:.1f}s, budget is 30s")
    report(capfd, not problems,
           f"criterion 1 oracle equivalence, 60 runs in {elapsed:.1f}s")
    assert not problems, problems


def test_criterion_2_equality_exhaustive(capfd):
    width = 8
    started = time.perf_counter()
    bad = 0
    for x in range(1 << width):
        queries = list(range(1 << width))
        engine = Engine(SharingParams(3, 1), seed=x)
        bits = [engine.input(x >> (width - 1 - k) & 1) for k in range(width)]
        with engine.phase("eq"):
            outs = equals_public_batch(engine, [(bits, y) for y in queries],
                                       width)
        with engine.phase("eq_open"):
            opened = engine.open_batch(outs)
        want = [1 if x == y else 0 for y in queries]
        pc = engine.meter.bucket("eq")
        if opened != want:
            bad += 1
        # exactly width products per query, folded in <= log2 levels
        if pc.multiplications != width * len(queries) or pc.rounds > 4:
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 60
    report(capfd, ok, f"criterion 2 exhaustive 8-bit equality, 65536 pairs "
               f"in {elapsed:.1f}s")
    assert ok, f"{bad} failing batches, {elapsed:.1f}s"


def test_criterion_3_multiplication_counts(corpus, capfd):
    runs, _ = corpus
    problems = []
    for (i, alg), run in runs.items():
        if alg == "naa":
            for row in run.mult_rows:
                if row["measured_mults"] != row["formula_mults"]:
                    problems.append(
                        f"scenario {i} region {row['region']} "
                        f"{row['stream']}: {row['measured_mults']} != "
                        f"{row['formula_mults']}"
                    )
        elif alg == "niaa":
            region = run.meter.matching("region_aggregation")
            if region.multiplications or region.msgs_between_dcc:
                problems.append(f"scenario {i} niaa not silent")
    report(capfd, not problems, "criterion 3 multiplication-count exactness")
    assert not problems, problems[:5]


def test_criterion_4_fault_tolerance(capfd):
    scenario = Scenario(n_dno=2, n_suppliers=4, sm_per_region=[12, 9],
                        seed=404, sigma=6, algorithm="naa")
    problems = []
    for alg in ("naa", "ncaa", "niaa"):
        sc = Scenario.from_dict({**scenario.to_dict(), "algorithm": alg})
        meters = build_meters(sc)
        readings = cli.generate_readings(sc, meters)
        outcomes = [
            cli._run_region(sc, j, [m for m in meters if m.region == j],
                            readings, record_transcript=False)
            for j in (1, 2)
        ]
        matrix = grid_aggregate([o.shares for o in outcomes])
        clean = distribute_outputs(matrix, sc.params)
        for lost in (1, 2, 3):
            got = distribute_outputs(matrix, sc.params,
                                     failed=frozenset({lost}))
            if got.bundles != clean.bundles:
                problems.append(f"{alg}: output changed after losing {lost}")
        for pair in ((1, 2), (1, 3), (2, 3)):
            try:
                distribute_outputs(matrix, sc.params, failed=frozenset(pair))
                problems.append(f"{alg}: no error after losing {pair}")
            except InsufficientShares:
                pass
    report(capfd, not problems, "criterion 4 single-failure tolerance, "
                         "double-failure refusal")
    assert not problems, problems


def test_criterion_5_formula_oracle(capfd):
    p = CostParams()
    frozen = {
        ("trad", "sms_to_dcc"): 2 * 14 * 2_200_000 * 32,
        ("trad", "between_dcc"): 0,
        ("trad", "dcc_to_recipients"): 6 * 14 * 10 * 32,
        ("dep2sa", "sms_to_dcc"): 2 * 14 * 2_200_000 * 1024,
        ("dep2sa", "between_dcc"): 0,
        ("dep2sa", "dcc_to_recipients"): 2 * 14 * 10 * (2 * 1024 + 32 + 32),
        ("naa", "sms_to_dcc"): 12 * 14 * 2_200_000 * 63,
        ("naa", "between_dcc"): 6 * 63 * (8 * 2_200_000 * 10 + 2_200_000 * 10),
        ("naa", "dcc_to_recipients"): 18 * 14 * 10 * 63,
        ("ncaa", "sms_to_dcc"): 12 * 14 * 2_200_000 * 63,
        ("niaa", "sms_to_dcc"): 6 * 14 * 2_200_000 * 10 * 63,
        ("niaa", "between_dcc"): 0,
        ("niaa", "dcc_to_recipients"): 18 * 14 * 10 * 63,
    }
    problems = []
    for (proto, seg), want in frozen.items():
        got = formula_comm(proto, seg, p)
        if got != want:
            problems.append(f"{proto}/{seg}: {got} != {want}")
    m = 2_200_000
    ncaa_between = 6 * 63 * (2 * (m * math.log2(m) + m))
    if not math.isclose(formula_comm("ncaa", "between_dcc", p),
                        ncaa_between, rel_tol=1e-12):
        problems.append("ncaa between-server bits off")
    report(capfd, not problems, "criterion 5 analytic table reproduction")
    assert not problems, problems


def test_criterion_6_cpu_extrapolation(corpus, capfd):
    runs, _ = corpus
    p = CostParams(threads=8)
    projected = extrapolate_cpu(formula_mults("naa", p), p)
    wall = sum(r.wall_seconds for (_, a), r in runs.items() if a == "naa")
    eq = sum(r.meter.total().mult_equivalents
             for (_, a), r in runs.items() if a == "naa")
    measured_us = wall / eq * 1e6 if eq else float("nan")
    ok = projected < 600
    report(capfd, ok, f"criterion 6 full-scale projection {projected:.1f}s "
               f"(measured {measured_us:.1f}us per multiplication, "
               f"informational)")
    assert ok, projected


def test_criterion_7_permutation_leakage(corpus, capfd):
    runs, _ = corpus
    problems = []
    for i, shape in enumerate(corpus_scenarios()):
        run = runs[(i, "ncaa")]
        sc = run.scenario
        registry = set(sc.suppliers)
        id_opens = 0
        for phase, kind, value in run.opened_log:
            if phase.startswith("region_aggregation/"):
                if kind != "supplier_id" or value not in registry:
                    problems.append(
                        f"scenario {i}: opened {kind}={value} in {phase}"
                    )
                else:
                    id_opens += 1
            elif not phase.startswith("randomness_setup/"):
                problems.append(f"scenario {i}: open outside known phases")
        if id_opens != 2 * sum(sc.sm_per_region):
            problems.append(f"scenario {i}: {id_opens} ID opens")
        meters = build_meters(sc)
        for region, leaked in run.leaked.items():
            mine = [m for m in meters if m.region == int(region)]
            for stream, attr in (("imp", "supplier_imp"),
                                 ("exp", "supplier_exp")):
                true_counts = {u: 0 for u in sc.suppliers}
                for m in mine:
                    true_counts[getattr(m, attr)] += 1
                if leaked[stream] != true_counts:
                    problems.append(
                        f"scenario {i} region {region} {stream}: "
                        f"leak {leaked[stream]} != {true_counts}"
                    )
    report(capfd, not problems, "criterion 7 permutation opens supplier IDs only, "
                         "leak equals membership counts")
    assert not problems, problems[:5]


def test_criterion_8_t_privacy_extension(corpus, capfd):
    runs, _ = corpus
    rng = random.Random(808)
    problems = []
    checked = 0
    for (i, alg), run in runs.items():
        params = run.scenario.params
        for shares in run.handle_samples:
            party = rng.choice(sorted(shares))
            seen = Share(party, shares[party], params.t)
            alt = rng.randrange(field.PRIME)
            full = extend_to_secret([seen], alt, params)
            by_party = {s.party: s.value for s in full}
            if by_party[party] != seen.value:
                problems.append(f"run {i}/{alg}: extension moved the share")
            elif reconstruct(full) != alt:
                problems.append(f"run {i}/{alg}: wrong alternative secret")
            checked += 1
    ok = not problems and checked >= 100 * len(runs) // 2
    report(capfd, ok, f"criterion 8 single-share extension to arbitrary secrets, "
               f"{checked} handles")
    assert ok, problems[:5]


def test_criterion_9_artifact_determinism(tmp_path, capfd):
    scenario = dict(n_dno=2, n_suppliers=4, sm_per_region=[10, 8],
                    seed=909, sigma=6, algorithm="ncaa", fault_rate=0.1)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    problems = []
    for artifact in ("aggregates.csv", "bundles.json", "cost_report.json",
                     "transcript.log"):
        if (outs[0] / artifact).read_bytes() != (outs[1] / artifact).read_bytes():
            problems.append(artifact)
    report(capfd, not problems, "criterion 9 byte-identical artifacts across runs")
    assert not problems, problems
