"""Self-tests of the benchmark: tiny shapes of every workload, both modes.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import probes

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

TINY_METERS = {
    "naa": [5, 4],
    "ncaa": [5, 4],
    "niaa-faults": [40, 40, 40, 40],
    "naa-t2-transcript": [10, 10],
}

# Per-layer metrics each workload must move (nonzero) or leave at zero.
# The predictions are the ones README.md gives for the full shapes.
NONZERO = {
    "naa": [
        "abb.product_batch.mults", "abb.product_batch.us_per_mult",
        "abb.lincomb.calls", "abb.lincomb.us_per_call",
        "gates.equals_public_batch.queries", "aggregation.naa_region.self_s",
        "abb.input_shares.calls", "abb.us_per_mult_eq", "abb.live_handles_end",
    ],
    "ncaa": [
        "field.sqrt.calls", "field.sqrt.self_s", "abb.random_bits_batch.bits",
        "abb.random_bits_batch.self_s", "abb.open_batch.opens",
        "abb.open_batch.self_s", "gates.oblivious_permute.exchange_gates",
        "gates.oblivious_permute.self_s", "abb.product_batch.mults",
        "aggregation.ncaa_region.self_s",
    ],
    "niaa-faults": [
        "shamir.share_values.calls", "shamir.share_values.self_s",
        "shamir.reconstruct.calls", "shamir.reconstruct.self_s",
        "abb.input_shares.calls", "abb.input_shares.self_s",
        "metering.encode.calls", "metering.encode.self_s",
        "metering.submit.self_s", "aggregation.niaa_region.self_s",
        "aggregation.export_rows.self_s", "aggregation.grid_aggregate.self_s",
        "aggregation.distribute_outputs.self_s",
        "aggregation.distribute_outputs.messages",
        "metering.build_meters.s", "metering.generate_readings.s",
        "cli.run_scenario.self_s", "cli.check_result.s",
        "cli.build_report.self_s",
    ],
    "naa-t2-transcript": [
        "abb.product_batch.mults", "abb.product_batch.self_s",
        "gates.equals_public_batch.self_s", "abb.transcript_records",
        "cli.write_artifacts.s", "cli.transcript_gap_bytes.sms_to_dcc",
    ],
}
ZERO = {
    "naa": [
        "field.sqrt.calls", "abb.open_batch.opens",
        "abb.random_bits_batch.bits", "gates.oblivious_permute.exchange_gates",
        "abb.transcript_records", "cli.write_artifacts.s",
    ],
    "ncaa": ["gates.equals_public_batch.queries", "abb.transcript_records"],
    "niaa-faults": [
        "abb.product_batch.calls", "abb.product_batch.mults",
        "abb.open_batch.opens", "abb.random_bits_batch.bits", "field.sqrt.calls",
        "gates.equals_public_batch.queries",
        "gates.oblivious_permute.exchange_gates", "abb.mult_eq_per_meter",
        "abb.rounds", "abb.us_per_mult_eq",
    ],
    "naa-t2-transcript": [
        "field.sqrt.calls", "abb.open_batch.opens",
        "cli.transcript_gap_bytes.between_dcc",
        "cli.transcript_gap_bytes.dcc_to_recipients",
    ],
}


def tiny(name: str) -> dict:
    spec = run.WORKLOADS[name]
    scenario = dict(spec["scenario"], sm_per_region=TINY_METERS[name])
    return dict(spec, scenario=scenario)


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.bench(name, tiny(name), seed=3, seconds=0.3,
                                 trace=trace)
        for name in run.WORKLOADS for trace in (False, True)
    }


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_pass_checks_out(results, name, trace):
    r = results[name, trace]
    assert r["failed"] == 0, r["failures"]
    assert r["attempted"] >= (2 if trace else 1)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in r["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float))
               for m in r["metrics"].values())
    assert r["host"]["nproc"] and r["host"]["python"] and r["seed"] == 3


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics_are_never_zero(results, name):
    metrics = results[name, False]["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert metrics["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_layer_predictions(results, name):
    metrics = results[name, True]["metrics"]
    assert [k for k in NONZERO[name] if not metrics[k]["value"]] == []
    assert [k for k in ZERO[name] if metrics[k]["value"]] == []


def test_every_wrapper_is_hit_somewhere():
    ms = run.load_program()
    spans = {name for name, _, _ in probes(ms)} | {"cli.write_artifacts"}
    hit = {k.rpartition(".")[0] for keys in NONZERO.values() for k in keys}
    assert spans <= hit


def test_faults_admit_fewer_meters(results):
    ratio = results["niaa-faults", True]["metrics"]["metering.submit.admitted_ratio"]
    assert 0 < ratio["value"] < 1
    assert results["naa", True]["metrics"][
        "metering.submit.admitted_ratio"]["value"] == 1


def test_command_line(tmp_path):
    cmd = [sys.executable, "bench/run.py", "--workload", "naa-t2-transcript",
           "--seed", "5", "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                         timeout=120, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0

    # without the program next to it, the benchmark fails and prints no result
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
