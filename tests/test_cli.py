"""Command-line pipeline: artifacts, exit codes, determinism, self-tests."""

import argparse
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import tracemalloc
import types

import pytest

from metershare import cli, costs
from metershare.abb import Engine
from metershare.errors import UnknownSupplier
from metershare.metering import (
    MAX_GRID_CELLS,
    MAX_PER_METER,
    Scenario,
    build_meters,
    derive_seed,
)
from metershare.shamir import SHARE_BYTES
from test_golden import SCENARIOS as GOLDEN_SCENARIOS


def write_scenario(tmp_path, **kw):
    base = dict(n_dno=2, n_suppliers=3, sm_per_region=[8, 6],
                seed=5, sigma=5, algorithm="naa")
    base.update(kw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base))
    return path


def test_run_check_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli.main(["run", "--scenario", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "check ok" in out
    assert "mult-equivalents" in out


def test_run_writes_artifacts(tmp_path):
    path = write_scenario(tmp_path, algorithm="ncaa")
    out = tmp_path / "artifacts"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"aggregates.csv", "bundles.json", "cost_report.json",
                     "transcript.log"}
    with open(out / "aggregates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3
    assert set(rows[0]) == {"region", "supplier", "imp", "exp"}
    report = json.loads((out / "cost_report.json").read_text())
    assert report["metadata"]["algorithm"] == "ncaa"
    assert report["leakage"]
    first = (out / "transcript.log").read_text().splitlines()
    assert first[0] == "round,sender,receiver,handle,bytes"
    assert first[1].split(",")[1].startswith("sm")


def test_run_csv_report_format(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "artifacts"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out),
                     "--format", "csv"]) == 0
    with open(out / "cost_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    segments = {r["segment"] for r in rows}
    assert {"sms_to_dcc", "between_dcc", "dcc_to_recipients",
            "region_multiplications"} <= segments


def test_run_missing_scenario_exits_1(tmp_path, capsys):
    assert cli.main(["run", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_dno": 1}))
    assert cli.main(["run", "--scenario", str(bad)]) == 1


def test_run_scenario_missing_keys_names_them(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_dno": 1, "n_suppliers": 2}))
    assert cli.main(["run", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: missing scenario keys: ['sm_per_region', 'seed']\n")


@pytest.mark.parametrize("field, value", [
    ("sm_per_region", [2.5, 6]),
    ("n_servers", 3.0),
    ("n_suppliers", 2.0),
    ("fail_servers", [2.0]),
])
def test_run_mistyped_scenario_field_exits_1(tmp_path, capsys, field, value):
    path = write_scenario(tmp_path, **{field: value})
    assert cli.main(["run", "--scenario", str(path), "--check"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be")


def test_run_huge_sigma_exits_1(tmp_path, capsys):
    # refused before any 2**sigma is built
    path = write_scenario(tmp_path, sigma=2**40)
    assert cli.main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sigma must be below 63, got {2**40}\n"


def run_capped(path) -> subprocess.CompletedProcess:
    """``run --check`` on ``path`` in a child under a 1 GiB address space.

    The cap turns a scenario that passes validation and then builds its
    cells into a MemoryError, instead of a list of gigabytes.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return run_module("run", "--scenario", str(path), "--check",
                      preexec_fn=cap)


def test_run_refuses_per_meter_work_over_the_limit(tmp_path):
    # one niaa meter over 2**30 suppliers is refused before its one-hot
    # bundle is built
    path = write_scenario(tmp_path, n_dno=1, n_suppliers=2**30, sigma=31,
                          sm_per_region=[1], algorithm="niaa")
    proc = run_capped(path)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: niaa needs {2**31} one-hot sharings per meter for {2**30} "
        f"suppliers, above the per-meter limit of {MAX_PER_METER}\n")


def test_run_refuses_a_grid_over_the_limit(tmp_path):
    # ncaa's bundle does not grow with N_s, but its region row, the grid
    # total and the bundles hold a cell per supplier
    path = write_scenario(tmp_path, n_dno=1, n_suppliers=2**30, sigma=31,
                          sm_per_region=[1], algorithm="ncaa")
    proc = run_capped(path)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: n_dno x n_suppliers is {2**30} grid cells, above the grid "
        f"limit of {MAX_GRID_CELLS}\n")


def test_run_infeasible_failures_exit_1(tmp_path, capsys):
    path = write_scenario(tmp_path, n_servers=3, fail_servers=[3])
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "2t+1" in capsys.readouterr().err


def test_run_check_detects_corruption(tmp_path, capsys, monkeypatch):
    # sabotage one opened cell; the oracle comparison must catch it
    original = cli.distribute_outputs

    def tampered(matrix, params, failed=frozenset()):
        dist = original(matrix, params, failed)
        dist.bundles["tso"]["imp_matrix"][0][0] += 1
        return dist

    monkeypatch.setattr(cli, "distribute_outputs", tampered)
    path = write_scenario(tmp_path)
    assert cli.main(["run", "--scenario", str(path), "--check"]) == 2
    assert "MISMATCH" in capsys.readouterr().err


def test_run_artifacts_are_deterministic(tmp_path):
    path = write_scenario(tmp_path, algorithm="ncaa", fault_rate=0.1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_b)]) == 0
    for name in ("aggregates.csv", "bundles.json", "cost_report.json",
                 "transcript.log"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_threads_do_not_change_results(tmp_path):
    # --threads only feeds the report's CPU projection
    path = write_scenario(tmp_path, n_dno=3, sm_per_region=[6, 5, 4])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_b),
                     "--threads", "3"]) == 0
    for name in ("aggregates.csv", "bundles.json", "transcript.log"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    rep_a = json.loads((out_a / "cost_report.json").read_text())
    rep_b = json.loads((out_b / "cost_report.json").read_text())
    assert rep_a["cpu"]["threads"] == 1 and rep_b["cpu"]["threads"] == 3
    del rep_a["cpu"], rep_b["cpu"]
    assert rep_a == rep_b


def test_seed_env_override(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_a)]) == 0
    monkeypatch.setenv(cli.SEED_ENV, "999")
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_b)]) == 0
    rep = json.loads((out_b / "cost_report.json").read_text())
    assert rep["metadata"]["seed"] == 999
    assert (out_a / "aggregates.csv").read_bytes() != \
        (out_b / "aggregates.csv").read_bytes()


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_seed_env_not_an_integer_exits_1(tmp_path, capsys, monkeypatch,
                                          value):
    path = write_scenario(tmp_path)
    monkeypatch.setenv(cli.SEED_ENV, value)
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: METERSHARE_SEED must be an integer, got {value!r}\n")


def test_report_segments_naa(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "cost_report.json").read_text())
    seg = rep["segments"]["sms_to_dcc"]
    # formula counts 4 shared fields per bundle at the nominal width;
    # the simulator ships (2*sigma + 2) sharings of 10 bytes each
    m_total = 8 + 6
    assert seg["formula_bits"] == 12 * m_total * 63
    assert seg["nominal_bits_63_formula_fields"] == 4 * 3 * m_total * 63
    assert seg["measured_messages"] == (2 * 5 + 2) * 3 * m_total
    assert seg["measured_bits"] == seg["measured_messages"] * 80
    assert seg["headline_bits"] == seg["measured_bits"]
    comp = {row["check"]: row for row in rep["compare"]}
    assert comp["naa_mults_exact"]["match"] is True


def test_report_paper_accounting_headline(tmp_path):
    path = write_scenario(tmp_path, byte_accounting="paper")
    out = tmp_path / "r"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "cost_report.json").read_text())
    seg = rep["segments"]["sms_to_dcc"]
    assert seg["headline_bits"] == seg["nominal_bits_63_formula_fields"]


def test_costs_command_table(capsys):
    assert cli.main(["costs"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("protocol,segment")
    assert "niaa,between_dcc" in out


def test_costs_command_writes_files(tmp_path):
    assert cli.main(["costs", "--out", str(tmp_path), "--format", "json",
                     "--sweep", "sm=1k:3k:1k"]) == 0
    table = json.loads((tmp_path / "cost_table.json").read_text())
    assert any(r["segment"] == "region_multiplications" for r in table)
    with open(tmp_path / "sweep_compute.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["sm_per_region"]) for r in rows] == [1000, 2000, 3000]


def test_run_out_on_existing_file_exits_1(tmp_path, capsys):
    path = write_scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", "--scenario", str(path), "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(["costs", "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_nonpositive_threads(tmp_path, capsys, threads):
    path = write_scenario(tmp_path)
    assert cli.main(["run", "--scenario", str(path),
                     "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: threads must be positive\n"
    assert captured.out == ""  # refused before the scenario ran


@pytest.mark.parametrize("option, value, message", [
    ("--per-mult-seconds", "nan", "per_mult_seconds must be finite"),
    ("--per-mult-seconds", "inf", "per_mult_seconds must be finite"),
    ("--per-mult-seconds", "-inf", "per_mult_seconds must be positive"),
    ("--sm", "1" + "0" * 400, "sm_per_region must be finite"),
    ("--threads", str(2 ** 53 + 1), "threads must be finite"),
])
def test_costs_refuses_nonfinite_and_huge_params(capsys, option, value,
                                                 message):
    # NaN or inf printed invalid JSON; a huge count overflowed a float
    assert cli.main(["costs", "--format", "json", f"{option}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_costs_rejects_bad_sweep(capsys):
    assert cli.main(["costs", "--sweep", "suppliers=1:2:1"]) == 1
    assert cli.main(["costs", "--sweep", "sm=5:1:1"]) == 1
    capsys.readouterr()
    assert cli.main(["costs", "--sweep", "sm=abc:1:1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: sweep count 'abc' is not a number")
    assert cli.main(["costs", "--sweep", "sm=1:2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: sweep spec must be sm=START:STOP:STEP")


def test_sweep_refuses_too_many_points(capsys):
    # the count is checked before any point is built
    assert len(cli.parse_sweep("sm=1:10000:1")) == cli.MAX_SWEEP_POINTS
    assert cli.main(["costs", "--sweep", "sm=1:10001:1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep spec asks for 10001 points")


@pytest.mark.parametrize("argv", [
    ["costs", "--sm", "abc"],
    ["costs", "--per-mult-seconds", "-inf"],
    ["run"],
    ["sweep"],
    ["frobnicate"],
])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 is left to an oracle mismatch and a failed selftest
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["costs", "--help"],
                                  ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_parse_sweep_suffixes():
    assert cli.parse_sweep("sm=0.5M:2M:0.5M") == \
        [500_000, 1_000_000, 1_500_000, 2_000_000]
    assert cli.parse_sweep("1k:2k:1k") == [1000, 2000]
    assert cli.parse_sweep("sm=1.5k:3k:1.5k") == [1500, 3000]
    assert cli.parse_sweep("sm=1.1k:1.1k:1") == [1100]


@pytest.mark.parametrize("spec, count", [
    ("sm=1:2:0.5", "0.5"),
    ("sm=1.7:5:1", "1.7"),
    ("sm=1k:2k:0.0005k", "0.0005k"),
])
def test_sweep_refuses_fractional_counts(capsys, spec, count):
    with pytest.raises(ValueError, match=f"'{count}' is not a whole number"):
        cli.parse_sweep(spec)
    assert cli.main(["costs", "--sweep", spec]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sweep count '{count}' is not a whole number " \
                  f"of meters\n"


def test_sweep_command(tmp_path, capsys):
    # sweep SPEC is costs --sweep SPEC, on standard output and in --out
    flags = ["--trusted-tso", "--n-dno", "3", "--sigma", "12", "--threads",
             "4", "--per-mult-seconds", "1e-5", "--format", "json"]
    outs = []
    spec = "sm=1k:2k:1k"
    for argv in (["sweep", spec], ["costs", "--sweep", spec]):
        assert cli.main([*argv, *flags]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / argv[0]
        assert cli.main([*argv, *flags, "--out", str(out)]) == 0
        outs.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert outs[0] == outs[1]
    assert "# sweep comm_between_dcc" in outs[0][0]
    assert sorted(outs[0][1]) == ["cost_table.json",
                                  *sorted(PINNED_SWEEP_FILES)]


# the costs and sweep flag of each CostParams field
COST_FLAGS = {
    "n_dno": "--n-dno",
    "n_suppliers": "--n-suppliers",
    "sigma": "--sigma",
    "sm_per_region": "--sm",
    "per_mult_seconds": "--per-mult-seconds",
    "threads": "--threads",
}


@pytest.mark.parametrize("command", ["costs", "sweep"])
def test_cost_flags_are_the_cost_params_fields(command):
    (sub,) = [a for a in cli.make_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions
    params = dataclasses.fields(costs.CostParams)
    assert [f.name for f in params] == list(COST_FLAGS)
    for f in params:
        (action,) = [a for a in actions if a.dest == f.name]
        assert action.option_strings == [COST_FLAGS[f.name]]
        assert action.type is f.type and action.default == f.default


def test_selftest_stage_functions_pass():
    assert cli.selftest_shamir(trials=30) is None
    assert cli.selftest_equality(width=4,
                                 pairs=[(0, 0), (3, 3), (2, 9), (15, 15)]) is None
    assert cli.selftest_equivalence(seed=11) is None


def test_selftest_catches_undetected_tampering(monkeypatch):
    # a reconstruct that ignores the shares beyond t+1 misses the tamper
    original = cli.reconstruct

    def first_t_plus_1(shares):
        return original(shares[:shares[0].degree + 1])

    monkeypatch.setattr(cli, "reconstruct", first_t_plus_1)
    problem = cli.selftest_shamir(trials=5)
    assert problem is not None and "undetected" in problem


def test_selftest_catches_flipped_equality(monkeypatch):
    original = cli.equals_public_batch

    def flipped(engine, queries, width):
        outs = original(engine, queries, width)
        return [engine.lincomb([(-1, h)], const=1) for h in outs]

    monkeypatch.setattr(cli, "equals_public_batch", flipped)
    problem = cli.selftest_equality(width=4, pairs=[(3, 3)])
    assert problem is not None and "opened" in problem


def test_selftest_catches_missing_degree_reduction(monkeypatch, capsys):
    def local_product(self, left, right, *, as_or=False):
        # multiply shares pointwise, skipping the reshare step
        p = cli.field.PRIME
        out = []
        for a, b in zip(left, right, strict=True):
            sa, sb = self.export_shares(a), self.export_shares(b)
            both = sa.keys() & sb.keys()
            values = [0] * self.n
            for i in both:
                x, y = sa[i], sb[i]
                values[i - 1] = (x + y - x * y if as_or else x * y) % p
            out.append(self.input_shares(
                values, holders=sum(1 << (i - 1) for i in both)))
        return out

    monkeypatch.setattr(Engine, "product_batch", local_product)
    # the degree-2 results fail the consistency check where shares enter
    # the engine; the selftest command reports the stage as FAIL instead
    # of crashing
    monkeypatch.setattr(cli, "selftest_shamir", lambda: None)
    monkeypatch.setattr(cli, "selftest_equivalence", lambda: None)
    assert cli.main(["selftest"]) == 2
    assert "FAIL equality_exhaustive: InconsistentShares" in \
        capsys.readouterr().out


def test_selftest_command_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "selftest_shamir", lambda: None)
    monkeypatch.setattr(cli, "selftest_equality", lambda: None)
    monkeypatch.setattr(cli, "selftest_equivalence", lambda: None)
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    monkeypatch.setattr(cli, "selftest_equality", lambda: "broken")
    assert cli.main(["selftest"]) == 2
    assert "FAIL equality_exhaustive" in capsys.readouterr().out


def test_selftest_command_runs_every_stage_in_full(capsys):
    # unpatched: the exhaustive 8-bit equality stage included
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [
        ["PASS", "shamir_roundtrip"], ["PASS", "equality_exhaustive"],
        ["PASS", "aggregation_equivalence"],
    ]


def run_module(*args, **kw) -> subprocess.CompletedProcess:
    """``python -m metershare`` with ``args``, in a process of its own."""
    # pytest's pythonpath setting reaches only its own process
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "metershare", *args],
                          capture_output=True, text=True, env=env, **kw)


def test_console_entry_point(tmp_path):
    path = write_scenario(tmp_path, sm_per_region=[3, 2])
    proc = run_module("run", "--scenario", str(path), "--check")
    assert proc.returncode == 0, proc.stderr
    assert "check ok" in proc.stdout


@pytest.mark.parametrize("recipient,key", [
    ("dno:2", "imp_total"), ("dno:1", "exp_by_supplier"),
    ("supplier:2", "exp_total"), ("supplier:1", "imp_by_region"),
])
def test_check_result_names_a_tampered_bundle(recipient, key):
    sc = Scenario(n_dno=2, n_suppliers=2, sm_per_region=[3, 4], seed=9,
                  sigma=2)
    run = cli.run_scenario(sc)
    assert cli.check_result(run) == []
    bundle = run.bundles[recipient]
    value = bundle[key]
    bundle = run.bundles[recipient] = dict(bundle)
    bundle[key] = value + 1 if isinstance(value, int) \
        else [value[0] + 1, *value[1:]]
    assert cli.check_result(run) == [f"{recipient} bundle mismatch"]


@pytest.mark.parametrize("alg", ["naa", "ncaa", "niaa"])
@pytest.mark.parametrize("fault_rate,empty", [(0.0, [1]), (1.0, [1, 2, 3])])
def test_empty_regions_list_unassigned_and_fully_excluded(alg, fault_rate,
                                                          empty):
    # region 1 has no meters; at fault_rate 1.0 every bundle is lost, so
    # regions 2 and 3 admit none of theirs
    sc = Scenario(n_dno=3, n_suppliers=2, sm_per_region=[0, 4, 3], seed=8,
                  sigma=3, algorithm=alg, fault_rate=fault_rate)
    run = cli.run_scenario(sc)
    assert cli.check_result(run) == []
    assert run.empty_regions == empty
    report = cli.build_report(run)
    assert report["faults"]["empty_regions"] == empty
    assert len(report["faults"]["excluded_sms"]) == (7 if fault_rate else 0)
    for row in run.mult_rows:
        assert (row["included_sms"] == 0) == (row["region"] in empty)
    for j in empty:
        region = run.meter.matching(f"region_aggregation/{j}/")
        assert region.mult_equivalents == 0


def test_region_rows_read_their_own_region_only():
    # the run's meter merges every region's phases: region 1's row must not
    # fold in region 10's, whose label starts with the same characters
    sc = Scenario(n_dno=11, n_suppliers=2,
                  sm_per_region=[4, 2, 0, 1, 1, 2, 1, 1, 2, 5, 3],
                  seed=4, sigma=2, algorithm="naa")
    run = cli.run_scenario(sc)
    rows = run.mult_rows
    assert [row["region"] for row in rows] == list(range(1, 12))
    assert {row["stream"] for row in rows} == {"imp+exp"}
    for row in rows:
        assert row["measured_mults"] == row["formula_mults"]


# naa's rounds per region: one per fold level of the width-sigma equality
# test and one gating product, both streams in each
def naa_region_rounds(sigma: int) -> int:
    return math.ceil(math.log2(sigma + 1)) + 1


@pytest.mark.parametrize("n,t,rate,failed", [
    (3, 1, 0.0, []), (5, 2, 0.0, []), (7, 3, 0.0, []), (5, 1, 0.3, [2]),
    (5, 1, 1.0, [2]),
])
@pytest.mark.parametrize("sigma", [1, 2, 3, 7, 8, 9, 15])
def test_naa_region_rounds_follow_the_formula(sigma, n, t, rate, failed):
    sc = Scenario(n_dno=3, n_suppliers=1 if sigma == 1 else 3,
                  sm_per_region=[4, 0, 3], seed=sigma, sigma=sigma,
                  n_servers=n, threshold=t, algorithm="naa",
                  fault_rate=rate, fail_servers=failed)
    run = cli.run_scenario(sc)
    assert cli.check_result(run) == []
    rounds = [run.meter.matching(f"region_aggregation/{j}/").rounds
              for j in range(1, sc.n_dno + 1)]
    # an empty or fully excluded region runs no round
    assert rounds == [naa_region_rounds(sigma) if admitted else 0
                      for admitted in run.admitted]
    assert run.meter.total().rounds == sum(rounds)
    if rate == 1.0:
        assert not any(run.admitted)


def test_naa_bench_workloads_take_twelve_rounds():
    # the benchmark's protocol_rounds is a pass's rounds plus the input and
    # output distribution
    spec = importlib.util.spec_from_file_location(
        "bench_run", pathlib.Path(__file__).resolve().parent.parent
        / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name in ("naa", "naa-t2-transcript"):
        sc = Scenario(**bench.WORKLOADS[name]["scenario"], seed=1)
        run = cli.run_scenario(sc)
        assert all(run.admitted)
        assert run.meter.total().rounds == \
            sc.n_dno * naa_region_rounds(sc.sigma)
        assert run.meter.total().rounds + 2 == 12


def test_naa_region_heap_ceiling():
    # the traced heap peak of one (3,1) naa region of 400 meters, above the
    # heap at its start; both streams' first fold level is live at once.
    # Measured 35.7 KB per meter (27.5 with one stream per round)
    m = 400
    sc = Scenario(n_dno=1, n_suppliers=10, sm_per_region=[m], seed=7,
                  sigma=8, algorithm="naa")
    meters = build_meters(sc)
    readings = cli.generate_readings(sc, meters, slot=0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        cli._run_region(sc, 1, meters, readings, record_transcript=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / m <= 37_000


def test_encode_streams_into_submit(monkeypatch):
    # each meter's bundle is registered before the next meter is encoded
    events = []
    encode, input_shares = cli.encode, Engine.input_shares

    def spy_encode(meter, *args):
        events.append(meter.sm_id)
        return encode(meter, *args)

    def spy_input_shares(self, values, sender="dealer", holders=None):
        events.append(int(sender[2:]))
        return input_shares(self, values, sender, holders)

    monkeypatch.setattr(cli, "encode", spy_encode)
    monkeypatch.setattr(Engine, "input_shares", spy_input_shares)
    for alg in ("naa", "niaa"):
        events.clear()
        sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[4, 3], seed=2,
                      sigma=3, algorithm=alg)
        cli.run_scenario(sc)
        runs = [sm for k, sm in enumerate(events)
                if not k or events[k - 1] != sm]
        assert runs == [m.sm_id for m in build_meters(sc)]


@pytest.mark.parametrize("alg", ["naa", "niaa"])
def test_unknown_supplier_mid_region_fails_the_run(tmp_path, capsys,
                                                   monkeypatch, alg):
    # meter 3 sits in the middle of region 1; the meters before it are
    # already registered when its bundle is encoded
    def bad_meters(sc):
        return [dataclasses.replace(m, supplier_exp=sc.n_suppliers + 1)
                if m.sm_id == 3 else m for m in build_meters(sc)]

    monkeypatch.setattr(cli, "build_meters", bad_meters)
    sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[5, 4], seed=5,
                  sigma=5, algorithm=alg)
    with pytest.raises(UnknownSupplier, match="meter 3 references supplier 4"):
        cli.run_scenario(sc)
    path = write_scenario(tmp_path, algorithm=alg, sm_per_region=[5, 4])
    assert cli.main(["run", "--scenario", str(path), "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: meter 3 references supplier 4\n"
    assert "check ok" not in captured.out


def rejected_meter_shares(sc: Scenario, excluded: set) -> int:
    """Shares the servers received from meters they then rejected, found by
    replaying each region's fault draws in ``submit``'s order."""
    alive = [s for s in range(1, sc.n_servers + 1) if s not in sc.fail_servers]
    fields = 2 * (sc.n_suppliers if sc.algorithm == "niaa" else sc.sigma + 1)
    meters = build_meters(sc)
    shares = 0
    for j in range(1, sc.n_dno + 1):
        draws = random.Random(derive_seed(sc.seed, "fault", j))
        for m in meters:
            if m.region != j:
                continue
            received = len(alive)
            if sc.fault_rate:
                received = sum(not draws.random() < sc.fault_rate
                               for _ in alive)
            if m.sm_id in excluded:
                shares += received * fields
    return shares


# naa and ncaa multiply, so they need 2t+1 live servers: (5,1) is the
# shape where they run with a failed server
TRANSCRIPT_SWEEP = [
    (alg, n, t, rate, failed)
    for alg in ("naa", "ncaa", "niaa") for n, t in ((3, 1), (5, 1), (5, 2))
    for rate in (0.0, 0.2) for failed in ([], [2])
    if alg == "niaa" or n - len(failed) >= 2 * t + 1
]


@pytest.mark.parametrize("alg,n,t,rate,failed", TRANSCRIPT_SWEEP)
def test_transcript_matches_meter(tmp_path, alg, n, t, rate, failed):
    sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[6, 5], seed=21,
                  sigma=4, n_servers=n, threshold=t, algorithm=alg,
                  fault_rate=rate, fail_servers=failed)
    run = cli.run_scenario(sc, record_transcript=True)
    assert all(links for _, links, _ in run.transcript)
    total = run.meter.total()
    logged = costs.bytes_from_transcript(run.transcript)
    assert logged["between_dcc"] == total.bytes_between_dcc
    assert logged["dcc_to_recipients"] == total.bytes_dcc_to_recipients
    # rejected meters' bundles are metered but not recorded
    gap = rejected_meter_shares(sc, set(run.excluded)) * SHARE_BYTES
    assert logged["sms_to_dcc"] == total.bytes_sm_to_dcc - gap
    path = tmp_path / "transcript.log"
    cli.write_transcript(run, path)
    lines = path.read_text().splitlines()
    shares = sum(len(links) for _, links, _ in run.transcript)
    assert len(lines) == 1 + shares


# every algorithm at (3,1), (5,1) and (5,2) with faults, and with server 2
# failed where the quorum allows it
TRAFFIC_SHAPES = [
    (alg, n, t, failed)
    for alg in ("naa", "ncaa", "niaa") for n, t in ((3, 1), (5, 1), (5, 2))
    for failed in ([], [2])
    if alg == "niaa" or n - len(failed) >= 2 * t + 1
]


@pytest.mark.parametrize("alg,n,t,failed", TRAFFIC_SHAPES)
def test_traffic_does_not_depend_on_the_data(monkeypatch, alg, n, t, failed):
    # who sends what to whom in which round, every counter and the admitted
    # meters follow from the shape, the seed and the faults alone: other
    # suppliers and readings change the outputs and nothing else
    sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[6, 5], seed=21,
                  sigma=4, n_servers=n, threshold=t, algorithm=alg,
                  fault_rate=0.2, fail_servers=failed)
    first = cli.run_scenario(sc, record_transcript=True)
    real_meters, real_readings = cli.build_meters, cli.generate_readings

    def other_meters(scenario):
        ns = scenario.n_suppliers
        return [dataclasses.replace(m, supplier_imp=m.supplier_imp % ns + 1,
                                    supplier_exp=(m.supplier_exp + 1) % ns + 1)
                for m in real_meters(scenario)]

    def other_readings(scenario, meters, slot=0):
        return {sm: (imp // 2 + 1, exp + 7) for sm, (imp, exp)
                in real_readings(scenario, meters, slot).items()}

    monkeypatch.setattr(cli, "build_meters", other_meters)
    monkeypatch.setattr(cli, "generate_readings", other_readings)
    second = cli.run_scenario(sc, record_transcript=True)
    assert cli.check_result(second) == []
    assert second.oracle != first.oracle
    assert second.transcript == first.transcript
    assert second.meter.phases == first.meter.phases
    assert second.excluded == first.excluded


@pytest.mark.parametrize("name", ["naa-t2-faults", "niaa-faults-failed"])
def test_deliveries_share_one_links_tuple_per_link_list(name):
    # write_transcript cuts a record's lines once per run of records that
    # hold the same links object, so equal deliveries must share one
    run = cli.run_scenario(Scenario(**GOLDEN_SCENARIOS[name]),
                           record_transcript=True)
    deliveries = [links for _, links, label in run.transcript
                  if label.startswith("cell/")]
    assert len(deliveries) == 2 * 3 * run.scenario.n_dno \
        * run.scenario.n_suppliers
    assert len({id(links) for links in deliveries}) == len(set(deliveries))


@pytest.mark.parametrize("alg", ["naa", "ncaa", "niaa"])
def test_transcript_rounds_run_on_across_regions(alg):
    # region j's records carry the meter rounds of the regions before it
    # as their offset: its intake at the offset, its own rounds after it
    sc = Scenario(n_dno=3, n_suppliers=3, sm_per_region=[6, 0, 5], seed=21,
                  sigma=4, n_servers=5, threshold=1, algorithm=alg,
                  fault_rate=0.2, fail_servers=[2])
    run = cli.run_scenario(sc, record_transcript=True)
    assert run.excluded
    meters = build_meters(sc)
    readings = cli.generate_readings(sc, meters)
    rounds: dict = {}
    for rnd, _, label in run.transcript:
        source = label.split(".")[0] if "." in label else "output"
        rounds.setdefault(source, set()).add(rnd)
    offset = 0
    for j, count in enumerate(sc.sm_per_region, 1):
        region = cli._run_region(sc, j, [m for m in meters if m.region == j],
                                 readings, record_transcript=False)
        own = region.meter.total().rounds
        want = set(range(offset, offset + own + 1)) if count else set()
        assert rounds.pop(f"r{j}", set()) == want
        offset += own
    assert offset == run.meter.total().rounds
    assert rounds == {"output": {offset + 1}}


def reference_transcript(records) -> str:
    """The transcript file rendered one line per link, nothing reused."""
    return "round,sender,receiver,handle,bytes\n" + "".join(
        f"{rnd},{link},{label},{SHARE_BYTES}\n"
        for rnd, links, label in records for link in links)


def test_write_transcript_matches_line_per_link(tmp_path):
    shared = ("p1,p2", "p1,p3", "p2,p1", "p2,p3")
    equal = tuple(list(shared))
    single = ("p3,p1",)
    assert equal == shared and equal is not shared
    records = [
        # one links object over many records
        (1, shared, "r1.h5"), (1, shared, "r1.h6"), (1, shared, "r1.h7"),
        # the same object in the next round
        (2, shared, "r1.h8"), (2, shared, "r1.h9"),
        # an equal tuple that is another object, then the first again
        (2, equal, "r1.h10"), (2, equal, "r1.h12"), (2, shared, "r2.h3"),
        # single-link records, with a links object each, then sharing one
        (3, ("p1,tso",), "cell/imp/1/1"), (3, shared[:1], "cell/imp/1/1"),
        (3, shared[:1], "cell/exp/1/1"),
        (4, single, "r2.h4"), (4, single, "r2.h5"),
    ]
    path = tmp_path / "transcript.log"
    cli.write_transcript(types.SimpleNamespace(transcript=records), path)
    assert path.read_text() == reference_transcript(records)


def test_write_transcript_streams_its_lines(tmp_path):
    run = cli.run_scenario(Scenario(**GOLDEN_SCENARIOS["naa-t2-faults"]),
                           record_transcript=True)
    path = tmp_path / "transcript.log"
    tracemalloc.start()
    try:
        cli.write_transcript(run, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4_000_000
    assert peak < 1_000_000
    assert path.read_text() == reference_transcript(run.transcript)


def test_report_rows_round_trip_through_writer(tmp_path):
    sc = Scenario(n_dno=1, n_suppliers=2, sm_per_region=[4], seed=2,
                  sigma=3, algorithm="niaa")
    run = cli.run_scenario(sc)
    report = cli.build_report(run)
    rows = cli.report_rows(report)
    target = tmp_path / "rows.csv"
    with open(target, "w", newline="") as fh:
        cli.write_rows_csv(rows, fh)
    with open(target) as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    assert back[0]["protocol"] == "niaa"


# sha256 of outputs no golden scenario covers, recorded before the cost-table
# rows were built in one place; they must not move when that code changes.
# The ncaa and niaa run reports were re-recorded when their
# region_multiplications row gained its formula_mults cell, the
# trusted-tso sweep stdout when its recipient series took the flag.
PINNED_RUN_CSV = {
    "naa": "10c646797f4461647499a672191fe4769b77e011cfc800a0075bd2fa26b32e21",
    "ncaa": "6d99cfe3b10bdb91fd7e82b2a7967e0cdfcd6a66b74b817d9996f06c294cde18",
    "niaa": "f30b90eaab14f7d33ea8492e61e22bc63565c8bfdb9eca50caa080f927e04342",
}
# the region_multiplications row's formula_mults cell in those reports:
# per-stream naa formulas over 4 and 3 admitted meters, ncaa's table
# formula over the same counts, and niaa's exact zero
PINNED_RUN_FORMULA_MULTS = {
    "naa": "252",
    "ncaa": "39.50977500432694",
    "niaa": "0",
}
PINNED_COSTS_STDOUT = {
    "costs": "050c66104801c3c5e079eecdec052d2062b7bffdbdf5968c1044a09232e619e4",
    "costs --trusted-tso --sweep sm=1k:3k:1k":
        "4199546036d5205cc4a8f83fa52e91e2b626473ecc19ff1f4e6e20499e140332",
}
PINNED_SWEEP_FILES = {
    "sweep_comm_between_dcc.csv":
        "6f075c64994846fdde5ad35d412701c81a225a00e73c896c8aaa5f1bebb33552",
    "sweep_comm_dcc_to_recipients.csv":
        "953685c415e8ad5e9d8cebf0d6a8d38675b897f7634e38126890fa0d37bfb642",
    "sweep_comm_sms_to_dcc.csv":
        "c47d75d24ed83ef03bab3d078b885a7f3c4adc2a9fdbe0a5971c55054cff7fff",
    "sweep_compute.csv":
        "b7a61508a7735f28d3db213ef8ebe8d7859e4cf2c12c2a70cbf954f53b7276b0",
}
PINNED_COST_TABLE = {
    "cost_table.csv": PINNED_COSTS_STDOUT["costs"],
    "cost_table.json":
        "9be3afa0c2b4c6667b46d7d659d772db5831a1fc811034c6dc33618e40196946",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(PINNED_RUN_CSV))
def test_run_csv_report_is_pinned(tmp_path, algorithm):
    # an empty region and faults; niaa also loses a server
    extra = {"fail_servers": [2]} if algorithm == "niaa" else {}
    path = write_scenario(tmp_path, algorithm=algorithm, n_dno=3,
                          sm_per_region=[8, 0, 6], fault_rate=0.2, **extra)
    out = tmp_path / "artifacts"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out),
                     "--format", "csv"]) == 0
    data = (out / "cost_report.csv").read_bytes()
    assert sha256(data) == PINNED_RUN_CSV[algorithm]
    rows = csv.DictReader(data.decode().splitlines())
    (compute,) = [r for r in rows if r["segment"] == "region_multiplications"]
    assert compute["formula_mults"] == PINNED_RUN_FORMULA_MULTS[algorithm]


@pytest.mark.parametrize("command", sorted(PINNED_COSTS_STDOUT))
def test_costs_stdout_is_pinned(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == PINNED_COSTS_STDOUT[command]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_costs_files_are_pinned(tmp_path, fmt):
    assert cli.main(["costs", "--out", str(tmp_path), "--format", fmt,
                     "--sweep", "sm=1k:3k:1k"]) == 0
    want = {**PINNED_SWEEP_FILES,
            f"cost_table.{fmt}": PINNED_COST_TABLE[f"cost_table.{fmt}"]}
    got = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == want


def test_costs_json_stdout_is_the_json_table(tmp_path, capsys):
    assert cli.main(["costs", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert cli.main(["costs", "--format", "json", "--out", str(tmp_path)]) == 0
    assert out.encode() == (tmp_path / "cost_table.json").read_bytes()
    assert sha256(out.encode()) == PINNED_COST_TABLE["cost_table.json"]
