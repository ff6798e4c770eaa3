"""metershare benchmark: one workload, one process, one thread, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload naa --seed 1 --seconds 28 --trace 0

One pass is what ``metershare run --check`` does for one scenario:
``cli.run_scenario``, ``cli.check_result`` and ``cli.build_report``, plus
the artifact writers where the workload records a transcript.  Passes
repeat back to back until ``--seconds`` have gone by.  Every pass is
checked (oracle, exact cost rows, the benchmark's own group-by sums and
identical outputs across passes); a pass that raises or mismatches counts
as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference loop (see ``reference_seconds``).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; see
``tracer.py`` and ``README.md``.  The last line of standard output is
one JSON object; a fuller record goes to ``bench/out/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# import + scenario + meters + readings, repeated; setup_s is the median
SETUP_REPEATS = 11

# Seconds the reference loop takes at nominal host speed.  meters_per_ref_s
# and setup_s are what a pass and a set-up would have given on a host that
# runs the loop in exactly this time.
REFERENCE_S = 0.2

# Scenario shapes.  Each is sized so one pass takes 0.7-1.8 s on a shared
# 2-core x86-64 host, which gives 15-27 passes per 28-second run to take
# a median over.  Why each workload exists is in README.md.
WORKLOADS = {
    "naa": {
        "scenario": dict(n_dno=2, n_suppliers=10, sm_per_region=[150, 150],
                         sigma=8, algorithm="naa"),
        "transcript": False,
    },
    "ncaa": {
        "scenario": dict(n_dno=2, n_suppliers=10, sm_per_region=[150, 150],
                         sigma=8, algorithm="ncaa"),
        "transcript": False,
    },
    "niaa-faults": {
        "scenario": dict(n_dno=4, n_suppliers=10, sm_per_region=[1000] * 4,
                         sigma=8, algorithm="niaa", fault_rate=0.02,
                         fail_servers=[2]),
        "transcript": False,
    },
    "naa-t2-transcript": {
        "scenario": dict(n_dno=2, n_suppliers=10, sm_per_region=[30, 30],
                         sigma=8, algorithm="naa", n_servers=5, threshold=2,
                         fault_rate=0.02),
        "transcript": True,
    },
}

# Exact rows of costs.compare that must match, per algorithm.
EXACT_ROWS = {"naa": "naa_mults_exact", "niaa": "niaa_zero_interaction"}

END_TO_END = {
    "meters_per_ref_s": "meters/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "kb_per_meter": "kB",
    "protocol_rounds": "count",
    "pass_ratio": "ratio",
}

SEGMENTS = ("sms_to_dcc", "between_dcc", "dcc_to_recipients")

# Per-layer metrics: name -> unit.  "<span>.<field>" names are read off
# the span totals by LAYER_FIELDS; the rest are computed in layer_metrics.
PER_LAYER = {
    "field.sqrt.calls": "count",
    "field.sqrt.self_s": "s",
    "shamir.share_values.calls": "count",
    "shamir.share_values.self_s": "s",
    "shamir.reconstruct.calls": "count",
    "shamir.reconstruct.self_s": "s",
    "abb.product_batch.calls": "count",
    "abb.product_batch.mults": "count",
    "abb.product_batch.self_s": "s",
    "abb.product_batch.us_per_mult": "us",
    "abb.lincomb.calls": "count",
    "abb.lincomb.self_s": "s",
    "abb.lincomb.us_per_call": "us",
    "abb.open_batch.opens": "count",
    "abb.open_batch.self_s": "s",
    "abb.random_bits_batch.bits": "count",
    "abb.random_bits_batch.retries": "count",
    "abb.random_bits_batch.self_s": "s",
    "abb.input_shares.calls": "count",
    "abb.input_shares.self_s": "s",
    "abb.live_handles_end": "count",
    "abb.transcript_records": "count",
    "abb.us_per_mult_eq": "us",
    "abb.mult_eq_per_meter": "count",
    "abb.rounds": "count",
    "gates.equals_public_batch.queries": "count",
    "gates.equals_public_batch.self_s": "s",
    "gates.equals_public_batch.us_per_query": "us",
    "gates.oblivious_permute.exchange_gates": "count",
    "gates.oblivious_permute.self_s": "s",
    "aggregation.naa_region.self_s": "s",
    "aggregation.ncaa_region.self_s": "s",
    "aggregation.niaa_region.self_s": "s",
    "aggregation.export_rows.self_s": "s",
    "aggregation.grid_aggregate.self_s": "s",
    "aggregation.distribute_outputs.self_s": "s",
    "aggregation.distribute_outputs.messages": "count",
    "metering.build_meters.s": "s",
    "metering.generate_readings.s": "s",
    "metering.encode.calls": "count",
    "metering.encode.self_s": "s",
    "metering.submit.self_s": "s",
    "metering.submit.admitted_ratio": "ratio",
    "cli.run_scenario.self_s": "s",
    "cli.check_result.s": "s",
    "cli.build_report.self_s": "s",
    "cli.write_artifacts.s": "s",
    "cli.transcript_gap_bytes.sms_to_dcc": "B",
    "cli.transcript_gap_bytes.between_dcc": "B",
    "cli.transcript_gap_bytes.dcc_to_recipients": "B",
    "trace_overhead": "ratio",
}

# field -> value from a span total [calls, work, seconds, self seconds]
LAYER_FIELDS = {
    "calls": lambda t: t[0],
    "mults": lambda t: t[1],
    "opens": lambda t: t[1],
    "bits": lambda t: t[1],
    "queries": lambda t: t[1],
    "exchange_gates": lambda t: t[1],
    "messages": lambda t: t[1],
    "s": lambda t: t[2],
    "self_s": lambda t: t[3],
    "us_per_mult": lambda t: t[3] / t[1] * 1e6 if t[1] else 0.0,
    "us_per_query": lambda t: t[3] / t[1] * 1e6 if t[1] else 0.0,
    "us_per_call": lambda t: t[3] / t[0] * 1e6 if t[0] else 0.0,
}


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: the host's speed right now.

    A shared host changes speed by tens of percent from one minute to the
    next, and every pass slows with it.  The loop runs before the set-ups,
    before each pass and once after the last, so the set-ups and each pass
    are bracketed by two loops, and scaling a time by their mean cancels
    most of that drift.  It mixes what a pass does (63-bit modular
    products, random draws, list, tuple and dict churn) and never depends
    on the program.  The collector is off while it runs, so the size of the
    program's heap cannot change its time.
    """
    p = 9223372036854775783
    rng = random.Random(12345)
    table = {}
    acc = 0
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(48000):
            v = [rng.randrange(p) for _ in range(3)]
            table[i & 16383] = (v, i & 7)
            a, _ = table[(i // 2) & 16383]
            acc = (acc + sum(x * y % p for x, y in zip(a, v))) % p
        return time.perf_counter() - started
    finally:
        gc.enable()


def scenario_seed(workload: str, seed: int) -> int:
    """The Scenario.seed a workload runs under for a given benchmark seed."""
    digest = hashlib.sha256(f"bench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def load_program():
    """Import ``metershare`` from the checkout's sources, afresh."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules
                 if m == "metershare" or m.startswith("metershare.")]:
        del sys.modules[name]
    return importlib.import_module("metershare")


def set_up(spec: dict, seed: int):
    """Import, validate the scenario, build meters and readings; timed."""
    started = time.perf_counter()
    ms = load_program()
    scenario = ms.Scenario(seed=seed, **spec["scenario"])
    meters = ms.build_meters(scenario)
    readings = ms.generate_readings(scenario, meters, slot=0)
    return time.perf_counter() - started, ms, scenario, meters, readings


def write_artifacts(cli, run, report, out_dir: str) -> None:
    """What ``metershare run --out`` writes, in the same order."""
    cli.write_matrix_csv(run, os.path.join(out_dir, "aggregates.csv"))
    cli.write_bundles_json(run, os.path.join(out_dir, "bundles.json"))
    cli.write_report(report, out_dir, "json")
    cli.write_transcript(run, os.path.join(out_dir, "transcript.log"))


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def group_by_problems(run, scenario, meters, readings) -> list[str]:
    """Recompute the grid matrix from the plaintext inputs the benchmark holds."""
    excluded = set(run.excluded)
    if scenario.fault_rate == 0 and excluded:
        return [f"{len(excluded)} meters excluded without faults"]
    imp = [[0] * scenario.n_suppliers for _ in range(scenario.n_dno)]
    exp = [[0] * scenario.n_suppliers for _ in range(scenario.n_dno)]
    for m in meters:
        if m.sm_id in excluded:
            continue
        r_imp, r_exp = readings[m.sm_id]
        imp[m.region - 1][m.supplier_imp - 1] += r_imp
        exp[m.region - 1][m.supplier_exp - 1] += r_exp
    tso = run.bundles["tso"]
    if tso["imp_matrix"] != imp or tso["exp_matrix"] != exp:
        return ["grid matrix differs from the benchmark's group-by sums"]
    return []


def run_pass(ms, spec, scenario, meters, readings, writer) -> dict:
    """One timed pass and its untimed checks; keeps no reference to the run."""
    cli = ms.cli
    record = spec["transcript"]
    tmp = None
    started = time.perf_counter()
    try:
        run = cli.run_scenario(scenario, record_transcript=record, threads=1)
        problems = list(cli.check_result(run))
        report = cli.build_report(run, threads=1)
        if record:
            tmp = tempfile.mkdtemp(dir=OUT_DIR)
            writer(cli, run, report, tmp)
        seconds = time.perf_counter() - started
        if record:
            digest = tree_digest(tmp)
        else:
            digest = hashlib.sha256(json.dumps(
                {"bundles": run.bundles, "report": report}, sort_keys=True
            ).encode()).hexdigest()
    finally:
        if tmp is not None:
            shutil.rmtree(tmp)

    problems += group_by_problems(run, scenario, meters, readings)
    want = EXACT_ROWS.get(scenario.algorithm)
    if want is not None:
        rows = [r for r in report["compare"] if r["check"] == want]
        if len(rows) != 1 or rows[0]["match"] is not True:
            problems.append(f"{want} does not hold: {rows}")
    total = run.meter.total()
    segment_bytes = {
        "sms_to_dcc": total.bytes_sm_to_dcc,
        "between_dcc": total.bytes_between_dcc,
        "dcc_to_recipients": total.bytes_dcc_to_recipients,
    }
    gap = dict.fromkeys(SEGMENTS, 0)
    if record:
        logged = ms.costs.bytes_from_transcript(run.transcript)
        gap = {seg: segment_bytes[seg] - logged[seg] for seg in SEGMENTS}
    return {
        "seconds": seconds,
        "problems": problems,
        "digest": digest,
        "included": sum(scenario.sm_per_region) - len(run.excluded),
        "total": total,
        "bytes": sum(segment_bytes.values()),
        "transcript_records": len(run.transcript) if record else 0,
        "transcript_gap": gap,
    }


def count_problems(totals: dict, total, delivered_shares: int) -> list[str]:
    """Traced counts against the engine's own CostMeter for the same pass."""
    pairs = [
        ("multiplications", totals["abb.product_batch"][1], total.multiplications),
        ("opens", totals["abb.open_batch"][1], total.opens),
        ("rounds", totals["abb.rounds"][1], total.rounds),
        ("random bits", totals["abb.random_bits_batch"][1], total.random_bits),
        ("exchange gates", totals["gates.oblivious_permute"][1],
         total.exchange_gates),
        ("sm->dcc messages", delivered_shares, total.msgs_sm_to_dcc),
    ]
    return [f"traced {what} {traced} != CostMeter {metered}"
            for what, traced, metered in pairs if traced != metered]


def layer_metrics(totals: dict, p: dict) -> dict:
    """Per-layer values of one traced pass (trace_overhead is added later)."""
    out = {}
    for name in PER_LAYER:
        span, _, fld = name.rpartition(".")
        if span in totals and fld in LAYER_FIELDS:
            out[name] = LAYER_FIELDS[fld](totals[span])
    included = p["included"]
    mult_eq = p["total"].mult_equivalents
    attempted = totals["metering.encode"][0]
    out.update({
        "abb.random_bits_batch.retries":
            totals["abb.random_bits_batch.retries"][1],
        "abb.live_handles_end": totals["aggregation.export_rows"][1],
        "abb.transcript_records": p["transcript_records"],
        "abb.mult_eq_per_meter": mult_eq / included if included else 0.0,
        "abb.rounds": totals["abb.rounds"][1],
        "metering.submit.admitted_ratio":
            included / attempted if attempted else 0.0,
    })
    for seg, gap in p["transcript_gap"].items():
        out[f"cli.transcript_gap_bytes.{seg}"] = gap
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def bench(workload: str, spec: dict, seed: int, seconds: float,
          trace: bool) -> dict:
    """Run one workload for ``seconds``; return the full record."""
    sc_seed = scenario_seed(workload, seed)
    # with the loop before the first pass, this brackets the set-ups
    opening_reference = None if trace else reference_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # rebinding drops the previous set-up, so it adds nothing to peak RSS
        seconds_taken, ms, scenario, meters, readings = set_up(spec, sc_seed)
        setup_times.append(seconds_taken)
    OUT_DIR.mkdir(exist_ok=True)

    if trace:
        from tracer import Tracer
        tracer = Tracer(ms)
        traced_writer = tracer.wrap("cli.write_artifacts", write_artifacts)

    passes = []
    first_digest = None
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        modes = {q["traced"] for q in passes}
        if time.perf_counter() - started >= seconds \
                and modes >= ({False, True} if trace else {False}):
            break
        record = {"traced": traced, "seconds": 0.0, "included": 0,
                  "problems": []}
        if not trace:
            record["reference_s"] = reference_seconds()
        try:
            if traced:
                tracer.start_pass()
                tracer.install()
            try:
                p = run_pass(ms, spec, scenario, meters, readings,
                             traced_writer if traced else write_artifacts)
            finally:
                if traced:
                    tracer.uninstall()
            problems = p["problems"]
            if first_digest is None:
                first_digest = p["digest"]
            elif p["digest"] != first_digest:
                problems.append("outputs differ from the first pass")
            if traced:
                totals = tracer.finish_pass()
                submit = totals["metering.submit"][1]
                problems += count_problems(totals, p["total"], submit)
                record["layers"] = layer_metrics(totals, p)
            record.update(
                seconds=p["seconds"], included=p["included"],
                mult_eq=p["total"].mult_equivalents,
                rounds=p["total"].rounds, bytes=p["bytes"],
                problems=problems,
            )
        except Exception as e:  # a failed pass is counted, not fatal
            record["problems"] = [f"{type(e).__name__}: {e}"]
        passes.append(record)
    if not trace:
        closing_reference = reference_seconds()

    ok = [q for q in passes if not q["problems"]]
    plain = [q for q in passes if not q["traced"]]
    result = {
        "workload": workload,
        "seed": seed,
        "scenario_seed": sc_seed,
        "scenario": spec["scenario"],
        "transcript": spec["transcript"],
        "host": host(),
        "trace": trace,
        "run_seconds": seconds,
        "setup_seconds": setup_times,
        "pass_seconds": [q["seconds"] for q in plain],
        "traced_pass_seconds": [q["seconds"] for q in passes if q["traced"]],
        "attempted": len(passes),
        "failed": len(passes) - len(ok),
        "failures": [q["problems"] for q in passes if q["problems"]],
    }
    if not trace:
        # a failed pass delivers no meters
        rates = [q["included"] / q["seconds"] if not q["problems"] else 0.0
                 for q in plain]
        refs = [q["reference_s"] for q in plain] + [closing_reference]
        ref_rates = [rate * (before + after) / 2 / REFERENCE_S
                     for rate, before, after in zip(rates, refs, refs[1:])]
        result["reference_seconds"] = [opening_reference] + refs
        result["wall_meters_per_s"] = statistics.median(rates)
        result["wall_setup_s"] = statistics.median(setup_times)
        setup_scale = REFERENCE_S / ((opening_reference + refs[0]) / 2)
        first = ok[0] if ok else {"included": 0, "bytes": 0, "rounds": 0}
        included = first["included"]
        metrics = {
            "meters_per_ref_s": statistics.median(ref_rates),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) * setup_scale,
            "kb_per_meter":
                first["bytes"] / included / 1000 if included else 0.0,
            "protocol_rounds": first["rounds"] + 2,
            "pass_ratio": len(ok) / len(passes),
        }
        units = END_TO_END
    else:
        layered = [q["layers"] for q in ok if q["traced"]]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for name in layered[0] if layered else ():
            metrics[name] = statistics.median(layer[name] for layer in layered)
        untraced = [q["seconds"] for q in ok if not q["traced"]]
        traced_s = [q["seconds"] for q in ok if q["traced"]]
        overhead = (statistics.median(traced_s) / statistics.median(untraced)
                    if untraced and traced_s else 0.0)
        metrics["trace_overhead"] = overhead
        mult_eq = ok[0]["mult_eq"] if ok else 0
        metrics["abb.us_per_mult_eq"] = (
            statistics.median(untraced) / mult_eq * 1e6
            if mult_eq and untraced else 0.0
        )
        units = PER_LAYER
        tracer.write_spans(OUT_DIR / f"SPANS_{workload}_seed{seed}.csv.gz")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return result


def summary_lines(r: dict) -> list[str]:
    lines = [
        f"workload {r['workload']} seed {r['seed']} "
        f"(scenario seed {r['scenario_seed']}) trace {int(r['trace'])}",
        "host " + " ".join(f"{k}={v}" for k, v in r["host"].items()),
    ]
    for label, key in (("setup", "setup_seconds"),
                       ("reference loop", "reference_seconds"),
                       ("untraced pass", "pass_seconds"),
                       ("traced pass", "traced_pass_seconds")):
        xs = r.get(key)
        if xs:
            q1, med, q3 = quartiles(xs)
            lines.append(
                f"{label}: n={len(xs)} median {med:.4f} s "
                f"(q1 {q1:.4f}, q3 {q3:.4f}); each: "
                + " ".join(f"{x:.4f}" for x in xs)
            )
    lines.append(f"passes attempted {r['attempted']} failed {r['failed']}")
    if "wall_meters_per_s" in r:
        lines.append(f"wall_meters_per_s = {r['wall_meters_per_s']} meters/s, "
                     f"wall_setup_s = {r['wall_setup_s']} s "
                     f"(unscaled; informational)")
    for problems in r["failures"]:
        lines.append("FAILED PASS: " + "; ".join(problems))
    for name, m in r["metrics"].items():
        lines.append(f"{name} = {m['value']} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    r = bench(args.workload, WORKLOADS[args.workload], args.seed,
              args.seconds, bool(args.trace))
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(r, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in summary_lines(r):
        print(line)
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
