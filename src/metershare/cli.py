"""Command-line entry point: simulations, cost tables, sweeps, self-tests.

``run`` drives the full pipeline for one scenario file: input
distribution, region aggregation under the configured algorithm, grid
aggregation, output distribution, artifact emission.  ``costs`` and
``sweep`` answer analytic questions without running any protocol.
``selftest`` re-derives the core correctness properties from scratch.

All artifacts are deterministic functions of the scenario file: no
timestamps, no machine identifiers, stable key order.  Wall-clock
measurements are printed to the console only.
"""

import argparse
import contextlib
import csv
import json
import os
import random
import sys
import time
from dataclasses import dataclass, fields, replace

from . import costs, field
from .abb import CostMeter, Engine
from .aggregation import (
    STREAMS,
    RegionRows,
    distribute_outputs,
    export_rows,
    grid_aggregate,
    naa_region,
    ncaa_region,
    niaa_region,
    recipient_bundles,
)
from .costs import CostParams, build_report, region_mult_rows, report_rows
from .errors import InconsistentShares, MeterShareError
from .gates import equals_public_batch
from .metering import (
    Scenario,
    SubmitReport,
    build_meters,
    derive_seed,
    encode,
    generate_readings,
    plaintext_totals,
    submit,
)
from .shamir import SHARE_BYTES, Share, SharingParams, reconstruct, share

SEED_ENV = "METERSHARE_SEED"
HANDLE_SAMPLES_PER_RUN = 100
# a sweep is built as one list, so its length is bounded before it is built
MAX_SWEEP_POINTS = 10_000


@dataclass
class RegionOutcome:
    """What one region leaves once its engine is gone."""

    shares: RegionRows   # cells exported as share groups
    meter: CostMeter
    submit_report: SubmitReport
    opened_log: list
    transcript: list | None
    handle_samples: list


@dataclass
class RunResult:
    scenario: Scenario
    bundles: dict
    oracle: dict
    meter: CostMeter
    leaked: dict
    excluded: list
    admitted: list       # per region: meters whose tuples were aggregated
    # (round, links, label) per message group, as the engine records
    # them (see ``abb``), with rounds numbered across the run and handles
    # labelled r<region>.h<handle>; None unless recorded
    transcript: list | None
    handle_samples: list
    opened_log: list
    delivered_bundles: int
    wall_seconds: float

    @property
    def empty_regions(self) -> list:
        """Regions that aggregated no meter: none assigned, or all excluded."""
        return [j for j, n in enumerate(self.admitted, 1) if not n]

    @property
    def mult_rows(self) -> list:
        """Per-region measured multiplications next to their formulas."""
        return [row for j, n in enumerate(self.admitted, 1)
                for row in region_mult_rows(self.scenario, self.meter, j, n)]


def _run_region(scenario: Scenario, region: int, meters, readings,
                record_transcript: bool) -> RegionOutcome:
    engine = Engine(
        scenario.params,
        seed=derive_seed(scenario.seed, "engine", region),
        record_transcript=record_transcript,
    )
    for s in scenario.fail_servers:
        engine.fail_party(s)
    enc_rng = random.Random(derive_seed(scenario.seed, "encode", region))
    fault_rng = random.Random(derive_seed(scenario.seed, "fault", region))
    # encoded lazily: each meter's bundle is delivered before the next is
    # drawn, and enc_rng and fault_rng are separate streams, so the draws
    # match encoding every meter up front
    encoded = (
        encode(m, readings[m.sm_id][0], readings[m.sm_id][1], scenario, enc_rng)
        for m in meters
    )
    with engine.phase("input_distribution"):
        tuples, report = submit(engine, scenario, encoded, fault_rng)

    # built per call, so a circuit patched into this module's globals runs
    circuit = {"naa": naa_region, "ncaa": ncaa_region,
               "niaa": niaa_region}[scenario.algorithm]
    rows = circuit(engine, tuples, scenario.suppliers, region=region)

    sample_rng = random.Random(derive_seed(scenario.seed, "sample", region))
    live = engine.live_handles()
    picks = sample_rng.sample(live, min(len(live), HANDLE_SAMPLES_PER_RUN))
    return RegionOutcome(
        shares=export_rows(engine, rows),
        meter=engine.meter,
        submit_report=report,
        opened_log=engine.opened_log,
        transcript=engine.transcript,
        handle_samples=[engine.export_shares(h) for h in picks],
    )


def run_scenario(scenario: Scenario, record_transcript: bool = False,
                 threads: int = 1) -> RunResult:
    # threads is unread, kept while bench/run.py passes it; drop both together
    meters = build_meters(scenario)
    readings = generate_readings(scenario, meters, slot=0)
    started = time.perf_counter()
    meter = CostMeter()
    regions, included, excluded, admitted = [], [], [], []
    leaked, samples, opened, delivered = {}, [], [], 0
    transcript = [] if record_transcript else None
    offset = 0  # rounds of the regions so far
    for j in range(1, scenario.n_dno + 1):
        o = _run_region(scenario, j, [m for m in meters if m.region == j],
                        readings, record_transcript)
        meter.merge(o.meter)
        regions.append(o.shares)
        report = o.submit_report
        included.extend(report.included)
        excluded.extend(report.excluded)
        admitted.append(len(report.included))
        delivered += report.delivered_bundles
        if o.shares.leaked_counts is not None:
            leaked[str(j)] = o.shares.leaked_counts
        samples.extend(o.handle_samples)
        opened.extend(o.opened_log)
        if transcript is not None:
            transcript.extend((rnd + offset, links, f"r{j}.h{h}")
                              for rnd, links, h in o.transcript)
            offset += o.meter.total().rounds
        del o  # the region's own transcript is merged; free it

    dist = distribute_outputs(grid_aggregate(regions), scenario.params)
    meter.bucket("output_distribution").msgs_dcc_to_recipients += dist.messages
    wall = time.perf_counter() - started
    if transcript is not None:
        transcript.extend((offset + 1, *record) for record in dist.records)

    sample_rng = random.Random(derive_seed(scenario.seed, "sample", "grid"))
    if len(samples) > HANDLE_SAMPLES_PER_RUN:
        samples = sample_rng.sample(samples, HANDLE_SAMPLES_PER_RUN)

    return RunResult(
        scenario=scenario,
        bundles=dist.bundles,
        oracle=plaintext_totals(meters, readings, set(included),
                                scenario.n_dno, scenario.n_suppliers),
        meter=meter,
        leaked=leaked,
        excluded=sorted(excluded),
        admitted=admitted,
        transcript=transcript,
        handle_samples=samples,
        opened_log=opened,
        delivered_bundles=delivered,
        wall_seconds=wall,
    )


def check_result(run: RunResult) -> list[str]:
    """Compare every opened output against the plaintext oracle: the grid
    operator's view key by key, every other recipient's bundle whole."""
    tso = run.bundles["tso"]
    problems = [f"{key}: protocol {tso.get(key)!r} != oracle {want!r}"
                for key, want in run.oracle.items() if tso.get(key) != want]
    for name, want in recipient_bundles(run.oracle).items():
        if name != "tso" and run.bundles.get(name) != want:
            problems.append(f"{name} bundle mismatch")
    return problems


# -- artifact writers -------------------------------------------------------

def write_matrix_csv(run: RunResult, path: str) -> None:
    tso = run.bundles["tso"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["region", "supplier", *STREAMS])
        for j in range(run.scenario.n_dno):
            for k in range(run.scenario.n_suppliers):
                w.writerow([j + 1, k + 1] + [
                    tso[f"{s}_matrix"][j][k] for s in STREAMS
                ])


def write_bundles_json(run: RunResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(run.bundles, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows_csv(rows: list[dict], fh) -> None:
    """Cost-table rows as CSV into an open file; None cells stay empty."""
    w = csv.DictWriter(fh, fieldnames=costs.TABLE_COLUMNS)
    w.writeheader()
    w.writerows(rows)


def write_report(report: dict, out_dir: str, fmt: str) -> None:
    if fmt == "json":
        with open(os.path.join(out_dir, "cost_report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(os.path.join(out_dir, "cost_report.csv"), "w",
                  newline="") as fh:
            write_rows_csv(report_rows(report), fh)


def write_transcript(run: RunResult, path: str) -> None:
    """One line ``round,sender,receiver,handle,bytes`` per link of each record.

    Every link carries one share of ``SHARE_BYTES`` bytes.  A record's lines
    are ``label.join(pieces)``, the pieces being the text between its
    labels.  They depend only on the round and the links, so they are cut
    once for each run of records that share both (a product round's records
    share one links tuple, and so do a bundle's deliveries), and each record
    is written on its own: the file's text is never held whole.
    """
    tail = f",{SHARE_BYTES}\n"
    with open(path, "w") as fh:
        fh.write("round,sender,receiver,handle,bytes\n")
        write = fh.write
        cut = at = None  # links and round of the pieces
        for rnd, links, label in run.transcript:
            if links is not cut or rnd != at:
                cut, at = links, rnd
                head = f"{rnd},"
                sep = tail + head
                pieces = [head + links[0] + ","]
                pieces += [sep + link + "," for link in links[1:]]
                pieces.append(tail)
            write(label.join(pieces))


# -- subcommands -------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        CostParams(threads=args.threads)  # check --threads before the run
        scenario = Scenario.from_file(args.scenario)
        env_seed = os.environ.get(SEED_ENV)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ValueError(f"{SEED_ENV} must be an integer, "
                                 f"got {env_seed!r}") from None
            scenario = replace(scenario, seed=seed)
    except (MeterShareError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        run = run_scenario(scenario, record_transcript=bool(args.out))
        report = build_report(run, threads=args.threads)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_matrix_csv(run, os.path.join(args.out, "aggregates.csv"))
            write_bundles_json(run, os.path.join(args.out, "bundles.json"))
            write_report(report, args.out, args.format)
            write_transcript(run, os.path.join(args.out, "transcript.log"))
    except (MeterShareError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    mult_eq = run.meter.total().mult_equivalents
    if mult_eq:
        per_mult = run.wall_seconds / mult_eq
        print(f"measured {mult_eq} mult-equivalents in "
              f"{run.wall_seconds:.3f} s ({per_mult * 1e6:.1f} us each, "
              f"informational)")
    else:
        print(f"no interactive operations; wall {run.wall_seconds:.3f} s")

    if args.check:
        problems = check_result(run)
        if problems:
            for p in problems:
                print(f"MISMATCH {p}", file=sys.stderr)
            return 2
        print(f"check ok: all outputs match the plaintext oracle "
              f"({len(run.excluded)} meters excluded by faults)")
    return 0


def _cost_params(args) -> CostParams:
    return CostParams(**{f.name: getattr(args, f.name)
                         for f in fields(CostParams)})


def parse_sweep(spec: str) -> list[int]:
    """Parse 'sm=START:STOP:STEP' with K/M suffixes into meter counts.

    Each count must be a whole number once scaled: '1.5k' is 1500, while
    '0.5' or '1.7' is refused rather than truncated.
    """
    # imported here: decimal adds about 0.4 MiB to every process that
    # loads it, and only the sweep needs exact decimal scaling
    from decimal import Decimal, InvalidOperation

    def num(part):
        text = part.strip().lower()
        mult = 1
        if text.endswith("m"):
            mult, text = 1_000_000, text[:-1]
        elif text.endswith("k"):
            mult, text = 1_000, text[:-1]
        try:
            value = Decimal(text) * mult
        except InvalidOperation:
            raise ValueError(f"sweep count {part!r} is not a number") from None
        if not value.is_finite() or value != value.to_integral_value():
            raise ValueError(
                f"sweep count {part!r} is not a whole number of meters"
            )
        return int(value)

    if "=" in spec:
        name, _, rng = spec.partition("=")
        if name.strip() != "sm":
            raise ValueError(f"only the sm parameter can be swept, got {name!r}")
    else:
        rng = spec
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError("sweep spec must be sm=START:STOP:STEP")
    start, stop, step = (num(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("sweep range must increase")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep spec asks for {count} points, "
                         f"at most {MAX_SWEEP_POINTS} are allowed")
    return list(range(start, stop + 1, step))


def cmd_costs(args) -> int:
    try:
        params = _cost_params(args)
        table = costs.build_table(params, trusted_tso=args.trusted_tso)
        sweep = costs.sweep_series(params, parse_sweep(args.sweep),
                                   trusted_tso=args.trusted_tso) \
            if args.sweep else {}
    except (ValueError, MeterShareError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    # sweep series are CSV; on stdout each follows a "# sweep" line
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        with _output(args.out, f"cost_table.{args.format}") as fh:
            if args.format == "json":
                json.dump(table, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                write_rows_csv(table, fh)
        for name, rows in sweep.items():
            if not args.out:
                print(f"# sweep {name}")
            with _output(args.out, f"sweep_{name}.csv") as fh:
                w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                w.writeheader()
                w.writerows(rows)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _output(out_dir: str | None, name: str):
    """``name`` in ``out_dir`` opened for writing; stdout if no directory."""
    if out_dir is None:
        return contextlib.nullcontext(sys.stdout)
    return open(os.path.join(out_dir, name), "w", newline="")


# -- selftest ----------------------------------------------------------------

def selftest_shamir(trials: int = 400) -> str | None:
    rng = random.Random(20_08)
    for _ in range(trials):
        n = rng.choice([3, 5, 7])
        t = rng.randint(1, (n - 1) // 2)
        params = SharingParams(n, t)
        secret = rng.randrange(field.PRIME)
        shares = share(secret, params, rng)
        picked = rng.sample(shares, t + 1)
        if reconstruct(picked) != secret:
            return f"reconstruction failed for n={n}, t={t}"
        # one altered share among all n must be caught, not interpolated
        k = rng.randrange(n)
        shares[k] = Share(k + 1, (shares[k].value + 1) % field.PRIME, t)
        try:
            reconstruct(shares)
        except InconsistentShares:
            continue
        return f"tampered share went undetected for n={n}, t={t}"
    return None


def selftest_equality(width: int = 8, pairs=None) -> str | None:
    space = 1 << width
    if pairs is None:
        pairs = ((x, y) for x in range(space) for y in range(space))
    # one engine per secret x, every public y paired with it in one batch
    by_x: dict = {}
    for x, y in pairs:
        by_x.setdefault(x, []).append(y)
    for x, ys in by_x.items():
        engine = Engine(SharingParams(3, 1), seed=x)
        bits = [engine.input(x >> (width - 1 - k) & 1) for k in range(width)]
        with engine.phase("equality"):
            outs = equals_public_batch(engine, [(bits, y) for y in ys], width)
            opened = engine.open_batch(outs)
        for y, got in zip(ys, opened):
            if got != (1 if x == y else 0):
                return f"equals({x}, {y}) opened to {got}"
        pc = engine.meter.bucket("equality")
        if pc.multiplications != width * len(ys) \
                or pc.rounds > width.bit_length() + 1:
            return (f"equals({x}, y) for {len(ys)} values of y used "
                    f"{pc.multiplications} mults in {pc.rounds} rounds")
    return None


def selftest_equivalence(seed: int = 424242) -> str | None:
    for alg in ("naa", "ncaa", "niaa"):
        scenario = Scenario(
            n_dno=2, n_suppliers=4, sm_per_region=[12, 9],
            seed=seed, sigma=6, algorithm=alg,
        )
        run = run_scenario(scenario)
        problems = check_result(run)
        if problems:
            return f"{alg}: {problems[0]}"
    return None


def cmd_selftest(_args) -> int:
    stages = [
        ("shamir_roundtrip", selftest_shamir),
        ("equality_exhaustive", selftest_equality),
        ("aggregation_equivalence", selftest_equivalence),
    ]
    failures = 0
    for name, fn in stages:
        started = time.perf_counter()
        try:
            problem = fn()
        except Exception as e:  # a broken build may raise anywhere
            problem = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - started
        if problem is None:
            print(f"PASS {name} ({elapsed:.1f}s)")
        else:
            failures += 1
            print(f"FAIL {name}: {problem}")
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any bad input; exit 2 means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metershare",
        description="secret-sharing smart-metering aggregation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--check", action="store_true",
                       help="compare outputs against the plaintext oracle")
    p_run.add_argument("--out", default=None, help="artifact directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="json",
                       help="cost report format")
    p_run.add_argument("--threads", type=int, default=CostParams.threads,
                       help="threads the cost report's CPU projection assumes")
    p_run.set_defaults(func=cmd_run)

    def add_cost_flags(p):
        # one flag per CostParams field, with the field's type and default
        for f in fields(CostParams):
            if f.name == "sm_per_region":
                p.add_argument("--sm", dest=f.name, metavar="SM", type=f.type,
                               default=f.default, help="meters per region")
            else:
                p.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                               default=f.default)
        p.add_argument("--trusted-tso", action="store_true",
                       help="recipient traffic via the grid operator only")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_costs = sub.add_parser("costs", help="print the analytic cost table")
    add_cost_flags(p_costs)
    p_costs.add_argument("--sweep", default=None,
                         help="also emit series, e.g. sm=0.5M:4M:0.5M")
    p_costs.set_defaults(func=cmd_costs)

    p_sweep = sub.add_parser("sweep", help="emit curve series over meter counts")
    add_cost_flags(p_sweep)
    p_sweep.add_argument("sweep", metavar="spec",
                         help="range spec, e.g. sm=0.5M:4M:0.5M")
    p_sweep.set_defaults(func=cmd_costs)

    p_self = sub.add_parser("selftest", help="run built-in correctness checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
