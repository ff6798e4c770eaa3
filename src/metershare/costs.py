"""Closed-form cost model, the run cost report and its comparison.

The analytic side covers the three share-based aggregation algorithms
plus two baseline collection protocols: ``trad`` (meters send plaintext
to a single hub) and ``dep2sa`` (meters send homomorphic ciphertexts).
Communication is expressed in bits with the nominal 63-bit share width;
the simulator's measured traffic uses the 10-byte wire form of a share,
so reports carry both numbers side by side.  ``build_report`` writes a
finished run's report and ``compare`` reads it.
"""

from collections import Counter
from dataclasses import dataclass, fields as dfields, replace
import math

from . import field
from .aggregation import BOTH_STREAMS, STREAMS
from .errors import UnknownRow
from .metering import ALGORITHMS
from .shamir import SHARE_BYTES

PROTOCOLS = ("trad", "dep2sa", *ALGORITHMS)
SEGMENTS = ("sms_to_dcc", "between_dcc", "dcc_to_recipients")

# messages between the servers per multiplication (or open) in the paper's
# 3-server model, n*(n-1) at n = 3; the engine counts (2t+1)*(live-1) per
# product and every live holder to every other live party per open
MESSAGES_PER_MULT = 6

# bit widths of the paper's model
DATA_BITS = 32          # one plaintext reading
SHARE_BITS = 63         # one share on the wire, nominal
BLIND_BITS = 32         # blinding randomness (dep2sa)
SYM_CIPHER_BITS = 128   # symmetric ciphertext
PUB_CIPHER_BITS = 1024  # public-key ciphertext

# one cost-table row: protocol, segment, the grid shape, then the values
SHAPE_COLUMNS = ("n_dno", "n_suppliers", "sigma", "sm_per_region", "threads")
TABLE_COLUMNS = (
    "protocol", "segment", *SHAPE_COLUMNS, "formula_bits", "measured_bits",
    "formula_mults", "measured_mult_equivalents", "cpu_seconds",
)


@dataclass(frozen=True)
class CostParams:
    """Grid shape and CPU model; defaults sized for the UK retail market."""

    n_dno: int = 14
    n_suppliers: int = 10
    sigma: int = 8               # supplier ID bit length
    sm_per_region: int = 2_200_000
    per_mult_seconds: float = 20.8e-6
    threads: int = 1

    def __post_init__(self):
        for f in dfields(self):
            value = getattr(self, f.name)
            # compared, not passed to math.isfinite, which raises on huge
            # ints; up to 2**53 counts are exact floats and no formula
            # overflows
            if not value <= 2 ** 53:
                raise UnknownRow(f"{f.name} must be finite and at most 2**53")
            if value <= 0:
                raise UnknownRow(f"{f.name} must be positive")


def formula_mults(algorithm: str, params: CostParams,
                  variant: str = "table") -> float:
    """Per-region multiplication count of one aggregation algorithm.

    ``table`` is the headline n*log2(n) form; ``batcher`` substitutes the
    odd-even merge network's n*log2(n)^2 gates with three multiplication
    equivalents per permuted item.
    """
    m = params.sm_per_region
    ns = params.n_suppliers
    if algorithm == "naa":
        return params.sigma * m * ns + m * ns
    if algorithm == "ncaa":
        lg = math.log2(m) if m > 1 else 0.0
        if variant == "table":
            return 2 * (m * lg + m)
        if variant == "batcher":
            return 2 * (3 * m * lg * lg + m)
        raise UnknownRow(f"unknown ncaa variant {variant!r}")
    if algorithm == "niaa":
        return 0
    raise UnknownRow(f"no multiplication count for {algorithm!r}")


def formula_comm(protocol: str, segment: str, params: CostParams,
                 trusted_tso: bool = False) -> float:
    """Bits moved in one grid-wide slot for a protocol/segment pair.

    ``trusted_tso`` switches the recipient segment of the share-based
    protocols to the variant where only the grid operator receives
    shares and re-encrypts one symmetric message per other recipient.
    """
    if protocol not in PROTOCOLS or segment not in SEGMENTS:
        raise UnknownRow(f"no table entry for {protocol!r}/{segment!r}")
    nd, ns, m = params.n_dno, params.n_suppliers, params.sm_per_region
    x, s, r, big_c = DATA_BITS, SHARE_BITS, BLIND_BITS, PUB_CIPHER_BITS

    if protocol == "trad":
        return {
            "sms_to_dcc": 2 * nd * m * x,
            "between_dcc": 0,
            "dcc_to_recipients": 6 * nd * ns * x,
        }[segment]
    if protocol == "dep2sa":
        return {
            "sms_to_dcc": 2 * nd * m * big_c,
            "between_dcc": 0,
            "dcc_to_recipients": 2 * nd * ns * (2 * big_c + x + r),
        }[segment]

    if segment == "sms_to_dcc":
        if protocol == "niaa":
            return 6 * nd * m * ns * s
        return 12 * nd * m * s
    if segment == "between_dcc":
        if protocol == "niaa":
            return 0
        return MESSAGES_PER_MULT * s * formula_mults(protocol, params)
    if trusted_tso:
        return 6 * nd * ns * s + (nd + ns) * SYM_CIPHER_BITS
    return 18 * nd * ns * s


def extrapolate_cpu(mult_count: float, params: CostParams) -> float:
    """Projected CPU seconds for a multiplication count, split over threads."""
    return mult_count * params.per_mult_seconds / params.threads


def table_row(protocol: str, segment: str, shape: dict, **values) -> dict:
    """One cost-table row; value columns not given in ``values`` are None.

    ``shape`` holds the ``SHAPE_COLUMNS`` of the grid the row describes.
    """
    row = dict.fromkeys(TABLE_COLUMNS)
    row.update(protocol=protocol, segment=segment, **shape, **values)
    return row


def build_table(params: CostParams, trusted_tso: bool = False) -> list[dict]:
    """Full analytic table: every protocol/segment plus per-algorithm compute."""
    shape = {c: getattr(params, c) for c in SHAPE_COLUMNS}
    rows = [
        table_row(proto, seg, shape,
                  formula_bits=formula_comm(proto, seg, params, trusted_tso))
        for proto in PROTOCOLS for seg in SEGMENTS
    ]
    compute = [(alg, "region_multiplications", "table") for alg in ALGORITHMS]
    compute.append(("ncaa", "region_multiplications_batcher", "batcher"))
    for alg, segment, variant in compute:
        mults = formula_mults(alg, params, variant)
        rows.append(table_row(alg, segment, shape, formula_mults=mults,
                              cpu_seconds=extrapolate_cpu(mults, params)))
    return rows


def sweep_series(params: CostParams, m_values: list[int]) -> dict:
    """Curve points over meter-population sizes, one table per plot.

    ``compute`` carries multiplication counts and projected CPU seconds
    per algorithm; the three ``comm_*`` tables carry bits per protocol.
    """
    compute = []
    comm = {seg: [] for seg in SEGMENTS}
    for m in m_values:
        p = replace(params, sm_per_region=m)
        row = {"sm_per_region": m}
        for alg in ALGORITHMS:
            mults = formula_mults(alg, p)
            row[f"{alg}_mults"] = mults
            row[f"{alg}_cpu_seconds"] = extrapolate_cpu(mults, p)
        row["ncaa_batcher_mults"] = formula_mults("ncaa", p, variant="batcher")
        compute.append(row)
        for seg in SEGMENTS:
            comm[seg].append({
                "sm_per_region": m,
                **{proto: formula_comm(proto, seg, p) for proto in PROTOCOLS},
            })
    return {"compute": compute, **{f"comm_{seg}": comm[seg] for seg in SEGMENTS}}


def bytes_from_transcript(records: list[tuple]) -> dict:
    """Classify transcript links into the three traffic segments.

    ``records`` are ``(round, links, handle)`` message groups (see ``abb``);
    each ``"sender,receiver"`` link is one share of ``SHARE_BYTES``.
    Senders named sm* are meters, p* are servers; any other receiver is an
    output party.  Returns byte totals per segment for cross-checking the
    meter.

    Records share their links tuples (see ``abb``), so records are counted
    per links tuple first and each distinct tuple is classified once.
    """
    out = {seg: 0 for seg in SEGMENTS}
    for links, count in Counter(links for _, links, _ in records).items():
        for link in links:
            sender, receiver = link.split(",")
            if sender.startswith("sm") or sender == "dealer":
                out["sms_to_dcc"] += count
            elif receiver.startswith("p"):
                out["between_dcc"] += count
            else:
                out["dcc_to_recipients"] += count
    return {seg: shares * SHARE_BYTES for seg, shares in out.items()}


# -- the run cost report ------------------------------------------------------

def _region_params(scenario, m: int) -> CostParams:
    """The cost model of one region of ``m`` meters of a run's scenario."""
    return CostParams(n_dno=1, n_suppliers=scenario.n_suppliers,
                      sigma=scenario.sigma, sm_per_region=m)


def region_mult_rows(scenario, meter, region: int, included: int) -> list:
    """Per-region measured multiplication counters with analytic references.

    ``meter`` is the region engine's ``CostMeter``; ``included`` counts the
    meters whose tuples entered the region's aggregation.
    """
    alg = scenario.algorithm

    def formula(variant="table"):
        # CostParams needs a positive region size; an empty region costs 0
        if not included:
            return 0.0 if alg == "ncaa" else 0
        return formula_mults(alg, _region_params(scenario, included), variant)

    rows = []
    if alg in ("naa", "niaa"):
        # naa's streams share one phase, whose formula counts both
        phases = ([(BOTH_STREAMS, len(STREAMS))] if alg == "naa"
                  else [(stream, 1) for stream in STREAMS])
        for stream, streams in phases:
            pc = meter.matching(f"region_aggregation/{region}/{stream}")
            rows.append({
                "region": region,
                "stream": stream,
                "included_sms": included,
                "measured_mults": pc.multiplications,
                "formula_mults": streams * formula(),
                "opens": pc.opens,
                "rounds": pc.rounds,
            })
        return rows
    # permutation algorithm: control-bit generation is precomputed per
    # stream under its own label; fold it into the stream's cost here
    gates_total = 0
    measured_eq = 0
    opens = 0
    for stream in STREAMS:
        pc = meter.matching(f"region_aggregation/{region}/{stream}")
        rnd = meter.matching(f"randomness_setup/{region}/{stream}")
        gates_total += pc.exchange_gates
        measured_eq += pc.mult_equivalents + rnd.mult_equivalents
        opens += pc.opens
    gates_one = gates_total // 2
    rows.append({
        "region": region,
        "included_sms": included,
        "exchange_gates_per_stream": gates_one,
        "measured_mult_equivalents": measured_eq,
        "formula_table": formula("table"),
        "formula_batcher": formula("batcher"),
        "nominal_three_per_item": 2 * (gates_one * 3 * 2 + included),
        "opens": opens,
    })
    return rows


def build_report(run, threads: int = 1) -> dict:
    """The cost report of a finished ``cli.RunResult``: formula vs measured.

    ``threads`` only sets the CPU projection of the ``cpu`` section.
    """
    sc = run.scenario
    total = run.meter.total()
    alg = sc.algorithm
    # the per-region formulas; an empty region moves and multiplies nothing
    regions = [_region_params(sc, m) for m in sc.sm_per_region if m]
    # recipient traffic does not scale with meter counts
    grid = CostParams(n_dno=sc.n_dno, n_suppliers=sc.n_suppliers,
                      sigma=sc.sigma, sm_per_region=1)

    seg_measured = {
        "sms_to_dcc": (total.msgs_sm_to_dcc, total.bytes_sm_to_dcc),
        "between_dcc": (total.msgs_between_dcc, total.bytes_between_dcc),
        "dcc_to_recipients": (
            total.msgs_dcc_to_recipients, total.bytes_dcc_to_recipients
        ),
    }
    segments = {}
    for seg, (msgs, nbytes) in seg_measured.items():
        if seg == "dcc_to_recipients":
            formula_bits = formula_comm(alg, seg, grid)
        else:
            formula_bits = sum(formula_comm(alg, seg, p) for p in regions)
        nominal = msgs * SHARE_BITS
        if seg == "sms_to_dcc" and alg in ("naa", "ncaa"):
            # the paper's bundle carries four shared fields
            nominal_formula_fields = 4 * run.delivered_bundles * SHARE_BITS
        else:
            nominal_formula_fields = nominal
        segments[seg] = {
            "formula_bits": formula_bits,
            "measured_messages": msgs,
            "measured_bits": nbytes * 8,
            "nominal_bits_63": nominal,
            "nominal_bits_63_formula_fields": nominal_formula_fields,
            "headline_bits": (
                nominal_formula_fields if sc.byte_accounting == "paper"
                else nbytes * 8
            ),
        }

    cpu_params = CostParams(threads=threads)
    # naa's region formula counts one stream, ncaa's table both
    streams = len(STREAMS) if alg == "naa" else 1
    formula_region_mults = streams * sum(formula_mults(alg, p) for p in regions)
    report = {
        "metadata": {
            "prime": field.PRIME,
            "share_bits": SHARE_BITS,
            "share_bytes": SHARE_BYTES,
            "network": "batcher_odd_even_merge",
            **sc.to_dict(),
        },
        "segments": segments,
        "multiplications": {
            "per_region": run.mult_rows,
            "measured_total": total.multiplications,
            "opens_total": total.opens,
            "mult_equivalents_total": total.mult_equivalents,
            "rounds_total": total.rounds,
            "random_bits_total": total.random_bits,
            "exchange_gates_total": total.exchange_gates,
        },
        "cpu": {
            "per_mult_seconds": cpu_params.per_mult_seconds,
            "threads": cpu_params.threads,
            "projected_seconds_formula": extrapolate_cpu(
                formula_region_mults, cpu_params
            ),
            "projected_seconds_measured": extrapolate_cpu(
                total.mult_equivalents, cpu_params
            ),
        },
        "faults": {
            "excluded_sms": run.excluded,
            "delivered_bundles": run.delivered_bundles,
            # every meter sends one bundle to each server, dead ones too
            "dropped_bundles":
                sc.n_servers * sum(sc.sm_per_region) - run.delivered_bundles,
            "fail_servers": list(sc.fail_servers),
            "empty_regions": run.empty_regions,
        },
        "leakage": run.leaked,
    }
    report["compare"] = compare(report)
    return report


def report_rows(report: dict) -> list[dict]:
    """Flatten a run report into cost-table rows, one per segment plus compute.

    The compute row's formula sums the regions' table formula: naa's
    both-stream and niaa's per-stream ``formula_mults``, ncaa's
    ``formula_table``.
    """
    md = report["metadata"]
    alg = md["algorithm"]
    mults = report["multiplications"]
    shape = {
        "n_dno": md["n_dno"],
        "n_suppliers": md["n_suppliers"],
        "sigma": md["sigma"],
        "sm_per_region": "/".join(str(m) for m in md["sm_per_region"]),
        "threads": report["cpu"]["threads"],
    }
    rows = [
        table_row(alg, seg, shape, formula_bits=data["formula_bits"],
                  measured_bits=data["headline_bits"])
        for seg, data in report["segments"].items()
    ]
    key = "formula_table" if alg == "ncaa" else "formula_mults"
    rows.append(table_row(
        alg, "region_multiplications", shape,
        formula_mults=sum(r[key] for r in mults["per_region"]),
        measured_mult_equivalents=mults["mult_equivalents_total"],
        cpu_seconds=report["cpu"]["projected_seconds_measured"],
    ))
    return rows


def compare(report: dict) -> list[dict]:
    """Verdict rows for a finished run: exact checks plus ratio rows.

    The equality-test algorithm must hit its formula exactly and the
    one-hot algorithm must be silent between servers; the permutation
    algorithm's measured cost is reported against both analytic forms
    without a pass/fail, since the printed formula models a different
    network family.
    """
    alg = report["metadata"]["algorithm"]
    mult = report["multiplications"]
    per_region = mult["per_region"]
    rows = []
    if alg == "naa":
        expected = [r["formula_mults"] for r in per_region]
        actual = [r["measured_mults"] for r in per_region]
        rows.append({
            "check": "naa_mults_exact",
            "expected": expected,
            "actual": actual,
            "match": expected == actual,
        })
    elif alg == "niaa":
        between = report["segments"]["between_dcc"]
        rows.append({
            "check": "niaa_zero_interaction",
            "expected": 0,
            "actual": [mult["measured_total"], between["measured_bits"]],
            "match": mult["measured_total"] == 0
            and between["measured_bits"] == 0,
        })
    else:
        actual = [r["measured_mult_equivalents"] for r in per_region]
        for name, key in (
            ("table_formula", "formula_table"),
            ("batcher_formula", "formula_batcher"),
            ("nominal_three_per_item", "nominal_three_per_item"),
        ):
            expected = [r[key] for r in per_region]
            rows.append({
                "check": f"ncaa_measured_vs_{name}",
                "expected": expected,
                "actual": actual,
                "match": None,  # informational: different network families
                "ratio": [a / e if e else None
                          for a, e in zip(actual, expected)],
            })
    return rows
