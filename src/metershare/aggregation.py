"""Region-level aggregation circuits and grid-level assembly.

Three interchangeable region algorithms produce, per supplier and per
flow direction (imported and exported energy), a sharing of the summed
readings:

* ``naa_region``    routes every reading by a secret equality test
                    against each registered supplier ID.
* ``ncaa_region``   obliviously permutes the tuples, opens the supplier
                    IDs, and routes publicly; it trades multiplications
                    for a controlled leak of per-supplier counts.
* ``niaa_region``   receives one-hot vectors and only adds shares, at
                    zero interactive cost.

Cells are kept as share groups keyed by the set of servers holding them,
so partial deliveries under transport faults stay reconstructable group
by group.  Nothing here opens an energy value: outputs leave the servers
as shares and are reconstructed by their recipients.
"""

from dataclasses import dataclass, field as dfield

from . import field
from .abb import Engine, Handle
from .errors import InsufficientShares, OpenedIdInvalid, VectorLengthMismatch
from .gates import compose_bits_batch, equals_public_batch, oblivious_permute
from .shamir import SHARE_BYTES, Share, SharingParams, reconstruct

STREAMS = ("imp", "exp")

# One matrix cell: {server mask -> {server index -> share value}}.
# Healthy runs have a single group holding all live servers.
CompositeCell = dict


def merge_cells(acc: CompositeCell, extra: CompositeCell) -> None:
    """Share-wise sum of two cells, group by group."""
    for mask, shares in extra.items():
        mine = acc.get(mask)
        if mine is None:
            acc[mask] = dict(shares)
        else:
            for party, v in shares.items():
                mine[party] = (mine[party] + v) % field.PRIME


def reconstruct_cell(cell: CompositeCell, t: int,
                     failed: frozenset = frozenset()) -> int:
    """Recipient-side recovery: interpolate each group and sum.

    Raises InsufficientShares when any group has fewer than t+1 shares
    left; a partially lost group can never be silently dropped, because
    that would change the total.
    """
    total = 0
    for mask, shares in cell.items():
        alive = [(party, v) for party, v in shares.items() if party not in failed]
        if len(alive) < t + 1:
            raise InsufficientShares(
                f"cell group {mask} has {len(alive)} shares, needs {t + 1}"
            )
        total += reconstruct(
            [Share(party, v, t) for party, v in sorted(alive)]
        )
    return total % field.PRIME


@dataclass
class BitwiseTuple:
    """Per-meter submission in bit-shared form (equality-test algorithms)."""

    sm: int
    imp_bits: list
    exp_bits: list
    imp_energy: Handle
    exp_energy: Handle


@dataclass
class OneHotTuple:
    """Per-meter submission as two one-hot share vectors."""

    sm: int
    imp_vector: list
    exp_vector: list


@dataclass
class RegionRows:
    """Aggregated per-supplier cells of one region, still as handles."""

    region: int
    imp: list            # per supplier: list of group handles
    exp: list
    leaked_counts: dict | None = None
    empty: bool = False


@dataclass
class RegionShares:
    """Region rows exported from the engine as raw share groups."""

    region: int
    imp: list            # per supplier: CompositeCell
    exp: list
    leaked_counts: dict | None = None
    empty: bool = False


def _zero_rows(engine: Engine, n_suppliers: int, region: int,
               leaked: dict | None = None) -> RegionRows:
    zero = engine.constant(0)
    return RegionRows(
        region=region,
        imp=[[zero] for _ in range(n_suppliers)],
        exp=[[zero] for _ in range(n_suppliers)],
        leaked_counts=leaked,
        empty=True,
    )


def naa_region(engine: Engine, tuples: list[BitwiseTuple], suppliers: list[int],
               sigma: int, region: int = 1) -> RegionRows:
    """Equality-test routing: m * N_s * (sigma + 1) products per stream.

    Every (meter, supplier) pair runs one secret-vs-public equality test
    (sigma products) and one product gating the reading by the match bit.
    An ID matching no registered supplier contributes to no bucket; the
    submission validator is expected to have rejected it already.
    """
    if not tuples:
        return _zero_rows(engine, len(suppliers), region)
    rows = RegionRows(region=region, imp=[], exp=[])
    for stream in STREAMS:
        with engine.phase(f"region_aggregation/{region}/{stream}"):
            bits_of = (lambda r: r.imp_bits) if stream == "imp" else (lambda r: r.exp_bits)
            energy_of = (lambda r: r.imp_energy) if stream == "imp" else (lambda r: r.exp_energy)
            queries = [
                (bits_of(rec), u) for rec in tuples for u in suppliers
            ]
            matches = equals_public_batch(engine, queries, sigma)
            gated = engine.product_batch([
                (matches[i * len(suppliers) + k], energy_of(rec))
                for i, rec in enumerate(tuples)
                for k in range(len(suppliers))
            ])
            engine.release(matches)
            cells = []
            for k in range(len(suppliers)):
                terms = [
                    (1, gated[i * len(suppliers) + k])
                    for i in range(len(tuples))
                ]
                cells.append([engine.lincomb(terms)])
            engine.release(gated)
            if stream == "imp":
                rows.imp = cells
            else:
                rows.exp = cells
    return rows


def ncaa_region(engine: Engine, tuples: list[BitwiseTuple], suppliers: list[int],
                sigma: int, region: int = 1) -> RegionRows:
    """Permute-then-open routing; leaks per-supplier tuple counts only.

    Each stream is independently shuffled under secret control bits, the
    supplier IDs of the shuffled tuples are opened, and the readings are
    then routed by public index at zero interactive cost.  The opened ID
    multiset equals the true membership counts; the association between
    IDs and submitting meters is destroyed by the permutation.
    """
    if not tuples:
        return _zero_rows(engine, len(suppliers), region,
                          leaked={s: {u: 0 for u in suppliers} for s in STREAMS})
    registry = set(suppliers)
    leaked: dict = {}
    out: dict = {}
    for stream in STREAMS:
        with engine.phase(f"region_aggregation/{region}/{stream}"):
            bits_of = (lambda r: r.imp_bits) if stream == "imp" else (lambda r: r.exp_bits)
            energy_of = (lambda r: r.imp_energy) if stream == "imp" else (lambda r: r.exp_energy)
            ids = compose_bits_batch(engine, [bits_of(rec) for rec in tuples])
            rows = [(h, energy_of(rec)) for h, rec in zip(ids, tuples)]
            mark = rows[0][0]
            # control bits open blinded squares; keep those opens out of
            # this phase so it reveals supplier IDs and nothing else
            shuffled = oblivious_permute(
                engine, rows,
                setup_phase=f"randomness_setup/{region}/{stream}",
            )
            ids = engine.open_batch([r[0] for r in shuffled], kind="supplier_id")
            counts = {u: 0 for u in suppliers}
            buckets: dict = {u: [] for u in suppliers}
            for opened, (_, payload) in zip(ids, shuffled):
                if opened not in registry:
                    raise OpenedIdInvalid(
                        f"opened ID {opened} matches no registered supplier"
                    )
                counts[opened] += 1
                buckets[opened].append((1, payload))
            cells = []
            for u in suppliers:
                if buckets[u]:
                    cells.append([engine.lincomb(buckets[u])])
                else:
                    cells.append([engine.constant(0)])
            # a single row comes back unshuffled, so dedupe; meter inputs
            # (below mark) stay live
            engine.release({h for row in rows + shuffled for h in row
                            if h >= mark})
            out[stream] = cells
            leaked[stream] = counts
    return RegionRows(region=region, imp=out["imp"], exp=out["exp"],
                      leaked_counts=leaked)


def niaa_region(engine: Engine, tuples: list[OneHotTuple], n_suppliers: int,
                region: int = 1) -> RegionRows:
    """One-hot aggregation: pure share addition, no messages at all.

    Tuples whose shares reached different server subsets are summed in
    separate groups so each group stays reconstructable on its own.
    """
    if not tuples:
        return _zero_rows(engine, n_suppliers, region)
    for rec in tuples:
        if len(rec.imp_vector) != n_suppliers or len(rec.exp_vector) != n_suppliers:
            raise VectorLengthMismatch(
                f"meter {rec.sm} sent a vector of the wrong length"
            )
    rows = RegionRows(region=region, imp=[], exp=[])
    for stream in STREAMS:
        with engine.phase(f"region_aggregation/{region}/{stream}"):
            vec_of = (lambda r: r.imp_vector) if stream == "imp" else (lambda r: r.exp_vector)
            cells = []
            for k in range(n_suppliers):
                by_mask: dict = {}
                for rec in tuples:
                    h = vec_of(rec)[k]
                    by_mask.setdefault(tuple(engine.handle_mask(h)), []).append((1, h))
                if by_mask:
                    groups = [
                        engine.lincomb(terms)
                        for _, terms in sorted(by_mask.items())
                    ]
                else:
                    groups = [engine.constant(0)]
                cells.append(groups)
            if stream == "imp":
                rows.imp = cells
            else:
                rows.exp = cells
    return rows


def export_rows(engine: Engine, rows: RegionRows) -> RegionShares:
    """Freeze region cells into raw share groups held by live servers."""

    def export_cell(handles: list) -> CompositeCell:
        cell: CompositeCell = {}
        for h in handles:
            shares = engine.export_shares(h)
            merge_cells(cell, {tuple(sorted(shares)): shares})
        return cell

    return RegionShares(
        region=rows.region,
        imp=[export_cell(c) for c in rows.imp],
        exp=[export_cell(c) for c in rows.exp],
        leaked_counts=rows.leaked_counts,
        empty=rows.empty,
    )


@dataclass
class SharedMatrix:
    """Grid-wide aggregate: the region-by-supplier cells, still shared."""

    n_regions: int
    n_suppliers: int
    imp: list            # [region][supplier] -> CompositeCell
    exp: list
    empty_regions: list = dfield(default_factory=list)


def grid_aggregate(regions: list[RegionShares], n_suppliers: int) -> SharedMatrix:
    """Assemble the region rows into the full matrix, in region order.

    Totals are not formed here: each recipient sums the cells it receives
    (see ``distribute_outputs``), so this step exchanges no messages, which
    is why the communication tables carry no grid term.
    """
    regions = sorted(regions, key=lambda r: r.region)
    return SharedMatrix(
        n_regions=len(regions),
        n_suppliers=n_suppliers,
        imp=[r.imp for r in regions],
        exp=[r.exp for r in regions],
        empty_regions=[r.region for r in regions if r.empty],
    )


@dataclass
class Distribution:
    """Recipient-side view after output delivery."""

    bundles: dict
    records: list        # (sender, receiver, label, bytes) transcript lines
    messages: int
    bytes: int


def distribute_outputs(matrix: SharedMatrix, params: SharingParams,
                       failed: frozenset = frozenset()) -> Distribution:
    """Send each recipient exactly the matrix cells it is entitled to.

    Per cell, every live holder sends its share; recipients interpolate
    and derive their own totals locally, so totals travel as zero extra
    shares.  The grid operator sees the whole matrix, each region
    operator its row, each supplier its column.
    """
    t = params.t
    records: list = []
    messages = 0

    def pull(cell: CompositeCell, receiver: str, label: str) -> int:
        nonlocal messages
        for mask, shares in sorted(cell.items()):
            for party in sorted(shares):
                if party in failed:
                    continue
                records.append((f"p{party}", receiver, label, SHARE_BYTES))
                messages += 1
        return reconstruct_cell(cell, t, failed)

    n_regions, n_suppliers = matrix.n_regions, matrix.n_suppliers
    bundles: dict = {}

    imp_cells = [
        [pull(matrix.imp[j][k], "tso", f"cell/imp/{j + 1}/{k + 1}")
         for k in range(n_suppliers)]
        for j in range(n_regions)
    ]
    exp_cells = [
        [pull(matrix.exp[j][k], "tso", f"cell/exp/{j + 1}/{k + 1}")
         for k in range(n_suppliers)]
        for j in range(n_regions)
    ]
    bundles["tso"] = {
        "imp_matrix": imp_cells,
        "exp_matrix": exp_cells,
        "imp_region_totals": [sum(row) for row in imp_cells],
        "exp_region_totals": [sum(row) for row in exp_cells],
        "imp_supplier_totals": [
            sum(imp_cells[j][k] for j in range(n_regions))
            for k in range(n_suppliers)
        ],
        "exp_supplier_totals": [
            sum(exp_cells[j][k] for j in range(n_regions))
            for k in range(n_suppliers)
        ],
        "imp_grid_total": sum(sum(row) for row in imp_cells),
        "exp_grid_total": sum(sum(row) for row in exp_cells),
    }

    for j in range(n_regions):
        imp_row = [
            pull(matrix.imp[j][k], f"dno{j + 1}", f"cell/imp/{j + 1}/{k + 1}")
            for k in range(n_suppliers)
        ]
        exp_row = [
            pull(matrix.exp[j][k], f"dno{j + 1}", f"cell/exp/{j + 1}/{k + 1}")
            for k in range(n_suppliers)
        ]
        bundles[f"dno:{j + 1}"] = {
            "imp_by_supplier": imp_row,
            "exp_by_supplier": exp_row,
            "imp_total": sum(imp_row),
            "exp_total": sum(exp_row),
        }

    for k in range(n_suppliers):
        imp_col = [
            pull(matrix.imp[j][k], f"sup{k + 1}", f"cell/imp/{j + 1}/{k + 1}")
            for j in range(n_regions)
        ]
        exp_col = [
            pull(matrix.exp[j][k], f"sup{k + 1}", f"cell/exp/{j + 1}/{k + 1}")
            for j in range(n_regions)
        ]
        bundles[f"supplier:{k + 1}"] = {
            "imp_by_region": imp_col,
            "exp_by_region": exp_col,
            "imp_total": sum(imp_col),
            "exp_total": sum(exp_col),
        }

    return Distribution(
        bundles=bundles,
        records=records,
        messages=messages,
        bytes=messages * SHARE_BYTES,
    )
