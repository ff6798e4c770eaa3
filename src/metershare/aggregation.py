"""Region-level aggregation circuits and grid-level assembly.

Three interchangeable region algorithms produce, per supplier and per
flow direction (imported and exported energy), a sharing of the summed
readings.  Each is called as ``(engine, tuples, suppliers, region=1)``
and reads everything else (ID width, vector length) from the tuples:

* ``naa_region``    routes every reading by a secret equality test
                    against each registered supplier ID; the two flows
                    share every protocol round.
* ``ncaa_region``   obliviously permutes the tuples, opens the supplier
                    IDs, and routes publicly; it trades multiplications
                    for a controlled leak of per-supplier counts.
* ``niaa_region``   receives one-hot vectors and only adds shares, at
                    zero interactive cost.

One record, ``MeterTuple``, carries a meter's submission from its encoder
to the region circuit: share values as encoded, engine handles once
``submit`` has taken them in.  One record, ``RegionRows``, carries a
region's per-supplier cells from its circuit to its recipients: engine
handles as the circuit leaves them, share groups once ``export_rows`` has
frozen them.  ``grid_aggregate`` stacks the regions' cells into
``[stream][region][supplier]`` and ``distribute_outputs`` sends each
recipient its part.

Every per-stream field (a meter's fields and readings, region cells, the
grid's cells) is indexed in ``STREAMS`` order, so each layer loops over
the flows instead of naming them; the stream names appear only in phase
labels, transcript labels and output keys.

Exported cells are share groups keyed by the set of servers holding them,
so partial deliveries under transport faults stay reconstructable group
by group.  Nothing here opens an energy value: outputs leave the servers
as shares and are reconstructed by their recipients.
"""

from dataclasses import dataclass, replace

from . import field
from .abb import Engine
from .errors import InsufficientShares, OpenedIdInvalid, VectorLengthMismatch
from .gates import compose_bits_batch, equals_public_batch, oblivious_permute
from .shamir import Share, SharingParams, reconstruct

STREAMS = ("imp", "exp")
# the phase label suffix of naa, whose streams share every round
BOTH_STREAMS = "+".join(STREAMS)

# One matrix cell: {sorted server tuple -> {server index -> share value}}.
# Healthy runs have a single group holding all live servers.
CompositeCell = dict


def merge_cells(acc: CompositeCell, extra: CompositeCell) -> None:
    """Share-wise sum of two cells, group by group."""
    for servers, shares in extra.items():
        mine = acc.get(servers)
        if mine is None:
            acc[servers] = dict(shares)
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
    for servers, shares in cell.items():
        alive = [(party, v) for party, v in shares.items() if party not in failed]
        if len(alive) < t + 1:
            raise InsufficientShares(
                f"cell on servers {servers}: {len(alive)} shares, needs {t + 1}"
            )
        total += reconstruct(
            [Share(party, v, t) for party, v in sorted(alive)]
        )
    return total % field.PRIME


@dataclass
class MeterTuple:
    """One meter's submission, per stream in ``STREAMS`` order.

    The encoders fill it with share values, ``submit`` with the handles
    of those sharings.  ``fields[s]`` routes stream s: its supplier ID
    bits MSB first (naa, ncaa) or one entry per supplier (niaa).
    ``readings[s]`` is the reading in the bit-shared form; the one-hot
    form carries its readings in ``fields`` and leaves this empty.
    """

    sm: int
    fields: tuple
    readings: tuple


@dataclass
class RegionRows:
    """Aggregated per-supplier cells of one region."""

    region: int
    # [stream][supplier] -> list of group handles, or after export_rows
    # one CompositeCell
    cells: list
    leaked_counts: dict | None = None


def _zero_rows(engine: Engine, n_suppliers: int, region: int,
               leaked: dict | None = None) -> RegionRows:
    zero = engine.constant(0)
    cells = [[[zero] for _ in range(n_suppliers)] for _ in STREAMS]
    return RegionRows(region=region, cells=cells, leaked_counts=leaked)


def _holder_groups(engine: Engine, tuples: list[MeterTuple]) -> list:
    """The meters grouped by the servers holding their sharings.

    Groups come in the order of their sorted holder lists ({1,2,3} before
    {1,3}), meters within a group in arrival order.  Every handle of a
    meter has the holder mask of its bundle (``submit``), so meters are
    grouped once, by their first handle's mask.
    """
    by_mask: dict = {}
    mask_of = engine.handle_mask
    for rec in tuples:
        by_mask.setdefault(mask_of(rec.fields[0][0]), []).append(rec)

    def holders(group) -> list:
        mask, _ = group
        return [i for i in range(engine.n) if mask >> i & 1]

    return [recs for _, recs in sorted(by_mask.items(), key=holders)]


def naa_region(engine: Engine, tuples: list[MeterTuple], suppliers: list[int],
               region: int = 1) -> RegionRows:
    """Equality-test routing: m * N_s * (w + 1) products per stream.

    Every (meter, supplier) pair runs one secret-vs-public equality test
    (w products, w being the ID width the tuples carry) and one product
    gating the reading by the match bit.  The two streams share every
    round: their queries go to one ``equals_public_batch`` call and their
    gating products to one ``product_batch``, stream-major, all in the one
    phase ``region_aggregation/{region}/imp+exp``, so a region costs
    ceil(log2(w+1)) + 1 rounds.  Meters are taken in holder-group order
    (``_holder_groups``), so a round computes one run per group and stream.
    An ID matching no registered supplier contributes to no bucket; the
    submission validator is expected to have rejected it already.
    """
    if not tuples:
        return _zero_rows(engine, len(suppliers), region)
    ordered = [rec for group in _holder_groups(engine, tuples)
               for rec in group]
    streams = range(len(STREAMS))
    ns = len(suppliers)
    half = len(ordered) * ns     # one stream's queries
    with engine.phase(f"region_aggregation/{region}/{BOTH_STREAMS}"):
        matches = equals_public_batch(
            engine,
            [(rec.fields[s], u) for s in streams for rec in ordered
             for u in suppliers],
            len(ordered[0].fields[0]),
        )
        gated = engine.product_batch(list(zip(
            matches,
            (rec.readings[s] for s in streams for rec in ordered
             for _ in suppliers),
        )))
        engine.release(matches)
        cells = [
            [[engine.lincomb([(1, g) for g in
                              gated[s * half + k:(s + 1) * half:ns]])]
             for k in range(ns)]
            for s in streams
        ]
        engine.release(gated)
    return RegionRows(region=region, cells=cells)


def ncaa_region(engine: Engine, tuples: list[MeterTuple], suppliers: list[int],
                region: int = 1) -> RegionRows:
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
    cells = []
    for s, stream in enumerate(STREAMS):
        with engine.phase(f"region_aggregation/{region}/{stream}"):
            ids = compose_bits_batch(engine, [rec.fields[s] for rec in tuples])
            rows = [(h, rec.readings[s]) for h, rec in zip(ids, tuples)]
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
            # an empty bucket sums to a fully held zero row, as a public 0
            stream_cells = [[engine.lincomb(buckets[u])] for u in suppliers]
            # a single row comes back unshuffled, so dedupe; meter inputs
            # (below mark) stay live
            engine.release({h for row in rows + shuffled for h in row
                            if h >= mark})
            cells.append(stream_cells)
            leaked[stream] = counts
    return RegionRows(region=region, cells=cells, leaked_counts=leaked)


def niaa_region(engine: Engine, tuples: list[MeterTuple], suppliers: list[int],
                region: int = 1) -> RegionRows:
    """One-hot aggregation: pure share addition, no messages at all.

    Tuples whose shares reached different server subsets are summed in
    separate groups so each group stays reconstructable on its own.  All
    handles of one tuple must have one holder mask, as ``submit`` gives
    them.
    """
    if not tuples:
        return _zero_rows(engine, len(suppliers), region)
    for rec in tuples:
        for vector in rec.fields:
            if len(vector) != len(suppliers):
                raise VectorLengthMismatch(
                    f"meter {rec.sm} sent a vector of the wrong length"
                )

    # the group sums are issued in _holder_groups' order, which fixes their
    # handle numbers
    groups = _holder_groups(engine, tuples)
    cells = []
    for s, stream in enumerate(STREAMS):
        with engine.phase(f"region_aggregation/{region}/{stream}"):
            cells.append([
                [engine.lincomb([(1, rec.fields[s][k]) for rec in recs])
                 for recs in groups]
                for k in range(len(suppliers))
            ])
    return RegionRows(region=region, cells=cells)


def export_rows(engine: Engine, rows: RegionRows) -> RegionRows:
    """Freeze region cells into raw share groups held by live servers."""

    def export_cell(handles: list) -> CompositeCell:
        cell: CompositeCell = {}
        for h in handles:
            shares = engine.export_shares(h)
            merge_cells(cell, {tuple(sorted(shares)): shares})
        return cell

    return replace(rows, cells=[[export_cell(c) for c in stream_cells]
                                for stream_cells in rows.cells])


def grid_aggregate(regions: list[RegionRows]) -> list:
    """The exported regions' cells as ``[stream][region][supplier]``.

    Totals are not formed here: each recipient sums the cells it receives
    (see ``distribute_outputs``), so this step exchanges no messages, which
    is why the communication tables carry no grid term.
    """
    regions = sorted(regions, key=lambda r: r.region)
    return [[r.cells[s] for r in regions] for s in range(len(STREAMS))]


def grid_view(matrices: list) -> dict:
    """The grid operator's view of per-stream [region][supplier] matrices.

    Per stream: the matrix itself and its region, supplier and grid
    totals.  The plaintext oracle has the same shape.
    """
    view: dict = {}
    for stream, matrix in zip(STREAMS, matrices):
        view[f"{stream}_matrix"] = matrix
        view[f"{stream}_region_totals"] = [sum(row) for row in matrix]
        view[f"{stream}_supplier_totals"] = [sum(col) for col in zip(*matrix)]
        view[f"{stream}_grid_total"] = sum(sum(row) for row in matrix)
    return view


@dataclass
class Distribution:
    """Recipient-side view after output delivery."""

    bundles: dict
    # one (links, label) transcript record per (cell, receiver): links
    # holds a "sender,receiver" string per share sent
    records: list

    @property
    def messages(self) -> int:
        """One share per link."""
        return sum(len(links) for links, _ in self.records)


def distribute_outputs(cells: list, params: SharingParams,
                       failed: frozenset = frozenset()) -> Distribution:
    """Send each recipient exactly the ``grid_aggregate`` cells it is owed.

    Per cell, every live holder sends its share; recipients interpolate
    and derive their own totals locally, so totals travel as zero extra
    shares.  The grid operator sees the whole matrix, each region
    operator its row, each supplier its column.  Each recipient pulls
    its stream views in ``STREAMS`` order.
    """
    t = params.t
    records: list = []
    regions, suppliers = range(len(cells[0])), range(len(cells[0][0]))

    def pull(s: int, j: int, k: int, receiver: str) -> int:
        cell = cells[s][j][k]
        links = tuple(f"p{party},{receiver}"
                      for _, shares in sorted(cell.items())
                      for party in sorted(shares) if party not in failed)
        records.append((links, f"cell/{STREAMS[s]}/{j + 1}/{k + 1}"))
        return reconstruct_cell(cell, t, failed)

    bundles: dict = {"tso": grid_view([
        [[pull(s, j, k, "tso") for k in suppliers] for j in regions]
        for s in range(len(STREAMS))
    ])}
    for j in regions:
        bundle = bundles[f"dno:{j + 1}"] = {}
        for s, stream in enumerate(STREAMS):
            row = [pull(s, j, k, f"dno{j + 1}") for k in suppliers]
            bundle[f"{stream}_by_supplier"] = row
            bundle[f"{stream}_total"] = sum(row)
    for k in suppliers:
        bundle = bundles[f"supplier:{k + 1}"] = {}
        for s, stream in enumerate(STREAMS):
            col = [pull(s, j, k, f"sup{k + 1}") for j in regions]
            bundle[f"{stream}_by_region"] = col
            bundle[f"{stream}_total"] = sum(col)
    return Distribution(bundles=bundles, records=records)
