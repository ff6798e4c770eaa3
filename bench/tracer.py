"""Per-layer tracing for the metershare benchmark, from outside the program.

The tracer replaces public functions with timing wrappers at the name
their caller looks them up by (``from .x import f`` binds ``f`` in the
caller's module, so that is where the wrapper has to go; ``Engine``
methods are patched on the class).  Every call records a span: name,
start, end, parent span and a work count taken from its arguments or
result.  Spans stay in memory for one pass, are folded into per-layer
totals when the pass ends, and the first traced pass is kept whole so
it can be written out when the benchmark ends.  No program file is
touched, and ``uninstall`` restores every original.
"""

import gzip
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def probes(ms):
    """(span name, [(owner, attribute)], work count or None) per layer boundary.

    ``ms`` is the imported ``metershare`` package.  A work count gets
    ``(args, kwargs, result)``; for methods ``args[0]`` is the engine.
    """
    abb, agg, cli, met = ms.abb, ms.aggregation, ms.cli, ms.metering
    engine = abb.Engine

    def gates_in(args, kwargs, _result):
        rows = _arg(args, kwargs, 1, "rows")
        return sum(len(layer) for layer in ms.gates.exchange_layers(len(rows)))

    return [
        ("field.sqrt", [(ms.field, "sqrt")], None),
        ("shamir.share_values",
         [(met, "share_values"), (abb, "share_values")], None),
        ("shamir.reconstruct", [(agg, "reconstruct")], None),
        ("abb.product_batch", [(engine, "product_batch")],
         lambda a, k, r: len(_arg(a, k, 1, "pairs"))),
        ("abb.lincomb", [(engine, "lincomb")], None),
        ("abb.open_batch", [(engine, "open_batch")],
         lambda a, k, r: len(_arg(a, k, 1, "handles"))),
        ("abb.random_bits_batch", [(engine, "random_bits_batch")],
         lambda a, k, r: _arg(a, k, 1, "k")),
        ("abb.input_shares", [(engine, "input_shares")],
         lambda a, k, r: sum(v is not None for v in _arg(a, k, 1, "values"))),
        ("gates.equals_public_batch", [(agg, "equals_public_batch")],
         lambda a, k, r: len(_arg(a, k, 1, "queries"))),
        ("gates.oblivious_permute", [(agg, "oblivious_permute")], gates_in),
        ("aggregation.naa_region", [(cli, "naa_region")], None),
        ("aggregation.ncaa_region", [(cli, "ncaa_region")], None),
        ("aggregation.niaa_region", [(cli, "niaa_region")], None),
        # handles still alive when a region is frozen into shares
        ("aggregation.export_rows", [(cli, "export_rows")],
         lambda a, k, r: len(_arg(a, k, 0, "engine").live_handles())),
        ("aggregation.grid_aggregate", [(cli, "grid_aggregate")], None),
        ("aggregation.distribute_outputs", [(cli, "distribute_outputs")],
         lambda a, k, r: r.messages),
        ("metering.build_meters", [(cli, "build_meters")], None),
        ("metering.generate_readings", [(cli, "generate_readings")], None),
        ("metering.encode", [(cli, "encode")], None),
        # shares delivered by meters, admitted or not: the meter's sm->dcc count
        ("metering.submit", [(cli, "submit")],
         lambda a, k, r: r[1].delivered_shares),
        ("cli.run_scenario", [(cli, "run_scenario")], None),
        ("cli.check_result", [(cli, "check_result")], None),
        ("cli.build_report", [(cli, "build_report")], None),
    ]


class Tracer:
    """Span recorder over the wrappers of :func:`probes`."""

    def __init__(self, ms):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kinds: list[int] = []
        self.work: list[int] = []
        self._stack = [-1]
        self.first_pass: tuple | None = None
        self._passes = 0
        for name, targets, count in probes(ms):
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._patches.append(
                    (owner, attr, original, self.wrap(name, original, count))
                )

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, count=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._id(name)
        starts, ends, parents = self.starts, self.ends, self.parents
        kinds, work, stack = self.kinds, self.work, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            kinds.append(nid)
            work.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                work[i] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def start_pass(self) -> None:
        for buf in (self.starts, self.ends, self.parents, self.kinds, self.work):
            buf.clear()
        del self._stack[1:]

    def finish_pass(self) -> dict:
        """Fold this pass's spans into {name: [calls, work, seconds, self seconds]}.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        ``abb.random_bits_batch.retries`` counts the squares drawn beyond
        the bits asked for: products issued under a bit batch minus bits.
        ``abb.rounds`` counts product and open batches that were not empty,
        each of which is one interactive round.
        """
        starts, ends, parents, kinds, work = (
            self.starts, self.ends, self.parents, self.kinds, self.work
        )
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        totals = {name: [0, 0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(kinds):
            t = totals[self.names[nid]]
            t[0] += 1
            t[1] += work[i]
            t[2] += dur[i]
            t[3] += dur[i] - child[i]
        bits_id = self._ids["abb.random_bits_batch"]
        product_id = self._ids["abb.product_batch"]
        drawn = sum(
            work[i] for i, nid in enumerate(kinds)
            if nid == product_id and parents[i] >= 0
            and kinds[parents[i]] == bits_id
        )
        totals["abb.random_bits_batch.retries"] = [
            0, drawn - totals["abb.random_bits_batch"][1], 0.0, 0.0
        ]
        open_id = self._ids["abb.open_batch"]
        totals["abb.rounds"] = [0, sum(
            1 for i, nid in enumerate(kinds)
            if nid in (product_id, open_id) and work[i]
        ), 0.0, 0.0]
        if self.first_pass is None:
            self.first_pass = (self._passes, starts[:], ends[:], parents[:],
                               kinds[:], work[:])
        self._passes += 1
        return totals

    def write_spans(self, path) -> None:
        """Write the first traced pass as gzipped CSV, times relative to its start."""
        if self.first_pass is None:
            return
        pass_id, starts, ends, parents, kinds, work = self.first_pass
        t0 = starts[0] if starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass,span,name,parent,start_s,end_s,work\n")
            for i, (s, e, p, k, w) in enumerate(
                    zip(starts, ends, parents, kinds, work)):
                fh.write(f"{pass_id},{i},{self.names[k]},{p},"
                         f"{s - t0:.9f},{e - t0:.9f},{w}\n")
