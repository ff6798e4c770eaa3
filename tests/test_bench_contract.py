"""The benchmark's hold on the program: the names it patches and calls.

``bench/tracer.py`` patches functions where their callers look them up and
``bench/run.py`` drives a pass through ``metershare.cli``.  A rename, or a
move that leaves a probe where nothing calls it, shows up here, in the
tier-1 suite, rather than only when the benchmark's own tests run.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import metershare
from metershare import cli
from metershare.abb import Engine
from metershare.metering import Scenario

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

# what one benchmark pass calls on cli: the run, its check, its report and
# the artifact writers of a transcript workload
RUN_PASS_CALLS = {
    "run_scenario", "check_result", "build_report", "write_matrix_csv",
    "write_bundles_json", "write_report", "write_transcript",
}


# what a benchmark pass reads off a finished run
RUN_READS = {"bundles", "excluded", "meter", "transcript"}


def bench_tree():
    return ast.parse((BENCH_DIR / "run.py").read_text())


def cli_calls(tree) -> list:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "cli"
    ]


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_test_table(name: str):
    """A literal table of ``bench/test_bench.py``, read without importing
    it (it imports pytest fixtures and the benchmark's modules)."""
    tree = ast.parse((BENCH_DIR / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_tracer_probes_resolve_and_fire():
    tracer_module = load_bench("tracer")
    missing = [
        (name, attr) for name, targets, _ in tracer_module.probes(metershare)
        for owner, attr in targets if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
    # a probe on a name the program no longer calls would resolve and
    # silently count nothing.  One small run of each workload's scenario
    # must call every probed span that the benchmark's own tests require to
    # move on that workload (NONZERO), and the runs together every probe
    workloads = load_bench("run").WORKLOADS
    nonzero = bench_test_table("NONZERO")
    tracer = tracer_module.Tracer(metershare)
    total = dict.fromkeys(tracer.names, 0)
    silent = {}
    tracer.install()
    try:
        for name, spec in workloads.items():
            tracer.start_pass()
            shape = dict(spec["scenario"], seed=4,
                         sm_per_region=[3] * spec["scenario"]["n_dno"])
            run = cli.run_scenario(Scenario(**shape),
                                   record_transcript=spec["transcript"])
            assert cli.check_result(run) == []
            cli.build_report(run)
            calls = {span: totals[0]
                     for span, totals in tracer.finish_pass().items()
                     if span in total}
            for span, n_calls in calls.items():
                total[span] += n_calls
            required = {key.rpartition(".")[0] for key in nonzero[name]}
            silent[name] = sorted(span for span in required & set(calls)
                                  if not calls[span])
    finally:
        tracer.uninstall()
    assert silent == dict.fromkeys(workloads, [])
    assert [name for name, n in total.items() if not n] == []


def test_run_pass_calls_resolve_on_cli():
    called = {node.func.attr for node in cli_calls(bench_tree())}
    assert RUN_PASS_CALLS <= called
    for attr in sorted(called):
        assert callable(getattr(cli, attr, None)), attr


def test_run_pass_arguments_bind_to_cli_signatures():
    # a keyword the program drops (say threads=) fails every benchmark pass
    for node in cli_calls(bench_tree()):
        signature = inspect.signature(getattr(cli, node.func.attr))
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        signature.bind(*[None] * len(node.args), **keywords)


def test_run_pass_reads_exist_on_a_run():
    read = {
        node.attr for node in ast.walk(bench_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "run"
    }
    assert read == RUN_READS
    sc = Scenario(n_dno=1, n_suppliers=2, sm_per_region=[2], seed=4, sigma=3)
    run = cli.run_scenario(sc, record_transcript=True)
    assert [attr for attr in sorted(read) if not hasattr(run, attr)] == []


def test_post_pass_transcript_reads_work():
    # run_pass counts the records and classifies their bytes by segment,
    # outside its timed region
    segments = load_bench("run").SEGMENTS
    sc = Scenario(n_dno=2, n_suppliers=2, sm_per_region=[4, 3], seed=4,
                  sigma=3, fault_rate=0.3)
    run = cli.run_scenario(sc, record_transcript=True)
    assert len(run.transcript) > 0
    logged = metershare.costs.bytes_from_transcript(run.transcript)
    assert sorted(logged) == sorted(segments)
    assert all(logged[seg] > 0 for seg in segments)


def test_round_calls_carry_every_counted_operation(monkeypatch):
    # the benchmark counts multiplications as the length of product_batch's
    # first positional argument, its left factor column, and rounds from
    # non-empty product and open batches, then fails a traced pass whose
    # counts differ from the CostMeter; a round that bypasses either call,
    # or passes its left column as an iterator, would fail it
    seen = {"mults": 0, "rounds": 0}
    product_batch, open_batch = Engine.product_batch, Engine.open_batch

    def products(self, left, right, **kwargs):
        seen["mults"] += len(left)
        seen["rounds"] += bool(left)
        return product_batch(self, left, right, **kwargs)

    def opens(self, handles, *args, **kwargs):
        seen["rounds"] += bool(handles)
        return open_batch(self, handles, *args, **kwargs)

    monkeypatch.setattr(Engine, "product_batch", products)
    monkeypatch.setattr(Engine, "open_batch", opens)
    for alg in ("naa", "ncaa"):
        seen.update(mults=0, rounds=0)
        sc = Scenario(n_dno=2, n_suppliers=3, sm_per_region=[4, 3], seed=5,
                      sigma=3, algorithm=alg)
        total = cli.run_scenario(sc).meter.total()
        assert total.multiplications > 0
        assert seen == {"mults": total.multiplications,
                        "rounds": total.rounds}, alg
