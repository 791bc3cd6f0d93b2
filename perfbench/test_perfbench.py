"""The benchmark's own tests, on tiny rounds of each workload.

    python3 -m pytest perfbench
"""

import gc
import itertools
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import REFERENCE_S, WINDOW_S, SpeedLog  # noqa: E402
from tracing import FUNCTION_SPANS, METHOD_COUNTS, METHOD_SPANS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, load_expected  # noqa: E402

gm, cli = run.import_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny_ops(name):
    return run.build_ops(gm, name, tiny=True)


def test_benchmark_json_lists_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.fixture
def fresh_import_undone():
    """run_workload imports the package afresh and freezes the collector;
    put the modules the other tests hold back into sys.modules and unfreeze
    afterwards."""
    def package_modules():
        return {m: sys.modules[m] for m in list(sys.modules)
                if m == "gradualmech" or m.startswith("gradualmech.")}
    saved = package_modules()
    yield
    for m in package_modules():
        del sys.modules[m]
    sys.modules.update(saved)
    gc.unfreeze()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name, capsys, fresh_import_undone):
    rec, metrics = run.run_workload(name, SEED, 0.01, 0, tiny=True)
    run.report(name, SEED, rec, metrics)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    assert got == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in [*run.END_TO_END_UNITS.items(), ("error_rate", "failed/attempted")]:
        assert any(line.split()[:1] == [metric] and line.endswith(unit)
                   for line in lines[:-1]), metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_its_counts(name):
    ops = tiny_ops(name)
    counts = []
    for _ in range(2):
        rec, values = run.traced(cli, ops, name, SEED)
        assert rec.failed == 0
        assert set(values) == {m for m, _, _ in PER_LAYER}
        assert values["trace.overhead_ratio"] > 0
        counts.append({m: v for m, v in values.items()
                       if not m.endswith("self_s") and m != "trace.overhead_ratio"})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_are_byte_identical_to_untraced(name):
    ops = tiny_ops(name)
    plain = [run.run_steps(cli, op) for op in ops]
    tracer = Tracer()
    try:
        tracer.install()
        traced = [run.run_steps(cli, op) for op in ops]
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.spans


def test_corrupted_expected_output_raises_error_rate():
    name = "check-auction"
    expected = load_expected(name)
    workload = WORKLOADS[name](gm, tiny=True)
    raw = workload.all_ops()
    victim = expected["steps"][raw[0][0].name]
    victim["stdout_sha256"] = "0" * 64
    rec = run.Record()
    rec.run(cli, run.prepare(raw, expected), range(len(raw)))
    assert rec.failed >= 1
    assert rec.failed / len(rec.latencies) > 0


def _bindings():
    """Every (owner, name) -> object in the package's modules and classes."""
    tracer = Tracer()
    out = {}
    for mod in tracer.modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for module, cls_name, method, _ in METHOD_SPANS + METHOD_COUNTS:
        cls = getattr(sys.modules[f"gradualmech.{module}"], cls_name)
        out[(cls.__qualname__, method)] = cls.__dict__[method]
    return out


def test_tracer_replaces_every_binding_and_restores_them():
    before = _bindings()
    originals = [getattr(sys.modules[f"gradualmech.{m}"], a) for m, a, _ in FUNCTION_SPANS]
    originals += [before[(c, meth)] for _, c, meth, _ in METHOD_SPANS + METHOD_COUNTS]
    validate_names = {k for k, v in before.items() if v is gm.validate}
    assert {m for m, _ in validate_names} >= {
        "gradualmech", "gradualmech.gameform", "gradualmech.checkers",
        "gradualmech.transforms", "gradualmech.fileformat", "gradualmech.cli"}
    tracer = Tracer()
    try:
        tracer.install()
        during = _bindings()
        leaked = [k for k, v in during.items() if any(v is o for o in originals)]
        assert leaked == []
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_seed_orders_a_fixed_set_of_ops():
    first, second = (list(itertools.islice(run.round_orders(50, seed), 2))
                     for seed in (11, 11))
    assert first == second
    assert first[0] != first[1]
    assert first[0] != next(run.round_orders(50, 12))
    assert sorted(first[0]) == sorted(first[1]) == list(range(50))
    w = WORKLOADS["reduce-corpus"](gm)
    names = [op[0].name for op in w.all_ops()]
    assert len(names) == len(set(names)) == 300 + 3 + 12


def test_speed_log_scales_by_the_loops_around_an_interval():
    log = SpeedLog()
    log.ends = [1.0, 1.5, 2.0 + WINDOW_S / 2, 2.0 + 2 * WINDOW_S]
    log.durations = [0.001, 0.002, 0.003, 0.1]
    # The last loop ends outside the window; the mean of the others is 0.002.
    assert log.scaled(1.0, 2.0, 0.8) == pytest.approx(0.8 * REFERENCE_S / 0.002)


def test_timed_leaves_out_the_loops_run_inside_the_interval():
    log = SpeedLog()

    def work():
        log.take()
        log.take()
        return "done"
    result, t0, t1, elapsed = log.timed(work)
    assert result == "done"
    assert len(log.durations) == 3          # two inside, one after
    assert elapsed == pytest.approx(t1 - t0 - sum(log.durations[:2]))


def test_sampling_takes_loops_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    log = SpeedLog()
    with log.sampling():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(log.durations) >= 2
    assert log.ends == sorted(log.ends)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
