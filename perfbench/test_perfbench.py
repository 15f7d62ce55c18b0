"""Tests of the benchmark's own machinery: spans, hooks, the draw wrapper.

    python3 -m pytest perfbench -q
"""
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import CountingGenerator, Hooks, Record, Tracer  # noqa: E402

from cdassim.sde import NoiseStream  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    c = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", c)
    return c


def test_self_time_subtracts_direct_children_only(clock):
    tracer = Tracer()

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        t_leaf()
        clock.now += 2.0

    def outer():
        clock.now += 3.0
        t_inner()
        t_inner()
        clock.now += 3.0

    t_leaf = tracer.wrap(leaf, "leaf")
    t_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    stats, _, _ = tracer.totals()
    assert (stats["outer"].calls, stats["outer"].total, stats["outer"].self) == (1, 16.0, 6.0)
    assert (stats["inner"].calls, stats["inner"].total, stats["inner"].self) == (2, 10.0, 8.0)
    assert (stats["leaf"].calls, stats["leaf"].total, stats["leaf"].self) == (2, 2.0, 2.0)


def test_span_closes_when_the_call_raises(clock):
    tracer = Tracer()

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    t_boom = tracer.wrap(boom, "boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            t_boom()

    tracer.wrap(outer, "outer")()
    stats, _, _ = tracer.totals()
    assert stats["boom"].total == 1.0
    assert stats["outer"].self == 1.0


def test_spans_on_other_threads_are_not_children():
    tracer = Tracer()
    work = tracer.wrap(lambda: None, "work")

    def outer():
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap(outer, "outer")()
    stats, _, _ = tracer.totals()
    assert stats["work"].calls == 1
    assert stats["outer"].self == stats["outer"].total


def test_counting_generator_draws_identical_values():
    tracer = Tracer()
    stream = NoiseStream(seed=11, stream_id=5)
    plain = stream.generator()
    wrapped = CountingGenerator(stream.generator(), tracer)
    for shape in ((10, 1, 7), (3,), ()):
        assert np.array_equal(plain.standard_normal(shape), wrapped.standard_normal(shape))
    assert plain.uniform() == wrapped.uniform()
    assert np.array_equal(plain.integers(0, 100, 5), wrapped.integers(0, 100, 5))
    stats, counts, _ = tracer.totals()
    assert stats["sde.noise.draw"].calls == 4
    assert counts["sde.noise.draws"] == 70 + 3 + 1 + 1


def test_absent_binding_is_reported_and_restore_is_exact():
    import cdassim.filters.runner as runner
    original = runner.ekf_predict
    hooks = Hooks(Tracer())
    with hooks:
        assert hooks.span("cdassim.filters.runner", "ekf_predict", "x")
        assert not hooks.span("cdassim.filters.runner", "no_such_function", "y")
        assert not hooks.span("cdassim.no_such_module", "f", "z")
        assert runner.ekf_predict is not original
    assert runner.ekf_predict is original
    assert hooks.absent == ["cdassim.filters.runner:no_such_function",
                            "cdassim.no_such_module:f"]


def test_removed_layer_reads_zero_instead_of_failing(monkeypatch):
    import cdassim.filters.runner as runner
    monkeypatch.delattr(runner, "member_generators")
    tracer = Tracer(keep=layers.KEPT)
    with Hooks(tracer) as hooks:
        layers.install(hooks)
    assert hooks.absent == ["cdassim.filters.runner:member_generators"]
    assert not hasattr(runner, "member_generators")
    values = layers.metrics(tracer, 1.0, 1.0, overhead=0.0, step_ms={}, absent=len(hooks.absent),
                            import_s=0.0, import_scipy_s=0.0, commands=0, command_wall=0.0)
    assert values["filters.montecarlo.member_generators_s"] == 0.0
    assert values["trace.absent_layers"] == 1


def test_pool_utilization_counts_runs_inside_the_pool_interval():
    records = [
        Record("harness.pool", 0.0, 10.0),
        Record("harness.workers", 0.5, 0.5, 2),
        Record("harness.run_one_filter", 1.0, 9.0),
        Record("harness.run_one_filter", 1.0, 5.0),
        Record("harness.run_one_filter", 11.0, 12.0),  # after the pool: serial
    ]
    util, workers = layers.pool_utilization(records)
    assert workers == 2
    assert util == pytest.approx(12.0 / 20.0)


def test_traced_pass_reproduces_untraced_outputs():
    seeds = run.timed_seeds(3, 1)
    reference = run.bank_pass(("ekf",), seeds, run.Clock())
    tracer = Tracer(keep=layers.KEPT)
    with Hooks(tracer) as hooks:
        layers.install(hooks)
        probe = run.bank_pass(("ekf",), seeds, run.Clock())
    assert hooks.absent == []
    assert [o.digest for o in probe.outcomes] == [o.digest for o in reference.outcomes]
    assert all(o.ok for o in probe.outcomes)
    stats, counts, _ = tracer.totals()
    assert stats["filters.ekf.predict"].calls == reference.outcomes[0].steps
    assert stats["sde.drift"].calls > 0 and counts["cstr.model_builds"] > 0


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    values = layers.metrics(Tracer(), 1.0, 1.0, overhead=0.0, step_ms={}, absent=0, import_s=0.0,
                            import_scipy_s=0.0, commands=0, command_wall=0.0)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    emitted = {k: (layers.unit(k), "higher" if k in layers.HIGHER_IS_BETTER else "lower")
               for k in values}
    assert declared == emitted
    assert [w["name"] for w in spec["workloads"]] == [*run.BANKS, "cli_small"]
