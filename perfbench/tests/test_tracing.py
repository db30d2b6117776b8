"""Trace hygiene: wrappers come and go cleanly, and self time adds up.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import pytest

import powsumseq as ps
import run
import tracing
from powsumseq import sweep_harness
from tracing import Span


def _bindings() -> dict:
    """Every attribute, in every loaded powsumseq module, that a hook rebinds."""
    attrs = {name.split(".")[1] for name, _, _ in tracing.HOOKS}
    return {
        (mod.__name__, attr): vars(mod)[attr]
        for mod in tracing.package_modules(ps)
        for attr in attrs
        if attr in vars(mod)
    }


class _Probe:
    """A one-item workload that runs a small cell and records the bindings."""

    seeded = False

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.seen = None

    def run_pass(self, inputs, mark):
        self.seen = _bindings()
        ps.evaluate_cell(3, 2, 8)
        mark()
        if self.fail:
            raise RuntimeError("workload failed")
        return None

    def check(self, inputs, outputs):
        return []


def test_every_rebound_attribute_is_restored_when_the_workload_raises():
    before = _bindings()
    probe = _Probe(fail=True)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="workload failed"):
        run.one_pass(probe, None, tracer, ps)
    wrapped = {key for key, value in probe.seen.items() if value is not before[key]}
    # The defining modules and the importing ones were all rebound ...
    assert {
        ("powsumseq", "scan"),
        ("powsumseq.property_checks", "scan"),
        ("powsumseq.sweep_harness", "scan"),
        ("powsumseq.sweep_harness", "scaled_row_sums"),
        ("powsumseq.exact_core", "scaled_row_sums"),
        ("powsumseq.asymptotics", "_central_peak"),
        ("powsumseq.poly_certificates", "run_all"),
    } <= wrapped
    assert wrapped == set(before)
    # ... and every one is back.
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert sweep_harness.scan is ps.property_checks.scan
    assert tracer.spans and all(s.item == 0 for s in tracer.spans)


def test_untraced_pass_installs_no_wrapper():
    before = _bindings()
    probe = _Probe()
    walls, items, failures, unscaled = run.run_passes(probe, None, seconds=0)
    assert len(walls) == len(items) == len(unscaled) == 1 and failures == []
    assert all(probe.seen[key] is before[key] for key in before)
    assert not any(hasattr(value, "__wrapped__") for value in probe.seen.values())


def test_traced_spans_nest_under_their_caller():
    tracer = tracing.Tracer()
    run.one_pass(_Probe(), None, tracer, ps)
    names = [s.name for s in tracer.spans]
    assert names[0] == "sweep_harness.evaluate_cell"
    assert names.count("property_checks.scan") == 8
    assert names.count("exact_core.scaled_prefix_sums") == 8
    assert all(s.parent == 0 for s in tracer.spans[1:])
    layers = tracing.summarise(tracer.spans)
    assert layers["property_checks.scan.entries"] == sum(m + 1 for m in range(1, 9))
    assert layers["exact_core.scaled_row_sums.entries"] == 9
    assert layers["sweep_harness.evaluate_cell.calls"] == 1


def test_self_time_arithmetic_on_a_synthetic_tree():
    # run_sweep [0, 10] holds evaluate_cell [1, 4] (counts taken until 4.5),
    # which holds scan [2, 3]; a second scan [5, 6] sits directly under run_sweep.
    spans = [
        Span("sweep_harness.run_sweep", None, 0, 0.0, 10.0, 10.0),
        Span("sweep_harness.evaluate_cell", 0, 0, 1.0, 4.0, 4.5),
        Span("property_checks.scan", 1, 0, 2.0, 3.0, 3.25, {"entries": 5, "max_bits": 7}),
        Span("property_checks.scan", 0, 1, 5.0, 6.0, 6.0, {"entries": 3, "max_bits": 9}),
    ]
    assert tracing.self_times(spans) == [5.5, 1.75, 1.0, 1.0]
    layers = tracing.summarise(spans)
    assert layers["sweep_harness.run_sweep.self_s"] == 5.5
    assert layers["sweep_harness.evaluate_cell.self_s"] == 1.75
    assert layers["sweep_harness.evaluate_cell.max_ms"] == 3000.0
    assert layers["property_checks.scan.calls"] == 2
    assert layers["property_checks.scan.self_s"] == 2.0
    assert layers["property_checks.scan.entries"] == 8
    assert layers["property_checks.scan.max_bits"] == 9
    assert layers["poly_certificates.run_all.calls"] == 0
    expected_keys = {
        f"{name}.{field}" for name, _, fields in tracing.HOOKS for field in fields
    }
    assert set(layers) == expected_keys


def test_sampler_scales_by_the_samples_around_an_item():
    sampler = run.Sampler()
    sampler.at = [0.1 * i for i in range(20)]
    sampler.took = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    # Ten samples fall inside [1.0, 1.95]: all of them twice the reference.
    assert sampler.scale(1.0, 1.95) == 0.5
    # Too few inside [0.42, 0.48]: the eight around its middle are used.
    assert sampler.scale(0.42, 0.48) == 1.0
    # Around 0.75 those are samples 4..11: six at the reference, two at twice.
    assert sampler.scale(0.72, 0.78) == pytest.approx(8 / 10)


def test_a_pass_leaves_no_timer_or_handler_behind():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    wall, items, outputs, unscaled, reference = run.one_pass(_Probe(), None)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(items) == 1 and wall > 0 and unscaled > 0 and reference > 0
