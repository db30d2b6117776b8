"""Spans around the package's layer boundaries, for the traced pass only.

``installed`` rebinds, for the duration of a ``with`` block, every module
attribute through which callers reach a hooked function: the defining module,
each sibling module that imported the name, and the package itself.  The
originals are put back when the block exits, also when it raises.  The
untraced pass never enters ``installed``, so it runs the package as is.

A span records its name, start, end, parent span and the item id current
when it opened.  Counts are taken from the arguments or result after the
span has ended; the time that takes is excluded from the parent's self time
by covering each child up to ``done`` rather than ``end``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    item: int | None
    start: float = 0.0
    end: float = 0.0
    done: float = 0.0  # end plus the time spent taking counts
    counts: dict = field(default_factory=dict)


class Tracer:
    """Holds every span of one traced pass in memory until it is summarised."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.item)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.done = clock()
                stack.pop()
            if count is not None:
                span.counts = count(result, args)
                span.done = clock()
            return result

        traced.__wrapped__ = fn
        return traced


def _bits(values) -> int:
    return max((v.bit_length() for v in values), default=0)


def _sequence_counts(seq) -> dict:
    return {
        "entries": len(seq),
        "max_bits": max(_bits(seq.numerators), _bits(seq.denominators)),
    }


def _scan_counts(result, args) -> dict:
    return _sequence_counts(args[0])


def _sums_counts(result, args) -> dict:
    return {"entries": len(result), "max_bits": _bits(result)}


def _central_sequence_counts(result, args) -> dict:
    return {"max_bits": _sequence_counts(result)["max_bits"]}


def _peak_terms(result, args) -> dict:
    return {"terms": result[0]}


def _log_ratio_bits(result, args) -> dict:
    return {"max_bits": _bits(args[:2])}


def _verdict_checked(result, args) -> dict:
    return {"checked": result.checked}


def _verdicts_checked(result, args) -> dict:
    return {"checked": sum(v.checked for v in result)}


def _report_checked(result, args) -> dict:
    return {"checked": sum(v.checked for v in result.verdicts)}


def _table_checked(result, args) -> dict:
    # Coefficients compared between the two construction routes, the same
    # count run_all reports as "construction-routes-agree".
    return {"checked": sum(4 * n + 4 for n in range(result.n_max + 1))}


# (span name = defining module.attribute, counter, per-layer fields)
HOOKS = (
    ("property_checks.scan", _scan_counts, ("calls", "self_s", "entries", "max_bits")),
    ("exact_core.scaled_row_sums", _sums_counts, ("calls", "self_s", "entries", "max_bits")),
    ("exact_core.scaled_prefix_sums", _sums_counts, ("calls", "self_s", "entries", "max_bits")),
    ("exact_core.full_sequence", None, ("calls", "self_s")),
    ("exact_core.central_binomial_sequence", _central_sequence_counts,
     ("calls", "self_s", "max_bits")),
    ("sweep_harness.evaluate_cell", None, ("calls", "self_s", "max_ms")),
    ("sweep_harness.run_sweep", None, ("calls", "self_s")),
    ("property_checks.conjecture_report", None, ("calls", "self_s")),
    ("asymptotics._central_peak", _peak_terms, ("calls", "self_s", "terms")),
    ("asymptotics.sandwich_bounds", None, ("calls", "self_s")),
    ("asymptotics.central_ratio", None, ("calls", "self_s")),
    ("asymptotics._log_ratio", _log_ratio_bits, ("calls", "self_s", "max_bits")),
    ("asymptotics.conjectured_ratio", None, ("calls", "self_s")),
    ("poly_certificates.build_cert_table", _table_checked, ("calls", "self_s", "checked")),
    ("poly_certificates.verify_closed_forms", _verdicts_checked, ("calls", "self_s", "checked")),
    ("poly_certificates.verify_domination_bound", _verdict_checked,
     ("calls", "self_s", "checked")),
    ("poly_certificates.verify_sign_certificate", _verdict_checked,
     ("calls", "self_s", "checked")),
    ("poly_certificates.verify_equivalence_chain", _verdict_checked,
     ("calls", "self_s", "checked")),
    ("poly_certificates.verify_left_peak_inequality", _verdict_checked,
     ("calls", "self_s", "checked")),
    ("poly_certificates.verify_right_peak_inequality", _verdict_checked,
     ("calls", "self_s", "checked")),
    ("poly_certificates.run_all", _report_checked, ("calls", "self_s", "checked")),
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "entries": "count",
    "max_bits": "bits",
    "terms": "count",
    "checked": "count",
    "max_ms": "ms",
}


def package_modules(package) -> list:
    """The package object and every one of its submodules already imported."""
    prefix = package.__name__ + "."
    return [package] + [
        mod for name, mod in sorted(sys.modules.items()) if name.startswith(prefix)
    ]


@contextmanager
def installed(tracer: Tracer, package):
    """Rebind every hooked attribute to a span-recording wrapper, then restore."""
    modules = package_modules(package)
    saved = []
    try:
        for name, count, _ in HOOKS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], attr)
            wrapper = tracer.wrap(name, original, count)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the intervals its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.done - s.start
    return out


def summarise(spans: list[Span]) -> dict:
    """Per-layer metrics, named ``<span name>.<field>``, for every hook.

    Layers the pass never entered report 0, so every run emits the same keys.
    """
    own = self_times(spans)
    acc = {name: {f: 0 for f in fields} for name, _, fields in HOOKS}
    for span, self_s in zip(spans, own):
        row = acc[span.name]
        row["calls"] += 1
        row["self_s"] += self_s
        if "max_ms" in row:
            row["max_ms"] = max(row["max_ms"], (span.end - span.start) * 1e3)
        for key, value in span.counts.items():
            row[key] = max(row[key], value) if key == "max_bits" else row[key] + value
    return {
        f"{name}.{key}": value for name, row in acc.items() for key, value in row.items()
    }
