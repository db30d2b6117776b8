"""Benchmark for powsumseq: one workload per process, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

The workload runs whole passes over its seeded items in a closed loop, with
one caller, until the next pass would overrun ``--seconds``.  Outputs are
checked outside the timed region.  ``--workload all`` runs the four
workloads one after another, each in its own process.

``--trace 0`` reports the end-to-end metrics: wall_s (median pass),
item_p50_ms and item_p90_ms (over the items, each at its median over the
passes), setup_s (median over fresh interpreters of import, input
generation and one warm-up call) and peak_rss_mb.  Times are scaled to a
quiet host by a reference kernel sampled while they run (see ``Sampler``
and NOTES.md).  ``--trace 1`` spends half of ``--seconds`` on
untraced passes, then runs one pass with spans around every layer boundary
(see tracing.py) and reports the per-layer metrics and trace.overhead_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with provenance, sample
counts and any failures is written to .perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_results")
SETUP_SAMPLES = 7
# Pass times are scaled to a host on which the reference kernel below takes
# REFERENCE_S seconds, about its time on a quiet 2-core x86-64 host with
# Python 3.11.  Other tenants of a shared host slow the kernel and the
# workload alike, so scaled times hold still where raw ones drift.
REFERENCE_S = 0.00035
SAMPLE_EVERY_S = 0.025
LOCAL_SAMPLES = 8

# Runs in a fresh interpreter; the clock starts before anything is imported.
# The reference kernel then runs right after, to scale the time like a pass.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
w = workloads.make(sys.argv[3], sys.argv[5])
w.warm_up(w.inputs(int(sys.argv[4])))
elapsed = time.perf_counter() - t0
import run
print(elapsed, run.reference_mean())
"""


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _reference_kernel() -> int:
    """Fixed big-integer work of the kind the package does (squared binomial
    prefix sums, operands up to about 1700 bits); never changes."""
    coeff = acc = 1
    for i in range(1, 601):
        coeff = coeff * (601 - i) // i
        acc = acc * 3 + coeff * coeff
    return acc


def reference_mean() -> float:
    """Mean time of LOCAL_SAMPLES back-to-back runs of the reference kernel."""
    took = []
    for _ in range(LOCAL_SAMPLES):
        start = time.perf_counter()
        _reference_kernel()
        took.append(time.perf_counter() - start)
    return statistics.fmean(took)


class Sampler:
    """Times the reference kernel every SAMPLE_EVERY_S while a pass runs.

    A timer signal runs the kernel between two bytecodes of whatever the
    pass is doing, so the samples see the host as the pass saw it.  Sample
    times are kept on the pass's own clock, which excludes ``spent``, the
    time the samples took.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_kernel()
        took = time.perf_counter() - start
        self.at.append(start - self.spent)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.took) < LOCAL_SAMPLES:  # a pass too short to sample
            self._tick(None, None)

    def scale(self, a: float, b: float) -> float:
        """REFERENCE_S over the mean sample taken while [a, b] ran, or over
        the LOCAL_SAMPLES samples nearest its middle if fewer fell inside."""
        lo, hi = bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)
        if hi - lo < LOCAL_SAMPLES:
            mid = bisect.bisect_left(self.at, (a + b) / 2)
            lo = max(0, min(mid - LOCAL_SAMPLES // 2, len(self.at) - LOCAL_SAMPLES))
            hi = lo + LOCAL_SAMPLES
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])


def one_pass(workload, inputs, tracer=None, package=None):
    """Run one pass; return (scaled wall, scaled per-item times, outputs,
    unscaled wall, mean reference sample).

    Each item is scaled by the samples taken around it; the wall is the sum
    of the scaled items plus the rest of the pass, scaled as a whole.  With
    a tracer, the pass runs inside ``tracing.installed``; without one,
    nothing is rebound.
    """
    sampler = Sampler()
    stamps: list[float] = []

    def mark() -> None:
        stamps.append(time.perf_counter() - sampler.spent)
        if tracer is not None:
            tracer.item = len(stamps)

    if tracer is None:
        hooks = contextlib.nullcontext()
    else:
        tracer.item = 0
        hooks = tracing.installed(tracer, package)
    with hooks, sampler:
        start = time.perf_counter()
        outputs = workload.run_pass(inputs, mark)
        end = time.perf_counter() - sampler.spent
    spans = list(zip([start] + stamps, stamps))
    items = [(b - a) * sampler.scale(a, b) for a, b in spans]
    rest = (end - start) - sum(b - a for a, b in spans)
    wall = sum(items) + rest * sampler.scale(start, end)
    return wall, items, outputs, end - start, statistics.fmean(sampler.took)


def run_passes(workload, inputs, seconds: float):
    """Untraced passes while the next one, at the fastest pass's pace, fits.

    The first pass's outputs go through the workload's oracle; every later
    pass must reproduce them exactly, which costs far less than the oracle
    and leaves more of the run for timing.  Returns (scaled pass walls,
    scaled item times per pass, failure messages, and per pass the
    unscaled wall and the mean reference sample).
    """
    walls: list[float] = []
    passes: list[list[float]] = []
    failures: list[str] = []
    unscaled: list[tuple[float, float]] = []
    first = None
    begin = time.perf_counter()
    while True:
        wall, times, outputs, raw_wall, reference = one_pass(workload, inputs)
        walls.append(wall)
        passes.append(times)
        unscaled.append((raw_wall, reference))
        if first is None:
            first = outputs
            failures.extend(workload.check(inputs, outputs))
        elif outputs != first:
            failures.append(f"{workload.name}: pass {len(walls)} differs from pass 1")
        fastest = min(w for w, _ in unscaled)
        if time.perf_counter() - begin + fastest > seconds:
            return walls, passes, failures, unscaled


def setup_times(name: str, seed: int) -> list[float]:
    """Import, input generation and one warm-up call, each in a fresh
    interpreter, scaled by the reference kernel timed right after."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed), OUT_DIR],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, reference = map(float, proc.stdout.split()[-2:])
        out.append(elapsed * REFERENCE_S / reference)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "git_commit": git_commit(),
        "seed": seed,
        "seed_used": workload.seeded,
        "processes": 1,
    }


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, seed: int, seconds: float, inputs):
    setups = setup_times(workload.name, seed)
    walls, passes, failures, raw = run_passes(workload, inputs, seconds)
    item_times = [statistics.median(times) for times in zip(*passes)]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "item_p50_ms": metric(statistics.median(item_times) * 1e3, "ms", len(item_times)),
        "item_p90_ms": metric(p90(item_times) * 1e3, "ms", len(item_times)),
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
    }
    return metrics, sum(map(len, passes)), failures, {"unscaled_passes": raw}


def traced(workload, seconds: float, inputs, package):
    walls, passes, failures, raw = run_passes(workload, inputs, seconds / 2)
    tracer = tracing.Tracer()
    wall, times, outputs, raw_wall, reference = one_pass(workload, inputs, tracer, package)
    failures.extend(workload.check(inputs, outputs))
    layers = tracing.summarise(tracer.spans)
    metrics = {k: metric(v, tracing.UNITS[k.rsplit(".", 1)[1]], 1) for k, v in layers.items()}
    metrics["trace.overhead_s"] = metric(
        wall - statistics.median(walls), "s", len(walls) + 1
    )
    self_s = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    extra = {
        "spans": len(tracer.spans),
        "unscaled_passes": raw,
        "unscaled_traced_pass": (raw_wall, reference),
        "largest_self_s": [
            {"layer": k, "self_s": v, "share": v / raw_wall} for k, v in top
        ],
    }
    return metrics, sum(map(len, passes)) + len(times), failures, extra


def run_workload(args) -> dict:
    """Measure one workload in this process; print its lines, return the result."""
    import powsumseq
    import workloads

    workload = workloads.make(args.workload, OUT_DIR)
    inputs = workload.inputs(args.seed)
    workload.warm_up(inputs)
    if args.trace:
        metrics, attempted, failures, extra = traced(workload, args.seconds, inputs, powsumseq)
    else:
        metrics, attempted, failures, extra = end_to_end(workload, args.seed, args.seconds, inputs)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(workload, args.seed),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:100],
        "metrics": metrics,
        **extra,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    if not workload.seeded:
        print(f"{args.workload} is deterministic: --seed {args.seed} is recorded, not used")
    for message in failures[:20]:
        print(f"FAIL {message}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']!r} {m['unit']} (samples {m['samples']})")
    for row in extra.get("largest_self_s", []):
        print(f"self time {row['layer']}: {row['self_s']:.4f} s ({row['share']:.1%} of the pass)")
    print(f"fail_frac = {result['fail_frac']!r} ({len(failures)} failed of {attempted})")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    return result


def run_every_workload(args) -> dict:
    """Each workload in its own process, one after another, so that
    peak_rss_mb is per workload; metrics come back as <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=args.seconds * 4 + 120,
            check=True,
        )
        *lines, last = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


WORKLOADS = ("grid", "central", "polycert", "rational")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "powsumseq", "__init__.py")):
        print(f"perfbench: no src/powsumseq under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        summary = run_every_workload(args)
    else:
        result = run_workload(args)
        summary = {
            "correct": not result["failed"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]}
                for k, m in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
