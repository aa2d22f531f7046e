"""MPROS benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_ingest --seed 1 --seconds 20 --trace 0

Workloads: ``shipboard_scan``, ``fleet_ingest``, ``fleet_query`` (see
``perfbench/README.md``).  The run generates its inputs from
``--seed``, builds the program's objects (timed for ``setup_s``),
collects the heap, then runs whole rounds of the workload until
``--seconds`` of timed work have elapsed, checks every output, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer self times and counts of one traced round, plus the
tracing overhead.  The line before the result is an ``info`` object
with the process CPU seconds and host steal ticks over the timed phase.
The exit code is 0 when every output check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, stats  # noqa: E402
from perfbench.trace import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, OpTimer  # noqa: E402

#: Builds, and imports of the program in fresh interpreters, timed for
#: ``setup_s``; the median of each is reported.
SETUP_BUILDS = 3

#: Scratch space for partition logs, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"

#: Span dumps of traced runs.
OUT_DIR = ROOT / ".perfbench-out"

_clock = time.perf_counter


def steal_ticks() -> int:
    """Host-wide steal ticks from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def fresh_import_s() -> float:
    """Median wall time of importing the program and the benchmark's
    modules in fresh interpreters."""
    code = (
        f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}; "
        "t = time.perf_counter(); import perfbench.workloads; "
        "print(time.perf_counter() - t)"
    )
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout)
        for _ in range(SETUP_BUILDS)
    ]
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark invocation: set-up, rounds, checks, result."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.seconds = seconds
        WORK_DIR.mkdir(exist_ok=True)
        t = _clock()
        self.workload = WORKLOADS[name](seed, WORK_DIR)
        self.gen_s = _clock() - t
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        builds = []
        inst = None
        for _ in range(SETUP_BUILDS):
            if inst is not None:
                self.workload.close(inst)
            t = _clock()
            inst = self.workload.build()
            builds.append(_clock() - t)
        self.first = inst
        self.import_s = fresh_import_s()
        self.setup_s = self.import_s + statistics.median(builds)

    def round(self, recorder: SpanRecorder | None = None, counts=None):
        """Build (unless the set-up instance is pending) and run one
        timed round; returns (wall, work, samples, inst)."""
        inst = self.first if self.first is not None else self.workload.build()
        self.first = None
        gc.collect()
        ops = OpTimer(recorder)
        if recorder is not None:
            recorder.reset()
            counts.clear()
            recorder.active = True
        t = _clock()
        try:
            work = self.workload.run_round(inst, ops)
        finally:
            wall = _clock() - t
            if recorder is not None:
                recorder.active = False
        self.attempted += ops.attempted
        self.failed += ops.failed
        self.errors += ops.errors
        return wall, work, ops.samples, inst

    def finish(self, inst, final: bool) -> None:
        self.failures += self.workload.check(inst, final)
        self.workload.close(inst)

    def timed(self) -> dict:
        """Untraced rounds until the time budget is spent."""
        walls, works, samples = [], [], []
        cpu0, steal0 = time.process_time(), steal_ticks()
        while sum(walls) < self.seconds:
            wall, work, s, inst = self.round()
            walls.append(wall)
            works.append(work)
            samples += s
            last = sum(walls) >= self.seconds
            self.finish(inst, final=last)
        self.info = {
            "cpu_s": time.process_time() - cpu0,
            "steal_ticks": steal_ticks() - steal0,
            "rounds": len(walls),
        }
        summary = stats.summarize(samples, self.workload.tail_pct)
        self.info.update(
            ops=summary["n"], tail_pct=summary["tail_pct"],
            tail_beyond=summary["beyond"], gen_s=self.gen_s,
            import_s=self.import_s,
        )
        if summary["beyond"] < stats.MIN_BEYOND:
            print(
                f"WARNING: only {summary['beyond']} samples beyond "
                f"p{summary['tail_pct']:g}; op_tail_s is not steady",
                file=sys.stderr,
            )
        return {
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "throughput_per_s": (
                statistics.median(w / t for w, t in zip(works, walls)), "1/s"
            ),
            "op_p50_s": (summary["p50"], "s"),
            "op_tail_s": (summary["tail"], "s"),
        }

    def traced(self, dump_path: Path) -> dict:
        """Alternate untraced and traced rounds; per-layer metrics of
        the traced round with the median wall time."""
        recorder = SpanRecorder()
        counts: dict[str, float] = {}
        plain, traced = [], []
        cpu0, steal0 = time.process_time(), steal_ticks()
        elapsed = 0.0
        while elapsed < self.seconds or not traced:
            wall, work, _, inst = self.round()
            plain.append(work / wall)
            self.finish(inst, final=False)
            layers.install(recorder, counts)
            try:
                twall, twork, _, inst = self.round(recorder, counts)
            finally:
                recorder.uninstall()
            busy = recorder.self_times()
            row = {f"{name}.busy_s": busy.get(name, 0.0) for name in layers.LAYERS}
            round_counts = {**counts, **self.workload.counts(inst)}
            row.update({name: round_counts.get(name, 0) for name, _ in layers.COUNTS})
            row["trace.wall_s"] = twall
            row["trace.unattributed_s"] = twall - sum(busy.values())
            row["trace.spans"] = len(recorder.names)
            traced.append((twall, twork / twall, row))
            elapsed += wall + twall
            done = elapsed >= self.seconds
            if done:
                OUT_DIR.mkdir(exist_ok=True)
                recorder.dump(str(dump_path))
            self.finish(inst, final=done)
        self.info = {
            "cpu_s": time.process_time() - cpu0,
            "steal_ticks": steal_ticks() - steal0,
            "rounds": len(plain) + len(traced),
        }
        traced.sort(key=lambda t: t[0])
        row = traced[len(traced) // 2][2]
        row["trace.overhead_ratio"] = statistics.median(plain) / statistics.median(
            [t[1] for t in traced]
        )
        units = {name: unit for name, unit in layers.COUNTS}
        units["trace.overhead_ratio"] = "ratio"
        return {
            name: (value, "s" if name.endswith("_s") else units.get(name, "count"))
            for name, value in row.items()
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run = Run(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics = run.traced(OUT_DIR / f"spans-{args.workload}.jsonl")
        else:
            metrics = run.timed()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for error in run.errors[:20]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for failure in run.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print("info: " + json.dumps(run.info, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
