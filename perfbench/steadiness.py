"""Run each workload N times in alternating order and report spreads.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10

Two sets, each running every workload of ``BENCHMARK.json`` ``--runs``
times for its ``run_seconds``, one fresh process per run and another
seed each time (100 + run index), walking the workloads forwards on
even repetitions and backwards on odd ones, and alternating the
starting direction between sets.  For every end-to-end metric it
prints each set's median and quartiles, the spread (Q3 − Q1) / median,
and the shift of the second set's median against the first's in the
metric's worse direction, next to the metric's bound.  Per-run wall
seconds, CPU seconds over the timed phase, host steal ticks and
failure shares are printed as they come.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles  # noqa: E402

SETS = 2
SEED_BASE = 100


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}"
        )
    info = json.loads(lines[-2].removeprefix("info: "))
    info["wall_s"] = time.perf_counter() - t0
    return {"workload": workload, "seed": seed, "info": info, **json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results: list[dict] = []
    for s in range(SETS):
        for i in range(args.runs):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                r = one_run(w, SEED_BASE + i, spec["run_seconds"])
                r["set"] = s
                results.append(r)
                print(
                    f"set {s} run {i} {w:15s} seed {r['seed']} "
                    f"wall {r['info']['wall_s']:.1f}s "
                    f"cpu {r['info']['cpu_s']:.2f}s steal {r['info']['steal_ticks']} "
                    f"failed {r['failed']}/{r['attempted']} correct {r['correct']}",
                    flush=True,
                )

    print()
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            medians = []
            for s in range(SETS):
                vals = [
                    r["metrics"][name]["value"] for r in results
                    if r["workload"] == w and r["set"] == s
                ]
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                print(
                    f"{w:15s} {name:17s} set {s}: median {med:.6g} "
                    f"Q1 {q1:.6g} Q3 {q3:.6g} spread {(q3 - q1) / med:.3f} "
                    f"(bound {m['bound']})"
                )
            worse = medians[1] / medians[0] - 1.0
            if m["better"] == "higher":
                worse = medians[0] / medians[1] - 1.0
            print(f"{w:15s} {name:17s} second median worse by {worse:+.3f}")
        shares = {
            r["failed"] / r["attempted"] for r in results if r["workload"] == w
        }
        print(f"{w:15s} failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
