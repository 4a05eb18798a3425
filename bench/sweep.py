"""Seed sweep: the spread of the fitted slopes over many seeds.

    python3 bench/sweep.py --seeds 1-20
    python3 bench/sweep.py --seeds 1,4,9

Runs the jump-coupling, sde-convergence and clt-rate configs of the
benchmark's rate-experiments workload (untraced, one CLI invocation per
operation, with the same output checks) once per seed and prints, per
operation, the mean, standard deviation, minimum and maximum of the
slope the CLI reports.
It is a report, not a gate and not a timing: a change that reorders
random draws can be shown neutral in law by comparing two sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

from run import SRC, Runner, scratch_dir
from workloads import rate_experiments


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-20 or 1,4,9")
    args = ap.parse_args(argv)
    if not (SRC / "levyedge" / "cli.py").is_file():
        print(f"sweep: no levyedge sources under {SRC}", file=sys.stderr)
        return 2
    seeds = parse_seeds(args.seeds)

    slopes: dict = {}
    failed = 0
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with scratch_dir(f"sweep-{os.getpid()}") as workdir:
        for seed in seeds:
            runner = Runner(workdir, seed)
            for res in runner.round(rate_experiments(seed), trace=False)[0]:
                slope = res.report.get("slope")
                status = "ok" if not res.problems else "FAILED: " + "; ".join(res.problems)
                print(f"seed {seed} {res.name} slope={slope!r} {status}", flush=True)
                if res.problems:
                    failed += 1
                elif slope is not None:
                    slopes.setdefault(res.name, []).append(slope)

    summary = {}
    for op_name, vals in slopes.items():
        summary[op_name] = {
            "seeds": len(vals),
            "mean": statistics.fmean(vals),
            "stdev": statistics.stdev(vals) if len(vals) > 1 else 0.0,
            "min": min(vals),
            "max": max(vals),
        }
        s = summary[op_name]
        print(f"{op_name}: slope mean {s['mean']:.4f} sd {s['stdev']:.4f} "
              f"range [{s['min']:.4f}, {s['max']:.4f}] over {s['seeds']} seeds")
    print(json.dumps({"seeds": seeds, "failed": failed, "slopes": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
