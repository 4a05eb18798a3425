"""levyedge benchmark: drive the real CLI at pinned configs and measure it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside ``bench/``.
An operation is one CLI invocation plus its output checks. Each round of
operations starts a fresh interpreter (``child.py``) that imports
``levyedge.cli`` once and forks one process per operation, so every
operation starts cold, and its CPU time and peak RSS belong to it alone,
without a second import per operation. Inputs (configs, cumulant files)
are made from ``--seed`` in a scratch directory under ``.bench_work/`` that is removed
at the end; the CLI receives only those files and ``--seed``.

``--trace 0`` runs whole rounds of the workload's operations until
``--seconds`` would be exceeded (at least one round) and reports the
end-to-end metrics from each operation's median over rounds. Times are
in reference seconds: each measured time is multiplied by
``CALIB_REF_S`` over the median time of a fixed loop
(``child.calibrate``) run right before and after it on the same host, so
that how fast the shared host ran the CPU at the time drops out. The
measured times are printed on a line of their own.

- ``wall_s``: wall time of ``cli.main`` after import, summed over the
  round's operations;
- ``setup_s``: time to ``import levyedge.cli`` in a fresh interpreter,
  the median over the rounds' imports;
- ``cpu_s``: user plus system CPU time of the operation processes,
  summed;
- ``peak_rss_mb``: peak RSS of the round's largest operation process;
- ``ok_frac``: operations whose checks all passed over operations run.

``--trace 1`` runs one untraced round, then one traced round, and
reports the per-layer metrics of ``tracer.LAYER_METRICS`` plus
``trace_overhead_s`` (traced minus untraced wall time), all as measured,
not scaled. It also checks that the tracer covered every binding, that
span counts match what the config implies, that traced outputs are
byte-identical to untraced ones, and that self times add up to the
traced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the machine, the outputs and each metric with its sample
count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from tracer import layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

CLI_THREADS = 1
#: fixed reference time of the calibration loop (child.calibrate), which
#: took 17 to 26 ms on the baseline host; reported times are scaled as if
#: the loop had taken this long
CALIB_REF_S = 0.022
RUN_DEADLINE_S = 165.0  # a run must end within 180 s, clean-up included


@dataclass
class OpResult:
    name: str
    problems: List[str] = field(default_factory=list)
    timings: Optional[dict] = None  # wall_s, cpu_s, calib_s, peak_rss_mb, rc, ...
    digest: str = ""
    report: Dict[str, float] = field(default_factory=dict)


class ChildLost(Exception):
    """The forking interpreter did not answer in time or exited."""


class Runner:
    """Runs the operations of one benchmark invocation in child processes.

    Each round starts a fresh interpreter (``child.py``) whose import of
    ``levyedge.cli`` is one setup_s sample, and forks one process from it
    per operation, so every operation starts cold without paying the
    import again.
    """

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.versions: dict = {}

    def _reply(self, proc: subprocess.Popen) -> dict:
        """The child's next answer line, or ChildLost at the run's deadline."""
        timeout = max(0.0, self.deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        if not ready:
            self.deadline = 0.0  # no further children in this run
            raise ChildLost(f"no answer within {timeout:.0f} s")
        line = proc.stdout.readline()
        if not line:
            raise ChildLost(f"child exited {proc.wait()}: " + _tail(self.workdir / "child.err"))
        return json.loads(line)

    def round(self, ops: List[Op], trace: bool) -> tuple:
        """Run ``ops`` in order; return (results, (setup_s, calib_s) or None)."""
        results = [OpResult(op.name) for op in ops]
        with open(self.workdir / "child.err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD)], cwd=self.workdir, env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                start_new_session=True,
            )
        try:
            hello = self._reply(proc)
            self.versions = hello["versions"]
            for op, res in zip(ops, results):
                self._run_op(proc, op, res, trace)
            return results, (hello["setup_s"], _median(hello["calib_s"]))
        except (ChildLost, OSError) as exc:
            for res in results:
                if res.timings is None and not res.problems:
                    res.problems.append(str(exc))
            return results, None
        finally:
            _stop(proc)

    def _run_op(self, proc: subprocess.Popen, op: Op, res: OpResult, trace: bool) -> None:
        opdir = self.workdir / op.name
        opdir.mkdir(exist_ok=True)
        (opdir / "config.cfg").write_text(op.config, encoding="utf-8")
        for name, text in op.files.items():
            (opdir / name).write_text(text, encoding="utf-8")
        out, result = opdir / "out.txt", opdir / "result.json"
        out.unlink(missing_ok=True)
        result.unlink(missing_ok=True)
        request = {"cwd": str(opdir), "trace": int(trace), "result": str(result), "argv": [
            op.experiment, "--config", "config.cfg", "--seed", str(self.seed),
            "--threads", str(CLI_THREADS), "--no-timestamp", "--out", out.name,
        ]}
        proc.stdin.write((json.dumps(request) + "\n").encode())
        proc.stdin.flush()
        reply = self._reply(proc)
        status = reply["status"]
        if status != 0 or not result.exists():
            res.problems.append(f"operation exited with status {status}: " +
                                _tail(opdir / "stderr.txt"))
            return
        with open(result, encoding="utf-8") as fh:
            data = json.load(fh)
        res.timings = data
        data["calib_s"] = _median(reply["calib_s"])
        if data["rc"] != 0:
            res.problems.append(f"exit code {data['rc']}: " + _tail(opdir / "stderr.txt"))
            return
        raw = out.read_bytes()
        res.digest = hashlib.sha256(raw).hexdigest()[:16]
        text = raw.decode("utf-8", errors="replace")
        if text.splitlines()[:1] != [f"config_hash,{data['config_hash']}"]:
            res.problems.append(f"hash line {text.splitlines()[:1]} != {data['config_hash']}")
        problems, res.report = op.check(text)
        res.problems += problems
        if trace:
            res.problems += data["coverage_problems"]
            calls = {k: v["calls"] for k, v in data["trace"]["keys"].items()}
            for key, want in op.expect_calls.items():
                if calls.get(key, 0) != want:
                    res.problems.append(f"{calls.get(key, 0)} {key} spans, expected {want}")
            for key in op.expect_zero:
                if calls.get(key, 0):
                    res.problems.append(f"{calls[key]} {key} spans, expected none")


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(lines[-3:])


def _stop(proc: subprocess.Popen) -> None:
    """End the child and every process it forked, and wait for them."""
    with contextlib.suppress(OSError):
        proc.stdin.close()  # end of input: the child exits after its current fork
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        pass
    # the child leads its own process group; a fork it left behind is in it
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    proc.stdout.close()
    end = time.monotonic() + 5
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def _median(values) -> float:
    return float(statistics.median(values))


def _ref(seconds: float, calib_s: float) -> float:
    """A time in reference seconds: scaled as if the loop had taken CALIB_REF_S."""
    return seconds * CALIB_REF_S / calib_s


def machine_info(versions: dict, seed: int) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "llc": "unknown",
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy", "unknown"),
        "scipy": versions.get("scipy", "unknown"),
        "cli_threads": CLI_THREADS,
        "blas_threads": 1,
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = sorted(
            (int((d / "level").read_text()), (d / "size").read_text().strip())
            for d in caches.glob("index*")
        )
        if levels:
            info["llc"] = f"L{levels[-1][0]} {levels[-1][1]}"
    except (OSError, ValueError):
        pass
    return info


def _print_ops(rounds: List[List[OpResult]], label: str) -> None:
    for i, rnd in enumerate(rounds):
        for r in rnd:
            report = " ".join(f"{k}={v!r}" for k, v in r.report.items())
            status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
            wall = f"{r.timings['wall_s']:.4f}" if r.timings else "-"
            print(f"{label} round {i} {r.name} wall_s={wall} digest={r.digest or '-'} {report} {status}")


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under .bench_work/, removed with its contents on exit."""
    path = WORK / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> Optional[dict]:
    """Run one workload; print its report lines and return the result object."""
    ops = WORKLOADS[workload](seed)
    steal0, wall0 = host_steal_s(), time.monotonic()
    if not trace:
        rounds: List[List[OpResult]] = []
        imports: List[tuple] = []  # (setup_s, calib_s) of each round
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            results, setup = runner.round(ops, trace=False)
            rounds.append(results)
            if setup is not None:
                imports.append(setup)
            now = time.monotonic()
            if now - start + (now - t0) > seconds or now > runner.deadline - (now - t0):
                break
        for rnd in rounds[1:]:  # reruns of the same config must be byte-identical
            for first, again in zip(rounds[0], rnd):
                if again.digest and first.digest and again.digest != first.digest:
                    again.problems.append(f"rerun digest {again.digest} != {first.digest}")
        results = [r for rnd in rounds for r in rnd]
        _print_ops(rounds, "untraced")
        # per-operation medians over rounds, then summed over the round's operations
        per_op = [[rnd[i].timings for rnd in rounds if rnd[i].timings is not None]
                  for i in range(len(ops))]
        if not all(per_op) or not imports:
            return None
        attempted = len(results)
        failed = sum(1 for r in results if r.problems)
        n = min(len(t) for t in per_op)
        metrics = {
            "wall_s": (sum(_median(_ref(x["wall_s"], x["calib_s"]) for x in t)
                           for t in per_op), "s", n),
            "setup_s": (_median(_ref(*i) for i in imports), "s", len(imports)),
            "cpu_s": (sum(_median(_ref(x["cpu_s"], x["calib_s"]) for x in t)
                          for t in per_op), "s", n),
            "peak_rss_mb": (max(_median(x["peak_rss_mb"] for x in t) for t in per_op), "MB", n),
            "ok_frac": ((attempted - failed) / attempted, "frac", attempted),
        }
        print(f"measured {workload} wall_s = {sum(_median(x['wall_s'] for x in t) for t in per_op)!r} s"
              f" cpu_s = {sum(_median(x['cpu_s'] for x in t) for t in per_op)!r} s"
              f" setup_s = {_median(i[0] for i in imports)!r} s, calibration loop"
              f" {1e3 * _median(x['calib_s'] for t in per_op for x in t):.3f} ms"
              f" (reference {1e3 * CALIB_REF_S:.3f} ms)")
    else:
        plain, _ = runner.round(ops, trace=False)
        traced, _ = runner.round(ops, trace=True)
        for p, t in zip(plain, traced):
            if p.digest != t.digest:
                t.problems.append(f"traced digest {t.digest} != untraced {p.digest}")
            if p.timings is not None and t.timings is not None:
                overhead = t.timings["wall_s"] - p.timings["wall_s"]
                self_sum = t.timings["trace"]["self_ns_total"] / 1e9
                if abs(t.timings["wall_s"] - self_sum) > max(overhead, 0.0) + 1e-3:
                    t.problems.append(
                        f"self times sum to {self_sum:.6f} s, traced wall {t.timings['wall_s']:.6f} s"
                    )
        _print_ops([plain], "untraced")
        _print_ops([traced], "traced")
        if any(r.timings is None for r in plain + traced):
            return None
        results = plain + traced
        attempted = len(results)
        failed = sum(1 for r in results if r.problems)
        plain_wall = sum(r.timings["wall_s"] for r in plain)
        traced_wall = sum(r.timings["wall_s"] for r in traced)
        merged = merge([r.timings["trace"] for r in traced])
        metrics = {name: (value, unit, 1) for name, (value, unit) in layer_metrics(merged).items()}
        metrics["trace_overhead_s"] = (traced_wall - plain_wall, "s", 1)
        print(f"traced wall {traced_wall:.4f} s, untraced {plain_wall:.4f} s, "
              f"{merged['spans']} spans")

    print("machine " + json.dumps(machine_info(runner.versions, seed), sort_keys=True))
    print(f"host steal {host_steal_s() - steal0:.2f} cpu-s during {time.monotonic() - wall0:.1f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {workload} {name} = {value!r} {unit} (n={n})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def declared_metrics(trace: bool) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "levyedge" / "cli.py").is_file():
        print(f"bench: no levyedge sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds and kills children
    with scratch_dir(str(os.getpid())) as workdir:
        for name in names:
            result = measure(name, args.seed, args.seconds, trace, Runner(workdir, args.seed))
            if result is None:
                print(f"bench: {name}: no operation produced timings", file=sys.stderr)
                return 1
            if set(result["metrics"]) != set(declared_metrics(trace)):
                print("bench: metrics differ from BENCHMARK.json", file=sys.stderr)
                return 2
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
