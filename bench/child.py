"""Import levyedge.cli once, then fork one fresh process per CLI invocation.

    python3 bench/child.py

On start the process times ``import levyedge.cli`` (setup_s) and writes
one JSON line to standard output: ``{"setup_s": ..., "calib_s": [...],
"versions": {...}}``. It then reads requests, one JSON line each, from
standard input::

    {"cwd": DIR, "trace": 0|1, "result": FILE, "argv": [<levyedge arguments>]}

and for each forks a process that has done nothing but the import: its
lru caches are cold and its CPU time starts at zero, as in a fresh
interpreter, without paying the import again. That process runs
``cli.main`` in DIR with its standard output and error sent to
``stdout.txt`` and ``stderr.txt`` there, and writes FILE: the wall time
of ``cli.main`` (wall_s), its user plus system CPU time (cpu_s), its peak
RSS, the exit code of ``cli.main`` and the config hash ``cli.config_hash``
gives for the config it ran. With ``"trace": 1`` the outside-in tracer is
installed before ``cli.main`` runs and its span summary is written too.
After the fork has ended, one JSON line ``{"status": N, "calib_s": [...]}``
(the wait status) answers the request. End of input ends the process.

``calib_s`` lists timings of ``calibrate``, a fixed pure-Python loop,
taken right before and right after the import or the forked operation,
in this process: the runner divides by them to take out how fast the
shared host ran the CPU at the time. The loop never runs in a process
that runs ``cli.main``.
"""

import time

CALIB_REPEATS = 4  # loop timings before and after each timed step


def calibrate() -> float:
    """Time a fixed pure-Python loop (integer arithmetic and a small dict)."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(100_000):
        s += i * i % 7
        d[i & 1023] = s
    return time.perf_counter() - t0


_calib = [calibrate() for _ in range(CALIB_REPEATS)]
_t0 = time.perf_counter()
import levyedge.cli as cli  # noqa: E402  (the import is what setup_s times)

SETUP_S = time.perf_counter() - _t0
_calib += [calibrate() for _ in range(CALIB_REPEATS)]

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _config_hash(argv) -> str:
    experiment = argv[0]
    seed = int(argv[argv.index("--seed") + 1]) & ((1 << 64) - 1)
    return cli.config_hash(experiment, cli.load_config(argv[argv.index("--config") + 1]), seed)


def _operation(request: dict) -> None:
    """Body of the forked process: run one invocation and write its result."""
    os.chdir(request["cwd"])
    for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
        out = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, fd)
        os.close(out)
    argv = request["argv"]
    result = {}
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        result["coverage_problems"] = tracer.install()
    t1 = time.perf_counter()
    rc = cli.main(argv)
    result["wall_s"] = time.perf_counter() - t1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        rc=rc,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        config_hash=_config_hash(argv),
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _answer(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    _answer({"setup_s": SETUP_S, "calib_s": _calib, "versions": _versions()})
    for line in sys.stdin:
        request = json.loads(line)
        calib = [calibrate() for _ in range(CALIB_REPEATS)]
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                _operation(request)
            except BaseException:  # noqa: BLE001  (reported through stderr.txt)
                traceback.print_exc()
                code = 1
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(code)  # never return into the request loop
        _, status = os.waitpid(pid, 0)
        calib += [calibrate() for _ in range(CALIB_REPEATS)]
        _answer({"status": status, "calib_s": calib})
    return 0


if __name__ == "__main__":
    sys.exit(main())
