"""ovstat benchmark: one workload, measured for a fixed time, with checked outputs.

    python3 ovbench/run.py --workload laws --seed 1 --seconds 45 --trace 0

Run from the root of a checkout (the library is imported from ``src/``).
Every pass of the workload runs in a fresh interpreter (worker.py), so the
table caches are cold and set-up is paid each time.  Workers start one after
another until the next would end after ``--seconds``.

``--trace 0`` runs a set-up-only worker before every two plain passes, with
at least two passes, and reports the end-to-end metrics: set-up time (median
over every worker of the time to start, ``import ovstat`` and build the
workload's parent models), wall time of a pass (median), task latency p50/p90
over all tasks of all passes, and peak RSS of a pass (median).  ``--trace 1`` alternates plain and
traced passes and reports the per-layer metrics of the traced ones (median),
the trace overhead, and the set-up breakdown from ``python -X importtime``.

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A provenance JSON line precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# workloads, metric names and units: the benchmark's declaration is the one list
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # numpy's BLAS/OpenMP pools would compete with the MC thread pool
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, mode: str, env: dict) -> dict:
    """Start one worker; return its RESULT with ``setup_s`` measured from spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                setup_s = time.perf_counter() - start
                ready = json.loads(payload)
            elif tag == "RESULT":
                result = json.loads(payload)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or result is None:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result.update(setup_s=setup_s, **ready)
    return result


def import_breakdown(env: dict) -> dict:
    """``setup.import_s`` and ``setup.import_scipy_s`` from ``-X importtime``.

    The scipy share is the cumulative time of every scipy module whose
    importer is not itself a scipy module, i.e. what importing ovstat pays
    for scipy, including what scipy pulls in.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ovstat"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("import ovstat failed")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    import_us = next(c for depth, name, c in rows if name == "ovstat")
    scipy_us = 0
    # a module's line follows the lines of everything it imported, indented deeper
    for pos, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[pos + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy_us += cumulative
    return {"setup.import_s": import_us / 1e6, "setup.import_scipy_s": scipy_us / 1e6}


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def passes(workload: str, seed: int, seconds: float, cycle: tuple[str, ...], minimum: dict, env: dict) -> list[dict]:
    """Start workers in the modes of ``cycle``, round and round, until the next
    one would end after ``seconds``, once each mode has run ``minimum`` times.

    Interleaving spreads every mode's samples over the whole run, so a slow
    spell of the machine does not fall on one mode alone.
    """
    start = time.perf_counter()
    done: list[dict] = []
    longest: dict[str, float] = {}
    for turn in itertools.count():
        mode = cycle[turn % len(cycle)]
        enough = all(sum(r["mode"] == m for r in done) >= n for m, n in minimum.items())
        if enough and time.perf_counter() - start + longest.get(mode, 0.0) > seconds:
            return done
        began = time.perf_counter()
        result = run_worker(workload, seed, mode, env)
        result["mode"] = mode
        done.append(result)
        longest[mode] = max(longest.get(mode, 0.0), time.perf_counter() - began)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ovstat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, env: dict, runs: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "mc_workers": runs[0]["mc_workers"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def end_to_end(runs: list[dict], probes: list[dict]) -> dict:
    task_ms = [ms for r in runs for ms in r["task_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs + probes),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "task_ms_p50": statistics.median(task_ms),
        "task_ms_p90": percentile(task_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(plain: list[dict], traced: list[dict], env: dict) -> dict:
    layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    layers["workload.shared_spec_frac"] = traced[0]["shared_spec_frac"]
    layers.update(import_breakdown(env))
    layers["setup.parent_build_s"] = statistics.median(r["parent_build_s"] for r in plain)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ovstat" / "__init__.py").is_file():
        print(f"error: no ovstat sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    try:
        if args.trace:
            runs = passes(args.workload, args.seed, args.seconds, ("plain", "traced"), {"plain": 1, "traced": 1}, env)
            plain = [r for r in runs if r["mode"] == "plain"]
            traced = [r for r in runs if r["mode"] == "traced"]
            metrics = per_layer(plain, traced, env)
        else:
            workers = passes(args.workload, args.seed, args.seconds, ("setup", "plain", "plain"), {"plain": 2}, env)
            runs = [r for r in workers if r["mode"] == "plain"]
            metrics = end_to_end(runs, [r for r in workers if r["mode"] == "setup"])
        samples = sum(len(r["task_ms"]) for r in runs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED ({r['mode']} pass): {failure}")
    print(f"workload {args.workload}: {len(runs)} passes, {samples} task samples, "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace:
        cb = {}
        for r in runs:
            for name, s in r.get("cb_curve_self_s", {}).items():
                cb[name] = cb.get(name, 0.0) + s
        if cb:
            ranked = ", ".join(f"{name} {s:.3f}" for name, s in sorted(cb.items(), key=lambda kv: -kv[1]))
            print(f"self s inside cb curve tasks: {ranked}")
        if traced[0]["large_useful_frac"]:
            print("useful_frac of tables with N >= 70: " + ", ".join(
                f"N={n} {frac:.3f}" for n, frac in traced[0]["large_useful_frac"]))
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} reported or declared alone", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"provenance": provenance(args, env, runs)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
