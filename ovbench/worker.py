"""One pass of one workload in a fresh interpreter; `run.py` starts it.

    python3 ovbench/worker.py --workload laws --seed 1 --mode plain

Modes: ``setup`` imports ovstat, builds the workload's parent models and
exits; ``plain`` then runs every task and checks it; ``traced`` does the same
with spans around ovstat's public functions (see spans.py).

The worker prints ``READY {json}`` once set-up is done, so the caller can
time set-up from process start, and ``RESULT {json}`` at the end.  Before
READY it imports only what ``import ovstat`` loads anyway; the benchmark's own
modules come after.  A fresh process per pass means the lru_caches in ovstat
and the parent tables start cold on every pass.  The MC pools get
``workers = nproc``, the CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import ovstat as ov  # its import time is part of set-up

OUT = Path(__file__).resolve().parent / "out"
# the cb curve tasks whose self time per layer the traced pass reports
CB_CURVE = " cb ["


def build_models(workload: str, seed: int) -> dict:
    """The workload's parents; cb's location and scale are drawn from the seed.

    cb's gauge is native to its quantile table, so it changes the numbers
    computed but barely the work: quad's stopping rule sees other values and
    takes about 3% more or fewer steps.  The closed-form families stay
    standard, because an affine map would add a wrapper to each of their calls.
    """
    rng = random.Random(seed)
    names = ("exponential", "logistic") if workload == "verify" else ("uniform", "exponential", "logistic")
    models = {name: ov.make_family(name) for name in names}
    models["cb"] = ov.complementary_beta(0.5, 1.5, location=rng.uniform(-1.0, 1.0), scale=rng.uniform(0.5, 2.0))
    return models


def _emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _layer_metrics(summary: dict, stats: dict) -> tuple[dict, list]:
    """Per-layer metrics of a traced pass, and the nonzero share of each table with N >= 70."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    tables = [t for t in summary.get("overlap.probability_table", {}).get("extra", []) if t is not None]
    built = sum(len(t.entries) for t in tables)
    nonzero = sum(len(t.nonzero()) for t in tables)
    quantile_points = sum(summary.get("parent.quantile", {}).get("extra", []))
    draws = summary.get("mc.simulate_pairs", {}).get("extra", [])
    n_draws = sum(d for d, _ in draws)
    sim_total = summary.get("mc.simulate_pairs", {}).get("total_s", 0.0)
    out = {
        "combinatorics.count_matching.calls": calls("combinatorics.count_matching"),
        "combinatorics.count_matching.self_s": self_s("combinatorics.count_matching"),
        "overlap.probability_table.calls": calls("overlap.probability_table"),
        "overlap.probability_table.self_s": self_s("overlap.probability_table"),
        "overlap.rank_match_probability.calls": calls("overlap.rank_match_probability"),
        "overlap.entries_built": built,
        "overlap.useful_frac": nonzero / built if built else 0.0,
        "parent.build.calls": calls("parent.build"),
        "parent.build.self_s": self_s("parent.build"),
        "parent.quantile.calls": calls("parent.quantile"),
        "parent.quantile.points_per_call": quantile_points / calls("parent.quantile") if calls("parent.quantile") else 0.0,
        "parent.quantile.self_s": self_s("parent.quantile"),
        "parent.cdf.calls": calls("parent.cdf"),
        "parent.cdf.self_s": self_s("parent.cdf"),
        "density.nu_total_mass.calls": calls("density.nu_total_mass"),
        "density.nu_total_mass.self_s": self_s("density.nu_total_mass"),
        "density.rectangle_probability.calls": calls("density.rectangle_probability"),
        "density.rectangle_probability.self_s": self_s("density.rectangle_probability"),
        "density.max_mass_err": stats["mass_err"],
        "regression.mean.calls": calls("regression.mean"),
        "regression.mean.self_s": self_s("regression.mean"),
        "regression.conditional_os_mean.calls": calls("regression.conditional_os_mean"),
        "regression.conditional_os_mean.self_s": self_s("regression.conditional_os_mean"),
        "regression.closed_form.calls": calls("regression.closed_form"),
        "regression.closed_form.self_s": self_s("regression.closed_form"),
        "regression.max_two_path_gap": stats["two_path_gap"],
        "curve.tabulate.calls": calls("curve.tabulate"),
        "curve.tabulate.self_s": self_s("curve.tabulate"),
        "reconstruct.calls": calls("reconstruct"),
        "reconstruct.self_s": self_s("reconstruct"),
        "reconstruct.max_cdf_err": stats["cdf_err"],
        "mc.simulate_pairs.calls": calls("mc.simulate_pairs"),
        "mc.simulate_pairs.self_s": self_s("mc.simulate_pairs"),
        "mc.draws": n_draws,
        "mc.draws_per_s": n_draws / sim_total if sim_total else 0.0,
        "mc.uniform_bytes_computed": 8 * sum(u for _, u in draws),
        "mc.verify_spec.self_s": self_s("mc.verify_spec"),
        "mc.binned_conditional_mean.self_s": self_s("mc.binned_conditional_mean"),
        "mc.max_abs_z": stats["max_abs_z"],
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_written": stats["cli_bytes"],
    }
    return out, [(t.spec.pooled_size, len(t.nonzero()) / len(t.entries)) for t in tables if t.spec.pooled_size >= 70]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args()
    nproc = len(os.sched_getaffinity(0))

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    models = build_models(args.workload, args.seed)
    parent_build_s = time.perf_counter() - t0
    _emit("READY", {"parent_build_s": parent_build_s})
    if args.mode == "setup":
        _emit("RESULT", {"peak_rss_mb": _peak_rss_mb()})
        return 0

    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.build_tasks(args.workload, args.seed, models, workdir, nproc)
        outputs: dict[str, object] = {}
        task_ms: list[float] = []
        pass_start = time.perf_counter()
        for task in tasks:
            t = time.perf_counter()
            try:
                outputs[task.label] = tracer.task(task.label, task.run) if tracer else task.run()
            except Exception as exc:  # a task that raises is a failed task, not a failed run
                outputs[task.label] = exc
            task_ms.append((time.perf_counter() - t) * 1e3)
        wall_s = time.perf_counter() - pass_start

        result = {"wall_s": wall_s, "task_ms": task_ms, "peak_rss_mb": _peak_rss_mb(), "mc_workers": nproc}
        if tracer:
            tracer.uninstall()
            summary = spans.summarize(tracer)
            cb_labels = {t.label for t in tasks if t.kind == "curve" and CB_CURVE in t.label}
            result["cb_curve_self_s"] = spans.self_by_name_under(tracer, cb_labels)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            tracer = None

        stats = {"mass_err": 0.0, "two_path_gap": 0.0, "cdf_err": 0.0, "max_abs_z": 0.0, "cli_bytes": 0}
        failures = []
        for task in tasks:
            output = outputs[task.label]
            if isinstance(output, Exception):
                verdict = {"ok": False, "error": f"raised {output!r}"}
            else:
                try:
                    verdict = task.check(output, outputs)
                except Exception as exc:  # a check that cannot run fails its task
                    verdict = {"ok": False, "error": f"check raised {exc!r}"}
            if not verdict["ok"]:
                failures.append(f"{task.label}: {verdict.get('error', 'check failed')}")
            for key in ("mass_err", "two_path_gap", "cdf_err", "max_abs_z"):
                if key in verdict:
                    stats[key] = max(stats[key], float(verdict[key]))
            stats["cli_bytes"] += verdict.get("cli_bytes", 0)
        result.update(
            attempted=len(tasks),
            failed=len(failures),
            failures=failures[:20],
            shared_spec_frac=workloads.shared_spec_frac(tasks),
        )
        if args.mode == "traced":
            result["layers"], result["large_useful_frac"] = _layer_metrics(summary, stats)
        _emit("RESULT", result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
