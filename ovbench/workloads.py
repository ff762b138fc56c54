"""The benchmark's three workloads: task lists made from a seed, and their checks.

A task is one unit a user would ask for: one exact table, one ν-mass audit,
one curve, one reconstruction, one MC report or one CLI call.  `Task.run`
is timed; `Task.check` runs after every task of the pass has finished, outside
the timed region, and returns a dict holding at least ``ok``.

Every call into ovstat goes through a module attribute looked up at call time
(``ov.probability_table``, ``ov.cli.main``), so a traced pass sees it.

The seed changes cb's location and scale (worker.py builds the parents), some
geometries and index pairs, the MC streams and the order of the tasks.  It
never changes how many tasks of each kind a pass has or their sizes, so one
seed costs about as much as another.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

import ovstat as ov
import ovstat.cli

MASS_TOL = 1e-6
# criterion 7 of the acceptance suite: rank-mixture and closed-form paths
CURVE_TOL = 1e-7
# Reconstruction differentiates a 41-point curve by central differences; the
# first-order end differences leave an error near 1/(2*41) at the grid ends
# (0.0138 measured on all four routes), so anything above 0.02 is a defect.
RECON_GRID = 41
RECON_TOL = 0.02
# a margin of the rectangle law is a binomial tail; cb's cdf is a numerical
# inverse good to ~1e-12, so 1e-9 leaves room and still catches wrong weights
RECT_TOL = 1e-9
# Family-wise false-failure probability of one MC task.  Its |z| threshold is
# Bonferroni over the task's comparisons, so a verdict does not depend on how
# many cells a geometry has or on the stream: with ~100 MC tasks per run a
# correct library fails one in ~10^4 runs.
MC_ALPHA = 1e-6
# Curve pairs take grid sizes 5..9 in turn (7 on average).  Tasks of one kind
# then spread over a range of latencies instead of sitting in clusters, so the
# latency percentiles do not jump between clusters when the host's speed drifts.
CURVE_GRIDS = (5, 6, 7, 8, 9)
VERIFY_DRAWS = 200_000
REGRESSION_DRAWS = 10**7

# laws: large sparse geometries (N = 70 .. 250) and the CLI probs geometry (N = 130)
LADDER = [(20, 60, 50), (30, 90, 70), (50, 120, 100), (70, 160, 130), (99, 162, 151)]
CLI_PROBS_SPEC = (40, 100, 90, 50, 45)


@dataclass
class Task:
    label: str
    kind: str
    key: tuple  # the geometry the task works on, for shared_spec_frac
    run: Callable[[], object]
    check: Callable[[object, dict], dict]


def _key(spec: ov.OverlapSpec) -> tuple:
    return (spec.r, spec.m, spec.n, spec.i, spec.j)


def _spec_args(spec: ov.OverlapSpec) -> list[str]:
    return [arg for key, value in zip(("--r", "--m", "--n", "--i", "--j"), _key(spec)) for arg in (key, str(value))]


def _swapped(spec: ov.OverlapSpec) -> ov.OverlapSpec:
    # reversing the pooled sequence exchanges the samples' roles
    return ov.OverlapSpec(spec.n + spec.r - spec.m, spec.n, spec.m, spec.j, spec.i)


def small_specs() -> list[ov.OverlapSpec]:
    """Every valid geometry with r <= 3 and m, n <= 6 (1,196 of them, N <= 9)."""
    return [
        ov.OverlapSpec(r, m, n, i, j)
        for r in range(4)
        for m in range(1, 7)
        for n in range(1, 7)
        if r < m <= n + r
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _table_ok(spec: ov.OverlapSpec, entries: dict) -> bool:
    """Exact total 1 and both marginals equal to the single-sample rank law."""
    N = spec.pooled_size
    rows: dict[int, Fraction] = defaultdict(Fraction)
    cols: dict[int, Fraction] = defaultdict(Fraction)
    for (k, ell), p in entries.items():
        if p:
            rows[k] += p
            cols[ell] += p
    if sum(rows.values(), Fraction(0)) != 1:
        return False
    return all(
        rows[k] == ov.marginal_rank_probability(spec.i, spec.m, k, N)
        and cols[k] == ov.marginal_rank_probability(spec.j, spec.n, k, N)
        for k in range(1, N + 1)
    )


def _check_table(table, _outputs) -> dict:
    return {"ok": _table_ok(table.spec, table.entries)}


def _check_mass(mass, _outputs) -> dict:
    err = abs(mass - 1.0)
    return {"ok": err <= MASS_TOL, "mass_err": err}


def _binomial_tail(size: int, index: int, prob: float) -> float:
    """P(at least ``index`` of ``size`` iid draws fall below a level of cdf ``prob``)."""
    return sum(math.comb(size, s) * prob**s * (1.0 - prob) ** (size - s) for s in range(index, size + 1))


RECT_LEVELS = (0.2, 0.5, 0.8)


def _rect_task(spec: ov.OverlapSpec, model) -> Callable[[], dict]:
    def run():
        xs = [float(model.quantile(u)) for u in RECT_LEVELS] + [math.inf]
        return {(a, b): ov.rectangle_probability(spec, model, xs[a], xs[b]) for a in range(4) for b in range(4) if a < 3 or b < 3}

    return run


def _check_rect(spec: ov.OverlapSpec):
    def check(values, _outputs) -> dict:
        ok = True
        for a, u in enumerate(RECT_LEVELS):
            ok &= abs(values[(a, 3)] - _binomial_tail(spec.m, spec.i, u)) <= RECT_TOL
            ok &= abs(values[(3, a)] - _binomial_tail(spec.n, spec.j, u)) <= RECT_TOL
        for a in range(3):
            for b in range(3):
                p, fx, fy = values[(a, b)], values[(a, 3)], values[(3, b)]
                # Fréchet bounds, and monotone in each corner coordinate
                ok &= max(0.0, fx + fy - 1.0) - 1e-12 <= p <= min(fx, fy) + 1e-12
                ok &= values[(a + 1, b)] >= p - 1e-12 and values[(a, b + 1)] >= p - 1e-12
        return {"ok": bool(ok)}

    return check


def _curves_gap(a, b) -> float:
    if not np.array_equal(a.grid, b.grid):
        return math.inf
    return float(np.max(np.abs(a.values - b.values)))


def _check_curve(_curve, _outputs) -> dict:
    return {"ok": True}  # Curve refuses non-finite values; the partner task compares


def _check_against(partner: str):
    def check(curve, outputs) -> dict:
        other = outputs.get(partner)
        if not isinstance(other, ov.Curve):
            return {"ok": False}
        gap = _curves_gap(curve, other)
        return {"ok": gap <= CURVE_TOL, "two_path_gap": gap}

    return check


def _check_recon(model):
    def check(result, _outputs) -> dict:
        err = result.max_abs_error_against(model.cdf)
        return {"ok": err <= RECON_TOL, "cdf_err": err}

    return check


def _check_mc(report, _outputs) -> dict:
    threshold = NormalDist().inv_cdf(1.0 - MC_ALPHA / (2 * len(report.comparisons)))
    return {"ok": report.max_abs_z <= threshold, "max_abs_z": report.max_abs_z}


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(line for line in handle if not line.startswith("#")) if row]
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _cli(argv: list[str], outputs: list[Path]) -> Callable[[], tuple]:
    def run():
        code = ov.cli.main(argv)
        return code, outputs

    return run


def _cli_bytes(outputs: list[Path]) -> int:
    return sum(path.stat().st_size for path in outputs if path.exists())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def laws_tasks(rng: random.Random, models: dict, workdir: Path, nproc: int) -> list[Task]:
    specs = small_specs()
    tasks = [
        Task(f"table {_key(s)}", "table", _key(s), lambda s=s: ov.probability_table(s), _check_table)
        for s in specs
    ]
    for r, m, n in LADDER:
        spec = ov.OverlapSpec(r, m, n, (m + 1) // 2, (n + 1) // 2)
        tasks.append(Task(f"ladder N={spec.pooled_size}", "ladder", _key(spec), lambda s=spec: ov.probability_table(s), _check_table))
    by_size = defaultdict(list)
    for s in specs:
        by_size[s.pooled_size].append(s)
    for N in range(2, 10):
        spec = rng.choice(by_size[N])
        for name, model in models.items():
            tasks.append(
                Task(
                    f"mass {_key(spec)} {name}",
                    "mass",
                    _key(spec),
                    lambda s=spec, md=model: ov.nu_total_mass(ov.overlap_density(s, md)),
                    _check_mass,
                )
            )
            tasks.append(Task(f"rect {_key(spec)} {name}", "rect", _key(spec), _rect_task(spec, model), _check_rect(spec)))
    spec = ov.OverlapSpec(*CLI_PROBS_SPEC)
    out = workdir / "probs.json"

    def check_probs(result, _outputs) -> dict:
        code, paths = result
        if code != 0:
            return {"ok": False}
        payload = json.loads(out.read_text())
        entries = {(e["k"], e["ell"]): Fraction(e["num"], e["den"]) for e in payload["entries"]}
        ok = _table_ok(spec, entries) and payload["total"] == {"num": 1, "den": 1}
        return {"ok": ok, "cli_bytes": _cli_bytes(paths)}

    rng.shuffle(tasks)
    # last, so that its transient JSON always adds to every table the pass holds
    # and peak memory does not depend on the seed's task order
    cli = _cli(["probs", *_spec_args(spec), "--format", "json", "--out", str(out)], [out])
    return tasks + [Task(f"cli probs {_key(spec)}", "cli", _key(spec), cli, check_probs)]


PAIR_R1 = {
    "max_given_max": (1, 2, 2, 2, 2),
    "min_given_min": (1, 2, 2, 1, 1),
    "min_given_max": (1, 2, 2, 1, 2),
    "max_given_min": (1, 2, 2, 2, 1),
}
# extension geometries with a closed-form E(second os | first os = x)
EXTENSION = {
    (0, 2, 5, 1, 1): lambda md, x: ov.mean_min_extended(md, 5, 2, x),
    (0, 2, 5, 2, 5): lambda md, x: ov.mean_max_extended(md, 5, 2, x),
    (0, 3, 4, 2, 2): lambda md, x: ov.mean_adjacent(md, 2, 3, x),
    (0, 1, 3, 1, 2): lambda md, x: ov.mean_given_single(md, 2, 3, x),
}
GENERAL = [(2, 4, 5, 2, 3), (3, 6, 6, 3, 4)]


def _curve_pair(label: str, key: tuple, first, second, model, size: int) -> list[Task]:
    """Two curves of one quantity by independent paths, compared at CURVE_TOL."""

    def tabulate(producer):
        return lambda: ov.tabulate(producer, model, size=size, meaning=label)

    return [
        Task(f"{label} [a]", "curve", key, tabulate(first), _check_curve),
        Task(f"{label} [b]", "curve", key, tabulate(second), _check_against(f"{label} [a]")),
    ]


def _recon_tasks(models: dict) -> list[Task]:
    def curve(model, producer):
        return ov.tabulate(producer, model, size=RECON_GRID, meaning="forward")

    cb, lg, un, ex = models["cb"], models["logistic"], models["uniform"], models["exponential"]

    def via_min():
        return ov.from_min_regression(curve(cb, lambda x: ov.mean_min_extended(cb, 3, 1, x)), 3, 1)

    def via_max():
        return ov.from_max_regression(curve(lg, lambda x: ov.mean_max_extended(lg, 3, 1, x)), 3, 1)

    def via_adjacent():
        gap = curve(un, lambda x: x - ov.mean_adjacent(un, 2, 3, x))
        return ov.from_adjacent_regression(gap, 2, upper=un.support[1])

    def via_slope():
        h = curve(ex, lambda x: ov.mean_given_single(ex, 2, 3, x))
        return ov.from_single_regression_slope(ov.Curve(h.grid, h.derivative()), 2, 3)

    return [
        Task("reconstruct min cb", "recon", ("min", 3, 1), via_min, _check_recon(cb)),
        Task("reconstruct max logistic", "recon", ("max", 3, 1), via_max, _check_recon(lg)),
        Task("reconstruct adjacent uniform", "recon", ("adjacent", 2, 3), via_adjacent, _check_recon(un)),
        Task("reconstruct single-slope exponential", "recon", ("single", 2, 3), via_slope, _check_recon(ex)),
    ]


def _cli_round_trip(workdir: Path) -> list[Task]:
    """`ovstat regress` of E(min of 3 | first draw) on the exponential parent,
    then `ovstat reconstruct --route min` of the CSV it wrote."""
    spec = (0, 1, 3, 1, 1)
    curve_csv, cdf_csv = workdir / "curve.csv", workdir / "cdf.csv"
    diag = workdir / "cdf.diagnostics.json"
    regress = ["regress", *_spec_args(ov.OverlapSpec(*spec)), "--family", "exponential"]
    regress += ["--grid", str(RECON_GRID), "--direction", "ext-given-orig", "--out", str(curve_csv)]
    reconstruct = ["reconstruct", "--route", "min", "--input", str(curve_csv), "--n", "3", "--m", "1", "--out", str(cdf_csv)]

    def check_regress(result, _outputs) -> dict:
        code, paths = result
        if code != 0:
            return {"ok": False}
        names, data = _read_csv(curve_csv)
        x, value = data[:, names.index("x")], data[:, names.index("value")]
        expo = ov.exponential()
        closed = np.array([ov.mean_min_extended(expo, 3, 1, float(v)) for v in x])
        gap = float(np.max(np.abs(value - closed)))
        return {"ok": gap <= CURVE_TOL, "two_path_gap": gap, "cli_bytes": _cli_bytes(paths)}

    def check_reconstruct(result, _outputs) -> dict:
        code, paths = result
        if code != 0:
            return {"ok": False}
        names, data = _read_csv(cdf_csv)
        x, cdf = data[:, names.index("x")], data[:, names.index("cdf")]
        err = float(np.max(np.abs(cdf + np.expm1(-x))))
        return {"ok": err <= RECON_TOL, "cdf_err": err, "cli_bytes": _cli_bytes(paths)}

    return [
        Task("cli regress", "cli", spec, _cli(regress, [curve_csv]), check_regress),
        Task("cli reconstruct", "cli", ("min", 3, 1), _cli(reconstruct, [cdf_csv, diag]), check_reconstruct),
    ]


def curves_tasks(rng: random.Random, models: dict, workdir: Path, nproc: int) -> list[Task]:
    tasks: list[Task] = []
    sizes = itertools.cycle(CURVE_GRIDS)
    for name, model in models.items():
        for which, key in PAIR_R1.items():
            spec = ov.OverlapSpec(*key)
            tasks += _curve_pair(
                f"{which} {name}",
                key,
                lambda y, s=spec, md=model: ov.mean_original_given_extended(s, md, y),
                lambda y, w=which, md=model: ov.pair_regression_r1(w, md, y),
                model,
                next(sizes),
            )
        for key, closed in EXTENSION.items():
            spec = ov.OverlapSpec(*key)
            tasks += _curve_pair(
                f"extension {key} {name}",
                key,
                lambda x, s=spec, md=model: ov.mean_extended_given_original(s, md, x),
                lambda x, c=closed, md=model: c(md, x),
                model,
                next(sizes),
            )
    for r, m, n, i, j in GENERAL:
        spec = ov.OverlapSpec(r, m, n, i, j)
        dual = _swapped(spec)
        for name, model in models.items():
            # E(first | second) directly, and as E(second | first) of the swapped geometry
            tasks += _curve_pair(
                f"general {_key(spec)} {name}",
                _key(spec),
                lambda y, s=spec, md=model: ov.mean_original_given_extended(s, md, y),
                lambda y, s=dual, md=model: ov.mean_extended_given_original(s, md, y),
                model,
                next(sizes),
            )
    tasks += _recon_tasks(models)
    rng.shuffle(tasks)
    # the CLI pair runs last and in order: reconstruct reads what regress wrote
    return tasks + _cli_round_trip(workdir)


# 49 distinct shapes (r, m, n) with N = 5..8, one task each; the seed picks (i, j)
VERIFY_SHAPES = sorted(
    {(s.r, s.m, s.n) for s in small_specs() if 5 <= s.pooled_size <= 8}, key=lambda shape: (shape[0] + shape[2], shape)
)[:49]
# One case, so that peak memory does not depend on the seed: the logistic
# quantile makes more temporaries than the exponential one (812 MB vs 721 MB).
REGRESSION_CASE = ((1, 3, 3, 2, 2), "exponential")


def verify_tasks(rng: random.Random, models: dict, workdir: Path, nproc: int) -> list[Task]:
    tasks: list[Task] = []
    names = list(models)
    for index, (r, m, n) in enumerate(VERIFY_SHAPES):
        spec = ov.OverlapSpec(r, m, n, rng.randint(1, m), rng.randint(1, n))
        name = names[index % len(names)]
        tasks.append(
            Task(
                f"verify_spec {_key(spec)} {name}",
                "verify",
                _key(spec),
                lambda s=spec, md=models[name], sd=rng.getrandbits(32): ov.verify_spec(
                    s, md, count=VERIFY_DRAWS, seed=sd, workers=nproc
                ),
                _check_mc,
            )
        )
    rng.shuffle(tasks)
    # first: the allocator's state when the 10^7-draw arrays arrive sets peak
    # memory, and it must not depend on the seed's task order
    key, name = REGRESSION_CASE
    heavy = lambda s=ov.OverlapSpec(*key), md=models[name], sd=rng.getrandbits(32): ov.regression_comparison(  # noqa: E731
        s, md, count=REGRESSION_DRAWS, seed=sd, workers=nproc
    )
    return [Task(f"regression_comparison {key} {name}", "regression", key, heavy, _check_mc)] + tasks


BUILDERS = {"laws": laws_tasks, "curves": curves_tasks, "verify": verify_tasks}


def build_tasks(workload: str, seed: int, models: dict, workdir: Path, nproc: int) -> list[Task]:
    return BUILDERS[workload](random.Random(seed), models, workdir, nproc)


def shared_spec_frac(tasks: list[Task]) -> float:
    seen: set = set()
    shared = 0
    for task in tasks:
        shared += task.key in seen
        seen.add(task.key)
    return shared / len(tasks)
