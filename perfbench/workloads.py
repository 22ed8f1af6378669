"""The benchmark's workloads: the jobs each one runs and the inputs they get.

A workload is a closed-loop batch: its jobs run one after another in a
single thread, and every job calls advzoom only through public entry points
(``cli.sweep_horizons``, ``cli.run_experiment``, ``cli.cover_fit``,
``algo.init``/``algo.run``, ``evaluate.*``, ``metric.*``). Every input is
derived from the base seed, so the same seed gives the same jobs.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from advzoom import algo, cli, env, evaluate, metric

GOLD = 0.6180339887498949

TENT = {"kind": "distance_to_target"}
TENT_D2 = {"kind": "distance_to_target", "target": [GOLD, 1.0 - GOLD]}
PRICING = {"kind": "pricing", "values": {"kind": "uniform", "a": 0.0, "b": 1.0}}
# EXP3.P's 2-arm instance of acceptance criterion 3: arms 1/4 and 3/4,
# means 0.6 and 0.4
TWO_ARM = {"kind": "custom_table",
           "points": [[0.0, 0.6], [0.49, 0.6], [0.51, 0.4], [1.0, 0.4]]}


def _bump(lo, hi):
    return {"kind": "baseline_bump", "peak": 0.55, "baseline": 0.2,
            "support": [lo, hi]}


# the two-bump adversarial instance of the acceptance suite: the peak moves
# from [0.1, 0.4] to [0.6, 0.9] halfway through the horizon
COMBINED = {"kind": "combined",
            "instances": [_bump(0.1, 0.4), _bump(0.6, 0.9)],
            "subsets": [[0.1, 0.4], [0.6, 0.9]],
            "baselines": [0.2, 0.2]}

SIZES = {
    "full": {
        "ladder_horizons": [512, 1024, 2048], "ladder_seeds": 1,
        "d2_T": 8192, "d2_seeds": 1,
        "cover_T_d1": 16384, "cover_T_d2": 4096,
        "dag_n": 56, "dag_T": 2048, "dag_spaces": 2,
    },
    # a few rounds of every job, for the benchmark's own tests
    "tiny": {
        "ladder_horizons": [64, 128, 256], "ladder_seeds": 1,
        "d2_T": 256, "d2_seeds": 1,
        "cover_T_d1": 512, "cover_T_d2": 256,
        "dag_n": 12, "dag_T": 128, "dag_spaces": 1,
    },
}


@dataclass
class Job:
    name: str
    run: Callable  # run(ctx) with ctx a batch.JobContext


def job_seeds(base: int, k: int) -> list:
    """k distinct non-negative seeds derived from the base seed."""
    return [(base * 16 + i) % (1 << 62) for i in range(k)]


def _config(algorithm, d, env_spec, T, seeds, **extra) -> dict:
    return {"algorithm": algorithm, "space": {"kind": "cube", "d": d},
            "env": env_spec, "T": T, "seeds": seeds, **extra}


def _sweep_job(name, raw, horizons, slope_key=None) -> Job:
    def run(ctx):
        cfg = cli.load_config(ctx.write_config(raw))
        report = cli.sweep_horizons(cfg, horizons, ctx.out_dir)
        if not math.isfinite(report["slope"]):
            ctx.fail(f"non-finite regret slope {report['slope']!r}")
        if slope_key:
            ctx.info[slope_key] = report["slope"]
            ctx.info[slope_key + "_stderr"] = report["slope_stderr"]
    return Job(name, run)


def ladder_d1(seed: int, size: dict) -> list:
    """Horizon sweeps at d=1 without snapshots: per-round fixed cost."""
    hs = size["ladder_horizons"]
    seeds = job_seeds(seed, size["ladder_seeds"])
    T = hs[-1]
    return [
        _sweep_job("zoom_tent",
                   _config("adversarial_zooming", 1, TENT, T, seeds,
                           record_pi=False),
                   hs, slope_key="zoom_tent_slope"),
        _sweep_job("zoom_pricing",
                   _config("adversarial_zooming", 1, PRICING, T, seeds,
                           record_pi=False, repr_policy="low_endpoint"),
                   hs),
        _sweep_job("exp3p_two_arm",
                   _config("exp3p_uniform", 1, TWO_ARM, T, seeds,
                           record_pi=False, baseline={"grid_eps": 0.5}),
                   hs),
    ]


def artifacts_d2(seed: int, size: dict) -> list:
    """A d=2 `run` with snapshots, monitor, trace and curve artifacts."""
    raw = _config("adversarial_zooming", 2, TENT_D2, size["d2_T"],
                  job_seeds(seed, size["d2_seeds"]),
                  record_pi=True, emit_curves=True)

    def run(ctx):
        cfg = cli.load_config(ctx.write_config(raw))
        summary = cli.run_experiment(cfg, ctx.out_dir)
        if summary["violations"]:
            ctx.fail(f"{summary['violations']} monitor violations")
    return [Job("run_tent_d2", run)]


def _cover_job(name, raw) -> Job:
    def run(ctx):
        cfg = cli.load_config(ctx.write_config(raw))
        report = cli.cover_fit(cfg, ctx.out_dir)
        if not any(report["counts"]):
            ctx.fail("no near-optimal arms at any epsilon")
        if "z_hat" in report and not math.isfinite(report["z_hat"]):
            ctx.fail(f"non-finite dimension fit {report['z_hat']!r}")
    return Job(name, run)


def analysis_combined(seed: int, size: dict) -> list:
    """Near-optimal-set covering fits: block rewards and replay, no learner."""
    s = job_seeds(seed, 2)
    return [
        _cover_job("cover_combined_d1",
                   _config("adversarial_zooming", 1, COMBINED,
                           size["cover_T_d1"], [s[0]])),
        _cover_job("cover_tent_d2",
                   _config("adversarial_zooming", 2, TENT_D2,
                           size["cover_T_d2"], [s[1]])),
    ]


def stratified_points(seed: int, n: int) -> np.ndarray:
    """One uniform draw in each of n equal cells of [0, 1].

    Near-even spacing is the case where the doubling-constant estimate is
    known to be inflated, and it keeps set-up cost steady across seeds.
    """
    u = np.random.default_rng(seed).random(n)
    return (np.arange(n) + u) / n


def _dag_job(name, space_seed, n, T) -> Job:
    def run(ctx):
        x = stratified_points(space_seed, n)
        space = metric.FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
        environment = env.env_from_spec(COMBINED, T, space_seed)
        state = algo.init(space, T, algo.AlgoConfig(seed=space_seed))
        trace = algo.run(state, environment)
        violations = evaluate.monitor(trace)
        report = evaluate.regret(trace, environment, grid=x.reshape(-1, 1))
        trace.write_csv(os.path.join(ctx.out_dir, "trace.csv"))
        with open(os.path.join(ctx.out_dir, "regret.json"), "w") as f:
            json.dump(report.to_dict(), f, indent=1, sort_keys=True)
        ctx.verify_trace(trace, environment)
        if violations:
            ctx.fail(f"{len(violations)} monitor violations, first "
                     f"{violations[0]}")
    return Job(name, run)


def finite_dag(seed: int, size: dict) -> list:
    """Library run on a finite metric space: DAG build and doubling constant."""
    return [_dag_job(f"dag_space{i}", s, size["dag_n"], size["dag_T"])
            for i, s in enumerate(job_seeds(seed, size["dag_spaces"]))]


WORKLOADS = {
    "ladder_d1": ladder_d1,
    "artifacts_d2": artifacts_d2,
    "analysis_combined": analysis_combined,
    "finite_dag": finite_dag,
}
