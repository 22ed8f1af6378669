"""Experiment runner.

Configs are single JSON files with a strict schema (unknown keys are
rejected with their path).  A run is fully determined by (config, seed):
repeating it produces bit-identical trace CSVs.  Artifacts per seed are the
trace CSV, a regret report JSON, and an invariant report JSON; the run
directory gets a manifest embedding the canonical config and its hash, plus
an aggregate JSON when sweeping seeds.

Verbs: run, sweep (horizon ladder with a log-log slope fit), audit
(reward-smoothness audit of the configured environment), cover (dimension
fit of near-optimal arm sets).  Output root comes from --out or the
ADVZOOM_OUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import __version__, algo, baselines, evaluate
from .env import env_from_spec, lipschitz_audit
from .metric import FiniteMetricSpace
from .trace import Trace, write_curves_csv

ALGORITHMS = ("adversarial_zooming", "exp3p_uniform")
OUT_ROOT_VAR = "ADVZOOM_OUT_ROOT"


# --------------------------------------------------------------------------
# Config schema
# --------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    algorithm: str
    space: dict
    env: dict
    seeds: list
    T: Optional[int] = None
    rounds: Optional[int] = None  # anytime mode (doubling trick)
    grid_eps: Optional[float] = None
    record_pi: bool = True
    debug_invariants: bool = False
    repr_policy: Optional[str] = None  # default: center; pricing: low_endpoint
    emit_curves: bool = False
    baseline: dict = field(default_factory=dict)  # exp3p: {"grid_eps": ...}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("algorithm", "space", "env", "seeds"):
            if key not in raw:
                raise ValueError(f"missing config key: {key}")
        cfg = cls(**raw)
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(f"config.algorithm must be one of {ALGORITHMS}")
        if (cfg.T is None) == (cfg.rounds is None):
            raise ValueError("config needs exactly one of T (fixed horizon) "
                             "or rounds (anytime)")
        space_kind = cfg.space.get("kind")
        if space_kind == "cube":
            extra = set(cfg.space) - {"kind", "d"}
            if extra or int(cfg.space.get("d", 0)) < 1:
                raise ValueError(f"bad space spec: {cfg.space}")
        elif space_kind == "finite":
            if set(cfg.space) != {"kind", "path"}:
                raise ValueError(f"bad space spec: {cfg.space}")
        else:
            raise ValueError(f"space.kind must be cube or finite: {cfg.space}")
        extra = set(cfg.baseline) - {"grid_eps"}
        if extra:
            raise ValueError(f"unknown baseline keys: {sorted(extra)}")
        if not cfg.seeds:
            raise ValueError("config.seeds must be non-empty")
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def horizon(self) -> int:
        return self.T if self.T is not None else self.rounds

    @property
    def dim(self) -> int:
        """Dimension of the arm space: the cube's d, or 1 for a finite space."""
        return int(self.space["d"]) if self.space["kind"] == "cube" else 1

    def effective_repr_policy(self) -> str:
        if self.repr_policy is not None:
            return self.repr_policy
        return "low_endpoint" if self.env.get("kind") == "pricing" else "center"


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return ExperimentConfig.from_dict(raw)


def _space_of(cfg: ExperimentConfig):
    if cfg.space["kind"] == "cube":
        return int(cfg.space["d"])
    return FiniteMetricSpace.from_file(cfg.space["path"])


def _grid_eps_of(cfg: ExperimentConfig, T: int) -> float:
    if cfg.grid_eps is not None:
        return float(cfg.grid_eps)
    d = cfg.dim
    eps = evaluate.default_grid_eps(d)
    # coarsen until the replay fits the evaluation guard
    while (round(1.0 / eps) + 1) ** d * T > evaluate.MAX_EVALS:
        if eps >= 1.0:
            raise ValueError(
                f"T={T} is too long to evaluate at d={d}: even the grid "
                f"eps = 1 ({2 ** d} arms) needs more than "
                f"evaluate.MAX_EVALS={evaluate.MAX_EVALS} reward evaluations"
            )
        eps *= 2.0
    return eps


# --------------------------------------------------------------------------
# Single runs
# --------------------------------------------------------------------------


def _merge_anytime(phases: list) -> Trace:
    """Concatenate phase traces: global round numbers, offset node ids."""
    first = phases[0]
    merged = Trace(
        algorithm="adversarial_zooming",
        T=sum(tr.n_rounds for tr in phases),
        d=first.d,
        n_dbl=first.n_dbl,
        seed=first.seed,
        space_kind=first.space_kind,
    )
    t_base = 0
    id_base = 0
    for tr in phases:
        for meta in tr.node_table.values():
            shifted = replace(
                meta,
                node_id=meta.node_id + id_base,
                parent_id=None if meta.parent_id is None
                else meta.parent_id + id_base,
                tau0=meta.tau0 + t_base,
                tau1=None if meta.tau1 is None else meta.tau1 + t_base,
            )
            merged.add_node(shifted)
        for rec in tr.rounds:
            merged.append(replace(
                rec,
                t=rec.t + t_base,
                node_id=rec.node_id + id_base,
                zoomed=tuple(z + id_base for z in rec.zoomed),
                active_ids=None if rec.active_ids is None
                else tuple(i + id_base for i in rec.active_ids),
            ))
        t_base += tr.n_rounds
        id_base += max(tr.node_table) + 1
    return merged


def run_one_seed(cfg: ExperimentConfig, seed: int):
    """Run a single seed; returns (trace, env, phase_traces_for_monitor)."""
    environment = env_from_spec(cfg.env, cfg.horizon, seed)
    if cfg.algorithm == "exp3p_uniform":
        eps = cfg.baseline.get("grid_eps") or baselines.default_grid_eps(
            cfg.horizon, cfg.dim
        )
        arms = baselines.uniform_grid(cfg.dim, float(eps))
        trace = baselines.exp3p_run(arms, cfg.horizon, environment, seed=seed,
                                    record_state=cfg.record_pi)
        return trace, environment, [trace]
    acfg = algo.AlgoConfig(
        seed=seed,
        repr_policy=cfg.effective_repr_policy(),
        record_state=cfg.record_pi,
        debug_invariants=cfg.debug_invariants,
    )
    space = _space_of(cfg)
    if cfg.rounds is not None:
        phases = algo.run_anytime(space, acfg, cfg.rounds, environment)
        return _merge_anytime(phases), environment, phases
    state = algo.init(space, cfg.T, acfg)
    trace = algo.run(state, environment)
    return trace, environment, [trace]


def _monitor_report(cfg: ExperimentConfig, monitor_traces: list) -> dict:
    if not cfg.record_pi:
        return {"skipped": "record_pi disabled", "violations": []}
    if cfg.algorithm == "exp3p_uniform":
        return {"skipped": "fixed-arm baseline has no zooming invariants",
                "violations": []}
    viol = []
    for tr in monitor_traces:
        viol.extend(evaluate.monitor(tr))
    return {
        "violations": [
            {"check": v.check, "t": v.t, "node_id": v.node_id,
             "detail": v.detail}
            for v in viol
        ]
    }


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run all seeds; emit per-seed artifacts, manifest, aggregate.

    Returns a summary dict with per-seed regrets and total violations.
    """
    grid_eps = _grid_eps_of(cfg, cfg.horizon)  # fail before any seed runs
    os.makedirs(out_dir, exist_ok=True)
    regrets = []
    total_violations = 0
    artifacts = []
    for seed in cfg.seeds:
        trace, environment, monitor_traces = run_one_seed(cfg, seed)
        T = trace.n_rounds
        trace_path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        trace.write_csv(trace_path)
        rep = evaluate.regret(trace, environment, grid_eps=grid_eps)
        reg_path = os.path.join(out_dir, f"regret_seed{seed}.json")
        with open(reg_path, "w") as f:
            json.dump(rep.to_dict(), f, indent=1, sort_keys=True)
        inv = _monitor_report(cfg, monitor_traces)
        inv_path = os.path.join(out_dir, f"invariants_seed{seed}.json")
        with open(inv_path, "w") as f:
            json.dump(inv, f, indent=1, sort_keys=True)
        artifacts += [trace_path, reg_path, inv_path]
        if cfg.emit_curves:
            curve_path = os.path.join(out_dir, f"curves_seed{seed}.csv")
            write_curves_csv(
                curve_path,
                np.arange(1, T + 1),
                rep.cum_alg,
                rep.cum_best,
                rep.regret_curve,
                trace.n_active_curve(),
            )
            artifacts.append(curve_path)
        regrets.append(rep.regret)
        total_violations += len(inv["violations"])

    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "seeds": list(cfg.seeds),
        "version": __version__,
        "artifacts": [os.path.basename(p) for p in artifacts],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    summary = {
        "regrets": regrets,
        "mean_regret": float(np.mean(regrets)),
        "std_regret": float(np.std(regrets)),
        "violations": total_violations,
    }
    if len(cfg.seeds) > 1:
        with open(os.path.join(out_dir, "aggregate.json"), "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return summary


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------


def sweep_horizons(cfg: ExperimentConfig, horizons: list, out_dir) -> dict:
    """Mean regret per horizon and the log-log slope with its stderr."""
    if len(horizons) < 3:
        raise ValueError("need at least 3 horizons for a slope fit")
    grid_eps = [_grid_eps_of(cfg, int(T)) for T in horizons]
    os.makedirs(out_dir, exist_ok=True)
    per_T = []
    for T, eps in zip(horizons, grid_eps):
        cfg_T = replace(cfg, T=int(T), rounds=None)
        regs = []
        for seed in cfg.seeds:
            trace, environment, _ = run_one_seed(cfg_T, seed)
            rep = evaluate.regret(trace, environment, grid_eps=eps)
            regs.append(rep.regret)
        per_T.append({"T": int(T), "mean_regret": float(np.mean(regs)),
                      "std_regret": float(np.std(regs))})
    slope, se, _ = evaluate.loglog_slope(
        [p["T"] for p in per_T],
        [max(p["mean_regret"], 1e-9) for p in per_T],
    )
    report = {
        "horizons": per_T,
        "slope": slope,
        "slope_stderr": se,
        "config_hash": cfg.hash(),
    }
    with open(os.path.join(out_dir, "sweep.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def audit_env(cfg: ExperimentConfig, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    environment = env_from_spec(cfg.env, cfg.horizon, cfg.seeds[0])
    rep = lipschitz_audit(environment, T=cfg.horizon, seed=cfg.seeds[0])
    out = {"mode": rep.mode, "n_pairs": rep.n_pairs, "n_rounds": rep.n_rounds,
           "flagged": rep.flagged, "ok": rep.ok}
    with open(os.path.join(out_dir, "audit.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    return out


def cover_fit(cfg: ExperimentConfig, out_dir,
              eps_ladder: Optional[list] = None) -> dict:
    """Dimension fit over the environment's near-optimal arm sets."""
    os.makedirs(out_dir, exist_ok=True)
    T = cfg.horizon
    environment = env_from_spec(cfg.env, T, cfg.seeds[0])
    d = cfg.dim
    n_dbl = 2**d
    grid = evaluate.grid_points(d, _grid_eps_of(cfg, T))
    ladder = eps_ladder or [2.0 ** -k for k in range(2, 8)]
    masks = evaluate.eps_optimal_set(environment, grid, ladder, d, n_dbl, T)
    counts = [evaluate.covering_count(grid[mask], eps)
              for eps, mask in zip(ladder, masks)]
    usable = [(e, c) for e, c in zip(ladder, counts) if c > 0]
    report = {"eps_ladder": list(ladder), "counts": counts}
    if len(usable) >= 3:
        fit = evaluate.dimension_fit([e for e, _ in usable],
                                     [c for _, c in usable])
        report.update(fit.to_dict())
    with open(os.path.join(out_dir, "cover.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _out_dir(args, cfg_path) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUT_ROOT_VAR, "out")
    stem = os.path.splitext(os.path.basename(cfg_path))[0]
    return os.path.join(root, stem)


_FLAG_KEYS = {
    # CLI flags mirroring top-level config keys (overrides after load)
    "algorithm": str,
    "T": int,
    "rounds": int,
    "seeds": lambda v: [int(s) for s in v.split(",")],
    "grid_eps": float,
    "record_pi": lambda v: v.lower() in ("1", "true", "yes"),
    "debug_invariants": lambda v: v.lower() in ("1", "true", "yes"),
    "repr_policy": str,
    "emit_curves": lambda v: v.lower() in ("1", "true", "yes"),
}


def _apply_flag_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    raw = cfg.to_dict()
    changed = False
    for key, parse in _FLAG_KEYS.items():
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = parse(val)
            changed = True
    if not changed:
        return cfg
    # a horizon flag switches the mode: --rounds drops T and vice versa
    if getattr(args, "rounds", None) is not None:
        raw["T"] = None
    elif getattr(args, "T", None) is not None:
        raw["rounds"] = None
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="advzoom",
        description="Adaptive-zooming bandit simulator and evaluation suite",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "audit", "cover"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        for key in _FLAG_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, help=f"override config.{key}")
        if verb == "sweep":
            p.add_argument("--horizons", required=True,
                           help="comma-separated T ladder, e.g. 1024,2048,4096")
        if verb == "cover":
            p.add_argument("--eps", default=None,
                           help="comma-separated epsilon ladder")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = _apply_flag_overrides(cfg, args)
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = _out_dir(args, args.config)

    if args.verb == "run":
        summary = run_experiment(cfg, out)
        print(json.dumps(summary, indent=1, sort_keys=True))
        if cfg.debug_invariants and summary["violations"] > 0:
            return 1
        return 0
    if args.verb == "sweep":
        horizons = [int(v) for v in args.horizons.split(",")]
        report = sweep_horizons(cfg, horizons, out)
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    if args.verb == "audit":
        report = audit_env(cfg, out)
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    report = cover_fit(
        cfg, out,
        eps_ladder=[float(v) for v in args.eps.split(",")] if args.eps else None,
    )
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
