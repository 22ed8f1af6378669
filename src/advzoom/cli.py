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
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import __version__, algo, baselines, evaluate
from .env import env_from_spec, lipschitz_audit
from .metric import REPR_POLICIES, FiniteMetricSpace
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
    debug_invariants: bool = False  # exit 1 if the monitor finds a violation
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
        if not (isinstance(cfg.space, dict) and isinstance(cfg.env, dict)):
            raise ValueError(f"config.space and config.env must be objects, "
                             f"got {cfg.space!r} and {cfg.env!r}")
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(f"config.algorithm must be one of {ALGORITHMS}")
        if (cfg.T is None) == (cfg.rounds is None):
            raise ValueError("config needs exactly one of T (fixed horizon) "
                             "or rounds (anytime)")
        space_kind = cfg.space.get("kind")
        if space_kind == "cube":
            d = cfg.space.get("d")
            if set(cfg.space) - {"kind", "d"} or type(d) is not int or d < 1:
                raise ValueError(f"bad space spec: {cfg.space}")
        elif space_kind == "finite":
            if (set(cfg.space) != {"kind", "path"}
                    or not isinstance(cfg.space["path"], str)):  # 0 is stdin
                raise ValueError(f"bad space spec: {cfg.space}")
            if cfg.repr_policy is not None:  # DAG balls play their centres
                raise ValueError("a finite space takes no repr_policy")
            cfg.arm_space  # read and checked here, kept for the run
        else:
            raise ValueError(f"space.kind must be cube or finite: {cfg.space}")
        if not isinstance(cfg.baseline, dict):
            raise ValueError(f"config.baseline must be an object, "
                             f"got {cfg.baseline!r}")
        extra = set(cfg.baseline) - {"grid_eps"}
        if extra:
            raise ValueError(f"unknown baseline keys: {sorted(extra)}")
        if not (type(cfg.seeds) is list and cfg.seeds
                and all(type(s) is int for s in cfg.seeds)):  # no bools
            raise ValueError(f"config.seeds must be a non-empty list of "
                             f"ints, got {cfg.seeds!r}")
        if not all(0 <= s < 2**64 for s in cfg.seeds):  # stream keys' range
            raise ValueError(f"config.seeds must lie in [0, 2**64), "
                             f"got {cfg.seeds!r}")
        if len(set(cfg.seeds)) < len(cfg.seeds):  # each seed's files once
            raise ValueError(f"config.seeds repeats a seed: {cfg.seeds!r}")
        for key in ("record_pi", "debug_invariants", "emit_curves"):
            if type(getattr(cfg, key)) is not bool:
                raise ValueError(f"config.{key} must be true or false, "
                                 f"got {getattr(cfg, key)!r}")
        if cfg.repr_policy not in (None, *REPR_POLICIES):
            raise ValueError(f"config.repr_policy must be one of "
                             f"{REPR_POLICIES}, got {cfg.repr_policy!r}")
        if cfg.debug_invariants and not cfg.record_pi:
            raise ValueError("debug_invariants needs record_pi: the monitor "
                             "checks the recorded snapshots")
        if cfg.algorithm == "exp3p_uniform" and (
                cfg.debug_invariants or cfg.rounds or space_kind == "finite"):
            raise ValueError("debug_invariants, rounds and a finite space "
                             "each needs adversarial_zooming: exp3p_uniform "
                             "is unmonitored, has no restarts, plays a grid")
        _horizon_grid_eps(cfg, cfg.horizon)
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
        return self.space["d"] if self.space["kind"] == "cube" else 1

    @functools.cached_property
    def arm_space(self):
        """The learner's space: the cube's d, or the finite space, read from
        its file and checked once per config (not a field: hashed nowhere)."""
        if self.space["kind"] == "cube":
            return self.space["d"]
        return FiniteMetricSpace.from_file(self.space["path"])

    def effective_repr_policy(self) -> str:
        if self.repr_policy is not None:
            return self.repr_policy
        return "low_endpoint" if self.env.get("kind") == "pricing" else "center"


def _horizon_grid_eps(cfg: ExperimentConfig, T: int) -> float:
    """The evaluation grid spacing of horizon T, once that grid and the
    EXP3.P grid fit T and the env builds at T with the space's d."""
    # the grid and horizon first: a combined env's schedule is T long
    grid_eps = evaluate.grid_eps_for(cfg.dim, T, cfg.grid_eps)
    baselines.grid_eps(cfg.dim, T, cfg.baseline.get("grid_eps"))
    env_d = env_from_spec(cfg.env, T, cfg.seeds[0]).d
    if env_d != cfg.dim:
        raise ValueError(f"env d={env_d} differs from the space's {cfg.dim}")
    return grid_eps


def _checked_ladder(xs: list, what: str, at_least: int = 1) -> list:
    """xs, if it has at least `at_least` rungs, each finite, > 0 and once."""
    if not all(0.0 < x < np.inf for x in xs):
        raise ValueError(f"every {what} must be finite and > 0: {xs}")
    if len(xs) < at_least:
        raise ValueError(f"need at least {at_least} {what}s for a fit")
    if len(set(xs)) < len(xs):  # a repeated rung adds no point to the fit
        raise ValueError(f"the {what} ladder repeats a rung: {xs}")
    return xs


def load_config(path, overrides=None) -> ExperimentConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    return ExperimentConfig.from_dict({**raw, **(overrides or {})})


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


# --------------------------------------------------------------------------
# Single runs
# --------------------------------------------------------------------------


def _merge_anytime(phases: list) -> Trace:
    """The phases' rounds under the first one's header and the total T, at
    global t and node ids; node tables and snapshots stay in the phases."""
    merged = replace(phases[0], T=sum(tr.n_rounds for tr in phases),
                     rounds=[], node_table={})
    t_base = id_base = 0
    for tr in phases:
        for rec in tr.rounds:
            merged.append(replace(
                rec, t=rec.t + t_base, node_id=rec.node_id + id_base,
                zoomed=tuple(z + id_base for z in rec.zoomed),
                active_ids=None, pi=None, g_hat=None))
        t_base += tr.n_rounds
        id_base += len(tr.node_table)
    return merged


def run_one_seed(cfg: ExperimentConfig, seed: int):
    """Run a single seed; returns (trace, env, phase_traces_for_monitor)."""
    environment = env_from_spec(cfg.env, cfg.horizon, seed)
    if cfg.algorithm == "exp3p_uniform":
        eps = baselines.grid_eps(cfg.dim, cfg.horizon,
                                 cfg.baseline.get("grid_eps"))
        arms = baselines.uniform_grid(cfg.dim, eps)
        trace = baselines.exp3p_run(arms, cfg.horizon, environment, seed=seed)
        return trace, environment, [trace]
    acfg = algo.AlgoConfig(
        seed=seed,
        repr_policy=cfg.effective_repr_policy(),
        record_state=cfg.record_pi,
    )
    if cfg.rounds is not None:
        phases = algo.run_anytime(cfg.arm_space, acfg, cfg.rounds, environment)
        return _merge_anytime(phases), environment, phases
    state = algo.init(cfg.arm_space, cfg.T, acfg)
    trace = algo.run(state, environment)
    return trace, environment, [trace]


def _monitor_report(cfg: ExperimentConfig, monitor_traces: list) -> dict:
    if not cfg.record_pi:
        return {"skipped": "record_pi disabled", "violations": []}
    if cfg.algorithm == "exp3p_uniform":
        return {"skipped": "fixed-arm baseline has no zooming invariants",
                "violations": []}
    return {"violations": [asdict(v) for tr in monitor_traces
                           for v in evaluate.monitor(tr)]}


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run all seeds; emit per-seed artifacts, manifest, aggregate.

    Returns a summary dict with per-seed regrets and total violations.
    """
    grid_eps = evaluate.grid_eps_for(cfg.dim, cfg.horizon, cfg.grid_eps)
    os.makedirs(out_dir, exist_ok=True)
    regrets = []
    total_violations = 0
    artifacts = []
    for seed in cfg.seeds:
        trace, environment, monitor_traces = run_one_seed(cfg, seed)
        trace_path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        trace.write_csv(trace_path)
        rep = evaluate.regret(trace, environment, grid_eps=grid_eps,
                              curves=cfg.emit_curves)
        reg_path = os.path.join(out_dir, f"regret_seed{seed}.json")
        _write_json(reg_path, rep.to_dict())
        inv = _monitor_report(cfg, monitor_traces)
        inv_path = os.path.join(out_dir, f"invariants_seed{seed}.json")
        _write_json(inv_path, inv)
        artifacts += [trace_path, reg_path, inv_path]
        if cfg.emit_curves:
            curve_path = os.path.join(out_dir, f"curves_seed{seed}.csv")
            write_curves_csv(curve_path, rep.cum_alg, rep.cum_best,
                             rep.regret_curve, trace.n_active_curve())
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
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    summary = {
        "regrets": regrets,
        "mean_regret": float(np.mean(regrets)),
        "std_regret": float(np.std(regrets)),
        "violations": total_violations,
    }
    if len(cfg.seeds) > 1:
        _write_json(os.path.join(out_dir, "aggregate.json"), summary)
    return summary


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------


def _sweep_grid_eps(cfg: ExperimentConfig, horizons: list) -> list:
    """Each horizon's evaluation grid spacing, for a ladder that a slope
    can be fitted to and whose every rung is a horizon of the config."""
    grid_eps = [_horizon_grid_eps(cfg, int(T)) for T in horizons]
    _checked_ladder(horizons, "horizon", at_least=3)
    return grid_eps


def sweep_horizons(cfg: ExperimentConfig, horizons: list, out_dir) -> dict:
    """Mean regret per horizon and the log-log slope with its stderr."""
    grid_eps = _sweep_grid_eps(cfg, horizons)
    os.makedirs(out_dir, exist_ok=True)
    per_T = []
    for T, eps in zip(horizons, grid_eps):
        # no invariant report here, so no snapshots for a monitor to read
        cfg_T = replace(cfg, T=int(T), rounds=None, record_pi=False)
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
    _write_json(os.path.join(out_dir, "sweep.json"), report)
    return report


def audit_env(cfg: ExperimentConfig, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    environment = env_from_spec(cfg.env, cfg.horizon, cfg.seeds[0])
    rep = lipschitz_audit(environment, cfg.horizon, seed=cfg.seeds[0])
    out = {**asdict(rep), "ok": rep.ok}
    _write_json(os.path.join(out_dir, "audit.json"), out)
    return out


def cover_fit(cfg: ExperimentConfig, out_dir,
              eps_ladder: Optional[list] = None) -> dict:
    """Dimension fit over the environment's near-optimal arm sets."""
    T, d = cfg.horizon, cfg.dim
    ladder = _checked_ladder(eps_ladder or [2.0 ** -k for k in range(2, 8)],
                             "cover eps")
    grid = evaluate.grid_points(d, evaluate.grid_eps_for(d, T, cfg.grid_eps))
    os.makedirs(out_dir, exist_ok=True)
    environment = env_from_spec(cfg.env, T, cfg.seeds[0])
    masks = evaluate.eps_optimal_set(environment, grid, ladder, T)
    counts = [evaluate.covering_count(grid[mask], eps)
              for eps, mask in zip(ladder, masks)]
    usable = [(e, c) for e, c in zip(ladder, counts) if c > 0]
    report = {"eps_ladder": list(ladder), "counts": counts}
    if len(usable) >= 3:
        fit = evaluate.dimension_fit([e for e, _ in usable],
                                     [c for _, c in usable])
        report.update(fit.to_dict())
    _write_json(os.path.join(out_dir, "cover.json"), report)
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


def _flag_bool(v: str) -> bool:
    if v.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"boolean flags take 1/0/true/false/yes/no, got {v!r}")
    return v.lower() in ("1", "true", "yes")


_FLAG_KEYS = {
    # CLI flags mirroring top-level config keys (laid over the raw file)
    "algorithm": str,
    "T": int,
    "rounds": int,
    "seeds": lambda v: [int(s) for s in v.split(",")],
    "grid_eps": float,
    "record_pi": _flag_bool,
    "debug_invariants": _flag_bool,
    "repr_policy": str,
    "emit_curves": _flag_bool,
}


_LADDER_FLAGS = ("--horizons", "--eps", "--seeds")


def _glued_ladders(argv: list) -> list:
    """argv with each ladder flag and a value starting with one "-" joined
    as --flag=value: argparse reads "-8,16,32" as an option, and the config
    checks should name the bad rung."""
    out = []
    for arg in argv:
        if (out and out[-1] in _LADDER_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


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
    args = parser.parse_args(_glued_ladders(
        sys.argv[1:] if argv is None else argv))

    try:
        overrides = {key: parse(getattr(args, key)) for key, parse in
                     _FLAG_KEYS.items() if getattr(args, key) is not None}
        # a horizon flag switches the mode: --rounds drops T and vice versa
        if args.rounds is not None:
            overrides["T"] = None
        elif args.T is not None:
            overrides["rounds"] = None
        cfg = load_config(args.config, overrides)
        if args.verb == "sweep":
            horizons = [int(v) for v in args.horizons.split(",")]
            _sweep_grid_eps(cfg, horizons)
        if args.verb == "cover" and args.eps:
            args.eps = _checked_ladder([float(v) for v in args.eps.split(",")],
                                       "cover eps")
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = _out_dir(args, args.config)

    if args.verb == "run":
        report = run_experiment(cfg, out)
    elif args.verb == "sweep":
        report = sweep_horizons(cfg, horizons, out)
    elif args.verb == "audit":
        report = audit_env(cfg, out)
    else:
        report = cover_fit(cfg, out, args.eps)
    print(json.dumps(report, indent=1, sort_keys=True))
    return int(args.verb == "run" and cfg.debug_invariants
               and report["violations"] > 0)
