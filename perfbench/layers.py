"""What the benchmark wraps in each advzoom layer, and the metrics it reports.

The untraced run wraps only calls made once per job: set-up boundaries, the
learner loops and the replay evaluations. Their cost is a few microseconds
per job. The traced run also wraps the per-round functions of every layer.
"""

from __future__ import annotations

import os
import statistics

from advzoom import algo, baselines, cli, env, evaluate, metric, rng, trace
from tracing import Patches, Tracer, package_modules, wrap_function, wrap_method

# set-up spans: summed into setup_s together with the import
SETUP_SPANS = ("cli.config", "env.build", "metric.space_check", "algo.init",
               "baselines.init")
LEARNER_SPANS = ("algo.run", "baselines.run")
REPLAY_SPANS = ("evaluate.regret", "evaluate.gaps")
CLI_SPANS = ("cli.sweep_horizons", "cli.run_experiment", "cli.cover_fit",
             "cli.run_one_seed")
ENV_CLASSES = (env.StochasticEnv, env.CombinedEnv, env.PricingEnv)

# (name, unit, better) of every metric of the traced run
PER_LAYER = [
    ("rng.scalar_calls", "count", "lower"),
    ("rng.scalar_us_per_call", "us", "lower"),
    ("rng.block_values", "count", "lower"),
    ("rng.block_ns_per_value", "ns", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("env.reward_calls", "count", "lower"),
    ("env.reward_self_us_per_call", "us", "lower"),
    ("env.block_values", "count", "lower"),
    ("env.block_self_ns_per_value", "ns", "lower"),
    ("env.build_s", "s", "lower"),
    ("algo.rounds", "count", "higher"),
    ("algo.step_us_per_round", "us", "lower"),
    ("algo.step_p50_us", "us", "lower"),
    ("algo.step_p99_us", "us", "lower"),
    ("algo.step_samples", "count", "higher"),
    ("algo.step_self_us_per_round", "us", "lower"),
    ("algo.schedule_us_per_round", "us", "lower"),
    ("algo.distribution_us_per_round", "us", "lower"),
    ("algo.select_self_us_per_round", "us", "lower"),
    ("algo.estimate_update_us_per_round", "us", "lower"),
    ("algo.zoom_check_calls", "count", "lower"),
    ("algo.zoom_check_us_per_round", "us", "lower"),
    ("algo.zoom_in_calls", "count", "lower"),
    ("algo.zoom_in_us_per_call", "us", "lower"),
    ("algo.zoom_events", "count", "lower"),
    ("algo.active_mean", "nodes", "lower"),
    ("algo.active_max", "nodes", "lower"),
    ("algo.init_s", "s", "lower"),
    ("baselines.rounds", "count", "higher"),
    ("baselines.step_us_per_round", "us", "lower"),
    ("trace.record_us_per_round", "us", "lower"),
    ("trace.snapshot_bytes", "bytes", "lower"),
    ("trace.csv_s", "s", "lower"),
    ("trace.csv_bytes", "bytes", "lower"),
    ("evaluate.regret_s", "s", "lower"),
    ("evaluate.replay_arm_rounds", "count", "higher"),
    ("evaluate.replay_ns_per_arm_round", "ns", "lower"),
    ("evaluate.gaps_s", "s", "lower"),
    ("evaluate.covering_s", "s", "lower"),
    ("evaluate.monitor_s", "s", "lower"),
    ("evaluate.monitor_node_rounds", "count", "higher"),
    ("evaluate.monitor_us_per_node_round", "us", "lower"),
    ("evaluate.violations", "count", "lower"),
    ("metric.space_check_s", "s", "lower"),
    ("metric.doubling_s", "s", "lower"),
    ("metric.doubling_value", "count", "lower"),
    ("metric.dag_build_s", "s", "lower"),
    ("metric.dag_nodes", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]


def instrument(tracer: Tracer, patches: Patches, fine: bool) -> None:
    """Swap advzoom's functions for timing wrappers; patches undoes it."""
    modules = package_modules()
    counts, maxima = tracer.counts, tracer.maxima

    def fn(f, name, **kw):
        wrap_function(patches, f, tracer.span(name, f, **kw), modules)

    def meth(cls, attr, name, **kw):
        wrap_method(patches, cls, attr, lambda f: tracer.span(name, f, **kw))

    def add_rounds(tr, args):
        counts["learner_rounds"] += tr.n_rounds

    def add_regret_replay(rep, args):
        counts["replay_arm_rounds"] += rep.n_grid * rep.T

    def add_gaps_replay(gaps, args):
        counts["replay_arm_rounds"] += len(gaps) * max(int(t) for t in args[2])

    fn(cli.load_config, "cli.config")
    fn(env.env_from_spec, "env.build")
    meth(metric.FiniteMetricSpace, "__init__", "metric.space_check")
    fn(algo.init, "algo.init")
    meth(baselines.Exp3PState, "__init__", "baselines.init")
    fn(algo.run, "algo.run", on_result=add_rounds)
    fn(baselines.exp3p_run, "baselines.run", on_result=add_rounds)
    fn(evaluate.regret, "evaluate.regret", on_result=add_regret_replay)
    fn(evaluate.gaps_at, "evaluate.gaps", on_result=add_gaps_replay)
    if not fine:
        return

    def rng_kind(u):
        return "rng.scalar" if u.size == 1 else "rng.block"

    def add_rng_values(u, args):
        if u.size != 1:
            counts["rng.block_values"] += u.size

    def add_env_values(block, args):
        counts["env.block_values"] += block.size

    def add_active(rec, args):
        counts["algo.active_sum"] += rec.n_active
        maxima["algo.active_max"] = max(maxima["algo.active_max"],
                                        rec.n_active)

    def add_zoom_events(zoomed, args):
        counts["algo.zoom_events"] += len(zoomed)

    def add_monitor(violations, args):
        with tracer.paused():
            counts["evaluate.monitor_node_rounds"] += sum(
                len(rec.active_ids) for rec in args[0].rounds)
            counts["evaluate.violations"] += len(violations)

    def add_csv_bytes(path):
        counts["trace.csv_bytes"] += os.path.getsize(path)

    def add_doubling(rep, args):
        maxima["metric.doubling_value"] = max(
            maxima["metric.doubling_value"], rep.value)

    def add_dag_nodes(dag, args):
        counts["metric.dag_nodes"] += len(dag.nodes)

    fn(rng.uniform, "rng", classify=rng_kind, on_result=add_rng_values)
    for cls in ENV_CLASSES:
        meth(cls, "reward", "env.reward")
        meth(cls, "reward_block", "env.block", on_result=add_env_values)
    fn(algo.step, "algo.step", sample=True, on_result=add_active)
    meth(algo.ParamSchedule, "advance", "algo.schedule")
    fn(algo.distribution, "algo.distribution")
    fn(algo.select, "algo.select")
    fn(algo.estimate, "algo.estimate_update")
    fn(algo.update, "algo.estimate_update")
    fn(algo.zoom_check, "algo.zoom_check")
    fn(algo.zoom_in, "algo.zoom_in", on_result=add_zoom_events)
    fn(baselines.exp3p_step, "baselines.step")
    # RoundRecord is a class: only the modules that construct records get
    # the wrapper, so isinstance checks elsewhere keep working
    record = tracer.span("trace.record", trace.RoundRecord)
    patches.set(algo, "RoundRecord", record)
    patches.set(baselines, "RoundRecord", record)
    meth(trace.Trace, "append", "trace.record")
    meth(trace.Trace, "write_csv", "trace.csv",
         on_result=lambda _, args: add_csv_bytes(args[1]))
    fn(trace.write_curves_csv, "trace.csv",
       on_result=lambda _, args: add_csv_bytes(args[0]))
    fn(evaluate.covering_count, "evaluate.covering")
    fn(evaluate.monitor, "evaluate.monitor", on_result=add_monitor)
    fn(metric.doubling_constant, "metric.doubling", on_result=add_doubling)
    fn(metric.build_zooming_dag, "metric.dag_build", on_result=add_dag_nodes)
    for name in CLI_SPANS:
        fn(getattr(cli, name.split(".")[1]), name)


def _per(x, n, scale=1.0):
    return x * scale / n if n else 0.0


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(tr: Tracer, import_s: float) -> dict:
    """Raw end-to-end quantities of one batch, untraced or traced."""
    return {
        "setup_s": import_s + sum(tr.total[k] for k in SETUP_SPANS),
        "learner_rounds": tr.counts["learner_rounds"],
        "learner_s": sum(tr.total[k] for k in LEARNER_SPANS),
        "replay_arm_rounds": tr.counts["replay_arm_rounds"],
        "replay_s": sum(tr.total[k] for k in REPLAY_SPANS),
    }


def per_layer(tr: Tracer, import_s: float, snapshot_bytes: int,
              artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced batch (not yet the run-level ones).

    A per-unit figure whose base is zero in this workload reads 0.
    """
    t, s, c, calls = tr.total, tr.self_time, tr.counts, tr.calls
    rounds = calls["algo.step"]
    b_rounds = calls["baselines.step"]
    us = 1e6
    ns = 1e9
    steps = tr.samples["algo.step"]
    return {
        "rng.scalar_calls": calls["rng.scalar"],
        "rng.scalar_us_per_call": _per(t["rng.scalar"], calls["rng.scalar"],
                                       us),
        "rng.block_values": c["rng.block_values"],
        "rng.block_ns_per_value": _per(t["rng.block"], c["rng.block_values"],
                                       ns),
        "rng.busy_s": t["rng.scalar"] + t["rng.block"],
        "env.reward_calls": calls["env.reward"],
        "env.reward_self_us_per_call": _per(s["env.reward"],
                                            calls["env.reward"], us),
        "env.block_values": c["env.block_values"],
        "env.block_self_ns_per_value": _per(s["env.block"],
                                            c["env.block_values"], ns),
        "env.build_s": t["env.build"],
        "algo.rounds": rounds,
        "algo.step_us_per_round": _per(t["algo.step"], rounds, us),
        "algo.step_p50_us": _percentile(steps, 0.50) * us,
        "algo.step_p99_us": _percentile(steps, 0.99) * us,
        "algo.step_samples": len(steps),
        "algo.step_self_us_per_round": _per(s["algo.step"], rounds, us),
        "algo.schedule_us_per_round": _per(t["algo.schedule"], rounds, us),
        "algo.distribution_us_per_round": _per(t["algo.distribution"],
                                               rounds, us),
        "algo.select_self_us_per_round": _per(s["algo.select"], rounds, us),
        "algo.estimate_update_us_per_round": _per(t["algo.estimate_update"],
                                                  rounds, us),
        "algo.zoom_check_calls": calls["algo.zoom_check"],
        "algo.zoom_check_us_per_round": _per(t["algo.zoom_check"], rounds,
                                             us),
        "algo.zoom_in_calls": calls["algo.zoom_in"],
        "algo.zoom_in_us_per_call": _per(t["algo.zoom_in"],
                                         calls["algo.zoom_in"], us),
        "algo.zoom_events": c["algo.zoom_events"],
        "algo.active_mean": _per(c["algo.active_sum"], rounds),
        "algo.active_max": tr.maxima["algo.active_max"],
        "algo.init_s": t["algo.init"],
        "baselines.rounds": b_rounds,
        "baselines.step_us_per_round": _per(t["baselines.step"], b_rounds,
                                            us),
        "trace.record_us_per_round": _per(t["trace.record"],
                                          rounds + b_rounds, us),
        "trace.snapshot_bytes": snapshot_bytes,
        "trace.csv_s": t["trace.csv"],
        "trace.csv_bytes": c["trace.csv_bytes"],
        "evaluate.regret_s": t["evaluate.regret"],
        "evaluate.replay_arm_rounds": c["replay_arm_rounds"],
        "evaluate.replay_ns_per_arm_round": _per(
            t["evaluate.regret"] + t["evaluate.gaps"],
            c["replay_arm_rounds"], ns),
        "evaluate.gaps_s": t["evaluate.gaps"],
        "evaluate.covering_s": t["evaluate.covering"],
        "evaluate.monitor_s": t["evaluate.monitor"],
        "evaluate.monitor_node_rounds": c["evaluate.monitor_node_rounds"],
        "evaluate.monitor_us_per_node_round": _per(
            t["evaluate.monitor"], c["evaluate.monitor_node_rounds"], us),
        "evaluate.violations": c["evaluate.violations"],
        "metric.space_check_s": t["metric.space_check"],
        "metric.doubling_s": t["metric.doubling"],
        "metric.doubling_value": tr.maxima["metric.doubling_value"],
        "metric.dag_build_s": t["metric.dag_build"],
        "metric.dag_nodes": c["metric.dag_nodes"],
        "cli.import_s": import_s,
        "cli.config_s": t["cli.config"],
        "cli.self_s": sum(s[k] for k in CLI_SPANS),
        "cli.artifact_bytes": artifact_bytes,
    }


def median(values):
    """Median that keeps integers integral (counts repeat exactly)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)
