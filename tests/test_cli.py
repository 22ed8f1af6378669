import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advzoom
from advzoom import cli, evaluate, metric
from advzoom.cli import ExperimentConfig, load_config
from advzoom.env import env_from_spec
from advzoom.metric import FiniteMetricSpace
from advzoom.trace import TRACE_COLUMNS


TENT_D2 = {"kind": "distance_to_target", "target": [0.3, 0.6]}


def base_config(**over):
    raw = {
        "algorithm": "adversarial_zooming",
        "space": {"kind": "cube", "d": 1},
        "env": {"kind": "distance_to_target"},
        "T": 16,
        "seeds": [0],
    }
    raw.update(over)
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# -- schema -------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(seeds=[1, 2], grid_eps=0.01))
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.hash() == cfg.hash()


def test_config_rejections():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(base_config(epochs=5))
    with pytest.raises(ValueError, match="missing config key"):
        ExperimentConfig.from_dict({"algorithm": "adversarial_zooming"})
    with pytest.raises(ValueError, match="algorithm"):
        ExperimentConfig.from_dict(base_config(algorithm="ucb"))
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig.from_dict(base_config(rounds=7))
    with pytest.raises(ValueError, match="exactly one"):
        cfg = base_config()
        del cfg["T"]
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match="bad space"):
        ExperimentConfig.from_dict(base_config(space={"kind": "cube", "d": 0}))
    with pytest.raises(ValueError, match="space.kind"):
        ExperimentConfig.from_dict(base_config(space={"kind": "torus"}))
    with pytest.raises(ValueError, match="baseline keys"):
        ExperimentConfig.from_dict(base_config(baseline={"K": 4}))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig.from_dict(base_config(seeds=[]))


def test_config_hash_changes_iff_fields_change():
    a = ExperimentConfig.from_dict(base_config())
    b = ExperimentConfig.from_dict(base_config())
    assert a.hash() == b.hash()
    for over in ({"T": 32}, {"seeds": [1]},
                 {"env": {"kind": "concave"}},
                 {"space": {"kind": "cube", "d": 2}, "env": TENT_D2},
                 {"record_pi": False}):
        c = ExperimentConfig.from_dict(base_config(**over))
        assert c.hash() != a.hash(), over


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"algorithm": }')
    with pytest.raises(ValueError, match="broken.json:1:"):
        load_config(path)


def test_pricing_defaults_to_low_endpoint_repr():
    cfg = ExperimentConfig.from_dict(base_config(
        env={"kind": "pricing", "values": {"kind": "uniform"}}
    ))
    assert cfg.effective_repr_policy() == "low_endpoint"
    assert ExperimentConfig.from_dict(base_config()).effective_repr_policy() \
        == "center"


# -- run ----------------------------------------------------------------------


def test_run_emits_three_files_per_seed(tmp_path):
    path = write_config(tmp_path, base_config(debug_invariants=True))
    out = tmp_path / "out"
    rc = cli.main(["run", path, "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["invariants_seed0.json", "manifest.json",
                     "regret_seed0.json", "trace_seed0.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == load_config(path).hash()
    assert sorted(manifest["artifacts"]) == [
        "invariants_seed0.json", "regret_seed0.json", "trace_seed0.csv"
    ]
    inv = json.loads((out / "invariants_seed0.json").read_text())
    assert inv["violations"] == []


@pytest.mark.parametrize("debug,rc", [(True, 1), (False, 0)])
def test_exit_status_is_one_iff_debug_and_the_monitor_flags(
        tmp_path, monkeypatch, debug, rc):
    flagged = [evaluate.Violation("pi_sum", 1, None, "sum=1.5")]
    monkeypatch.setattr(evaluate, "monitor", lambda trace: flagged)
    path = write_config(tmp_path, base_config(debug_invariants=debug))
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == rc


@pytest.mark.parametrize("over,flags,reason", [
    ({"record_pi": False}, [], "needs record_pi"),
    ({}, ["--record-pi", "0"], "needs record_pi"),
    ({"algorithm": "exp3p_uniform"}, [], "needs adversarial_zooming"),
])
def test_debug_config_without_a_monitor_is_rejected(
        tmp_path, capsys, over, flags, reason):
    path = write_config(tmp_path, base_config(debug_invariants=True, **over))
    out = tmp_path / "o"
    assert cli.main(["run", path, "--out", str(out), *flags]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_run_bit_identical_reruns(tmp_path):
    path = write_config(tmp_path, base_config(T=64))
    cli.main(["run", path, "--out", str(tmp_path / "a")])
    cli.main(["run", path, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trace_seed0.csv").read_bytes()
    b = (tmp_path / "b" / "trace_seed0.csv").read_bytes()
    assert a == b


def test_run_seed_sweep_aggregate(tmp_path):
    # 20-seed sweep on the tent instance aggregates mean/std regret
    n = 20
    path = write_config(tmp_path, base_config(T=64, seeds=list(range(n))))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    regrets = [
        json.loads((out / f"regret_seed{s}.json").read_text())["regret"]
        for s in range(n)
    ]
    assert agg["mean_regret"] == pytest.approx(np.mean(regrets))
    assert agg["std_regret"] == pytest.approx(np.std(regrets))


def test_run_emit_curves_schema(tmp_path):
    path = write_config(tmp_path, base_config(T=32, emit_curves=True))
    out = tmp_path / "out"
    cli.main(["run", path, "--out", str(out)])
    lines = (out / "curves_seed0.csv").read_text().splitlines()
    assert lines[0] == "t,cum_reward,cum_best,regret,n_active"
    assert len(lines) == 33
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "1"


def csv_writer_bytes(tmp_path, header, rows) -> bytes:
    """Reference serialisation: the standard library's csv.writer."""
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def trace_rows(trace):
    """Trace rows as the csv.writer serialisation took them."""
    return [[r.t, r.node_id,
             ";".join(repr(float(x)) if isinstance(x, (int, float))
                      else str(x) for x in r.arm),
             repr(float(r.reward)), repr(float(r.beta)),
             repr(float(r.beta_tilde)), repr(float(r.gamma)),
             repr(float(r.eta)), r.n_active,
             "|".join(str(n) for n in r.zoomed)] for r in trace.rounds]


@pytest.mark.parametrize("name, over", [
    ("d1", dict(T=300)),
    ("d2", dict(space={"kind": "cube", "d": 2}, env=TENT_D2, T=300)),
    ("exp3p", dict(algorithm="exp3p_uniform", T=300)),
    ("anytime", dict(T=None, rounds=300)),
])
def test_csv_writers_equal_csv_writer_bytes(tmp_path, name, over):
    raw = {k: v for k, v in base_config(**over).items() if v is not None}
    trace, environment, _ = cli.run_one_seed(ExperimentConfig.from_dict(raw),
                                             3)
    # a round that zooms several nodes at once, next to rounds with none
    trace.rounds[7] = replace(trace.rounds[7], zoomed=(4, 17, 123))
    assert any(not r.zoomed for r in trace.rounds)
    # arms equal as tuples but written apart, since 0.0 == -0.0
    zero = (0.0,) * len(trace.rounds[8].arm)
    trace.rounds[8] = replace(trace.rounds[8], arm=zero)
    trace.rounds[9] = replace(trace.rounds[9], arm=tuple(-x for x in zero))
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(
        tmp_path, TRACE_COLUMNS, trace_rows(trace))

    rep = evaluate.regret(trace, environment, grid_eps=0.125, curves=True)
    n_active = trace.n_active_curve()
    cli.write_curves_csv(tmp_path / "curves.csv", rep.cum_alg, rep.cum_best,
                         rep.regret_curve, n_active)
    rows = [[i + 1, repr(float(a)), repr(float(b)), repr(float(c)), int(k)]
            for i, (a, b, c, k) in enumerate(zip(
                rep.cum_alg, rep.cum_best, rep.regret_curve, n_active))]
    assert (tmp_path / "curves.csv").read_bytes() == csv_writer_bytes(
        tmp_path, ["t", "cum_reward", "cum_best", "regret", "n_active"], rows)


def test_run_anytime_mode(tmp_path):
    raw = base_config()
    del raw["T"]
    raw["rounds"] = 11
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    rows = (out / "trace_seed0.csv").read_text().splitlines()
    assert len(rows) == 12  # header + 11 globally renumbered rounds
    assert [r.split(",")[0] for r in rows[1:]] == [str(t) for t in range(1, 12)]


def test_run_finite_space(tmp_path):
    space_file = tmp_path / "space.txt"
    space_file.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    raw = base_config(space={"kind": "finite", "path": str(space_file)}, T=32)
    path = write_config(tmp_path, raw)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0


def test_finite_space_rejects_dimension_keys(tmp_path):
    space_file = tmp_path / "space.txt"
    space_file.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    space = {"kind": "finite", "path": str(space_file)}
    assert ExperimentConfig.from_dict(base_config(space=space)).dim == 1
    for extra in ({"d": 3}, {"n_dbl": 7}):
        path = write_config(tmp_path, base_config(space={**space, **extra}))
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2


def test_bad_config_exit_code(tmp_path):
    path = write_config(tmp_path, base_config(algorithm="mystery"))
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2


def test_flag_overrides_mirror_config_keys(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "o1"
    assert cli.main(["run", path, "--out", str(out),
                     "--T", "32", "--seeds", "4,5", "--emit-curves", "true",
                     "--grid-eps", "0.015625"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["T"] == 32
    assert manifest["config"]["seeds"] == [4, 5]
    assert (out / "curves_seed4.csv").exists()
    rows = (out / "trace_seed5.csv").read_text().splitlines()
    assert len(rows) == 33
    # --rounds flips a fixed-horizon config into anytime mode
    out2 = tmp_path / "o2"
    assert cli.main(["run", path, "--out", str(out2), "--rounds", "3"]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config"]["rounds"] == 3
    assert manifest2["config"]["T"] is None
    # overrides still go through schema validation
    assert cli.main(["run", path, "--out", str(tmp_path / "o3"),
                     "--algorithm", "mystery"]) == 2


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_VAR, str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_config())
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "root" / "cfg" / "manifest.json").exists()


# -- sweep / audit / cover ------------------------------------------------


def test_sweep_report(tmp_path):
    raw = base_config(algorithm="exp3p_uniform", seeds=[0, 1],
                      env={"kind": "custom_table",
                           "points": [[0, 0.7], [0.49, 0.7], [0.51, 0.3],
                                      [1, 0.3]]},
                      baseline={"grid_eps": 0.5})
    path = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", path, "--horizons", "128,256,512",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "sweep.json").read_text())
    assert [h["T"] for h in rep["horizons"]] == [128, 256, 512]
    assert 0.0 < rep["slope"] < 1.0
    with pytest.raises(ValueError, match="3 horizons"):
        cli.sweep_horizons(load_config(path), [128, 256], str(out))


def test_sweep_keeps_no_snapshots_and_reports_the_same(tmp_path, monkeypatch):
    # a sweep writes no invariant report, so no monitor reads snapshots
    traces = []
    run_one_seed = cli.run_one_seed

    def kept(cfg, seed):
        out = run_one_seed(cfg, seed)
        traces.append(out[0])
        return out

    monkeypatch.setattr(cli, "run_one_seed", kept)
    reports = {}
    for record_pi in (True, False):
        cfg = ExperimentConfig.from_dict(
            base_config(seeds=[0, 1], record_pi=record_pi))
        out = tmp_path / str(record_pi)
        cli.sweep_horizons(cfg, [32, 64, 128], str(out))
        reports[record_pi] = json.loads((out / "sweep.json").read_text())
        # the report names the config it was given, record_pi included
        assert reports[record_pi].pop("config_hash") == cfg.hash()
    assert len(traces) == 12
    assert all(r.pi is None and r.g_hat is None and r.active_ids is None
               for tr in traces for r in tr.rounds)
    assert reports[True] == reports[False]


@pytest.mark.parametrize("d, T", [(1, 6 * 10**6), (2, 3 * 10**6),
                                  (1, 2 * 10**7)])
def test_horizon_beyond_eval_guard_fails_fast(tmp_path, d, T):
    # even the eps = 1 grid has 2^d arms and 2^d * T > MAX_EVALS; the check
    # runs at load, before any seed, and before the short first rung of a
    # sweep
    raw = base_config(T=T, space={"kind": "cube", "d": d},
                      env=TENT_D2 if d == 2 else {"kind": "distance_to_target"})
    msg = f"T={T} .* d={d}: .*MAX_EVALS={evaluate.MAX_EVALS}"
    with pytest.raises(ValueError, match=msg):
        ExperimentConfig.from_dict(raw)
    cfg = replace(ExperimentConfig.from_dict(dict(raw, T=64)), T=T)
    with pytest.raises(ValueError, match=msg):
        cli.run_experiment(cfg, str(tmp_path / "run"))
    with pytest.raises(ValueError, match=msg):
        cli.sweep_horizons(cfg, [64, 128, T], str(tmp_path / "sweep"))
    assert not os.listdir(tmp_path)
    # the longest horizon that fits keeps the eps = 1 grid
    fits = evaluate.MAX_EVALS // 2**d
    assert evaluate.grid_eps_for(d, fits) == 1.0


@pytest.mark.parametrize("d, T, grid_eps", [
    (1, 4096, 1e-4), (1, 4096, 0), (1, 4096, -0.1), (2, 4096, 1 / 256),
])
def test_bad_grid_eps_fails_before_any_replay_or_file(
        tmp_path, monkeypatch, d, T, grid_eps):
    def never(*args):
        raise AssertionError("ran past the grid check")

    monkeypatch.setattr(cli, "run_one_seed", never)
    monkeypatch.setattr(evaluate, "_replay", never)
    raw = base_config(T=T, space={"kind": "cube", "d": d},
                      env=TENT_D2 if d == 2 else {"kind": "distance_to_target"})
    msg = f"grid_eps={grid_eps!r} at d={d}"
    with pytest.raises(ValueError, match=msg):
        ExperimentConfig.from_dict(dict(raw, grid_eps=grid_eps))
    cfg = replace(ExperimentConfig.from_dict(raw), grid_eps=grid_eps)
    with pytest.raises(ValueError, match=msg):
        cli.run_experiment(cfg, str(tmp_path / "run"))
    with pytest.raises(ValueError, match=msg):
        cli.sweep_horizons(cfg, [T // 4, T // 2, T], str(tmp_path / "sweep"))
    with pytest.raises(ValueError, match=msg):
        cli.cover_fit(cfg, str(tmp_path / "cover"))
    assert not os.listdir(tmp_path)


BUMP = {"kind": "baseline_bump", "peak": 0.55, "baseline": 0.2}
COMBINED = {"kind": "combined",
            "instances": [dict(BUMP, support=[0.1, 0.4]),
                          dict(BUMP, support=[0.6, 0.9])],
            "subsets": [[0.1, 0.4], [0.6, 0.9]], "baselines": [0.2, 0.2]}
EXP3P = {"algorithm": "exp3p_uniform"}
FINITE_3 = {"kind": "finite", "path": "space3.txt"}
PRICING_A_GT_B = {"kind": "pricing", "values": {"kind": "uniform", "a": 0.9,
                                                "b": 0.2}}


def pricing_target(**values):
    return {"kind": "pricing",
            "values": {"kind": "target", "a": 0.25, "b": 0.5, **values}}


@pytest.mark.parametrize("verb, over, flags, reason", [
    ("run", {"env": {"kind": "concave", "noise": "bernouli"}}, [],
     "unknown noise"),
    ("run", {"T": 6 * 10**6}, [], "too long to evaluate"),
    ("run", {"T": 4096, "grid_eps": 1e-4}, [], "grid_eps=0.0001"),
    ("run", {"grid_eps": 0}, [], "grid_eps=0 "),
    ("run", {"grid_eps": -0.1}, [], "grid_eps=-0.1"),
    ("run", {}, ["--grid-eps", "0"], "grid_eps=0.0"),
    ("run", {"env": PRICING_A_GT_B}, [], "non-monotone"),
    ("run", {"env": {"kind": "pricing", "values": {"kind": "beta"}}}, [],
     "unknown value distribution"),
    ("run", {"space": {"kind": "cube", "d": 2}}, [], "env d=1"),
    ("audit", {"env": PRICING_A_GT_B}, [], "non-monotone"),
    ("cover", {"space": {"kind": "cube", "d": 2}, "env": TENT_D2, "T": 4096,
               "grid_eps": 1 / 256}, [], "grid_eps=0.00390625"),
    ("sweep", {}, ["--horizons", "64,128,6000000"], "T=6000000 is too long"),
    ("sweep", {"grid_eps": 1e-4}, ["--horizons", "64,128,1024"],
     "T=1024"),
    ("sweep", {}, ["--horizons", "64,x,256"], "invalid literal"),
    ("run", {"T": 0}, [], "horizon must be an int >= 1, got 0"),
    ("run", {"T": None, "rounds": 0}, [], "horizon must be an int >= 1"),
    ("run", {"T": "64"}, [], "got '64'"),
    ("sweep", {}, ["--horizons", "0,64,128"], "int >= 1, got 0"),
    ("run", {"space": {"kind": "finite", "path": "missing.txt"}}, [],
     "No such file"),
    ("run", {"space": {"kind": "finite", "path": "bad.txt"}}, [],
     "expected 9 distances"),
    ("run", {"repr_policy": "middle"}, [], "repr_policy must be one of"),
    ("run", {}, ["--repr-policy", "middle"], "got 'middle'"),
    ("run", dict(EXP3P, baseline={"grid_eps": 0}), [],
     "grid eps must be in (0, 1], got 0"),
    ("run", dict(EXP3P, T=None, rounds=64), [],
     "rounds and a finite space each needs adversarial_zooming"),
    ("run", dict(EXP3P, space=FINITE_3), [],
     "rounds and a finite space each needs adversarial_zooming"),
    ("cover", {}, ["--eps", "a"], "could not convert"),
    ("cover", {}, ["--eps", "0"], "finite and > 0: [0.0]"),
    ("cover", {}, ["--eps", "-0.5"], "finite and > 0: [-0.5]"),
    ("cover", {}, ["--eps", "0.5,nan"], "finite and > 0: [0.5, nan]"),
    ("run", {"env": dict(COMBINED, schedule={"phasez": [[0, 8], [1, 8]]})},
     [], "unknown keys ['phasez'] in env.schedule"),
    ("run", {"env": dict(COMBINED, schedule={"phases": [[0, 16]],
                                             "per_round": [0] * 16})},
     [], "phases or per_round, not both"),
    ("run", None, [], "the config must be a JSON object"),
    ("run", {"T": True}, [], "horizon must be an int >= 1, got True"),
    ("run", {"T": None, "rounds": True}, [], "an int >= 1, got True"),
    ("run", {"seeds": 5}, [], "config.seeds must be a non-empty list of ints"),
    ("run", {"seeds": ["a"]}, [], "list of ints, got ['a']"),
    ("run", {"seeds": [True]}, [], "list of ints, got [True]"),
    ("run", {"seeds": []}, [], "list of ints, got []"),
    ("run", {"space": 5}, [], "config.space and config.env must be objects"),
    ("run", {"env": ["pricing"]}, [], "got {'kind': 'cube', 'd': 1} and ["),
    ("sweep", {}, ["--horizons", "64,128"], "need at least 3 horizons"),
    ("run", {"baseline": 5}, [], "config.baseline must be an object, got 5"),
    ("run", {"env": {"kind": "concave", "peak": "1"}}, [],
     "env.peak must be a number, got '1'"),
    ("run", {"grid_eps": "0.1"}, [], "grid_eps must be a number, got '0.1'"),
    ("run", {"env": {k: v for k, v in COMBINED.items() if k != "instances"}},
     [], "a combined env needs env.instances, a list, got None"),
    ("run", {"env": dict(COMBINED, instances=[dict(BUMP, baseline=[0.2]),
                                              BUMP])},
     [], "env.instances[0].baseline must be a number, got [0.2]"),
    ("run", {"env": {"kind": "concave", "noise": "gauss",
                     "noise_scale": "0.1"}}, [],
     "env.noise_scale must be a number, got '0.1'"),
    ("run", dict(EXP3P, baseline={"grid_eps": "0.5"}), [],
     "grid eps must be in (0, 1], got '0.5'"),
    ("run", {"env": {"kind": "concave", "support": [0.2]}}, [],
     "support must be two numbers lo < hi, got [0.2]"),
    ("run", {"env": {"kind": "concave", "support": "ab"}}, [],
     "support must be two numbers lo < hi, got 'ab'"),
    ("run", {"env": {"kind": "distance_to_target", "target": "0.5"}}, [],
     "env.target must be a number or a list of numbers, got '0.5'"),
    ("run", {"env": {"kind": "pricing", "values": {"a": "0.1"}}}, [],
     "env.values.a must be a number, got '0.1'"),
    ("run", {"space": {"kind": "cube", "d": "1"}}, [], "bad space spec"),
    ("run", {"space": {"kind": "cube", "d": 1.5}}, [], "bad space spec"),
    ("run", {"record_pi": "no"}, [],
     "config.record_pi must be true or false, got 'no'"),
    ("run", {"seeds": [2**70]}, [],
     f"seeds must lie in [0, 2**64), got [{2**70}]"),
    ("run", {"seeds": [-1]}, [], "seeds must lie in [0, 2**64), got [-1]"),
    ("run", {"env": {"kind": "pricing", "values": [1]}}, [],
     "env.values must be an object, got [1]"),
    ("run", {"env": pricing_target(support="ab")}, [],
     "env.values.support must be two numbers lo < hi, got 'ab'"),
    ("run", {"env": pricing_target(support=5)}, [],
     "env.values.support must be two numbers lo < hi, got 5"),
    ("run", {"env": dict(COMBINED, schedule=[[0, 8], [1, 8]])}, [],
     "env.schedule must be an object, got [[0, 8], [1, 8]]"),
    ("run", {"env": dict(COMBINED, instances=[5, 6])}, [],
     "env.instances[0] must be an object, got 5"),
    ("run", {"env": {"kind": "custom_table",
                     "points": [["0", "0.3"], ["1", "0.7"]]}}, [],
     "env.points must be a list of [x, mu] number pairs, got [['0', '0.3']"),
    ("run", {"env": dict(COMBINED, baselines=["0.2", "0.2"])}, [],
     "env.baselines[0] must be a number, got '0.2'"),
    ("run", {"env": dict(COMBINED, subsets=[["0.1", "0.4"], ["0.6", "0.9"]])},
     [], "env.subsets[0] must be two numbers lo < hi, got ['0.1', '0.4']"),
    ("run", {"env": dict(COMBINED, schedule={"phases": [["0", 8], ["1", 8]]})},
     [], "env.schedule.phases must be a list of [instance, length] int pairs"),
    ("run", {"env": dict(COMBINED,
                         schedule={"phases": [[False, 8], [True, 8]]})},
     [], "env.schedule.phases must be a list of [instance, length] int pairs"),
    ("run", {"env": dict(COMBINED, schedule={"phases": [[0, 8.9], [1, 8.1]]})},
     [], "env.schedule.phases must be a list of [instance, length] int pairs"),
    ("run", {"env": dict(COMBINED,
                         schedule={"per_round": ["0"] * 8 + ["1"] * 8})},
     [], "env.schedule.per_round must be a list of ints, got ['0', "),
    ("run", {"env": dict(COMBINED,
                         schedule={"per_round": [False] * 8 + [True] * 8})},
     [], "env.schedule.per_round must be a list of ints, got [False, "),
    ("run", {"env": dict(COMBINED,
                         schedule={"per_round": [0.7] * 8 + [1.2] * 8})},
     [], "env.schedule.per_round must be a list of ints, got [0.7, "),
    ("run", {"space": {"kind": "finite", "path": 0}}, [],
     "bad space spec: {'kind': 'finite', 'path': 0}"),
    ("run", {"env": {"kind": "custom_table", "path": 0}}, [],
     "env.path must be a string, got 0"),
    ("run", {"env": {"kind": "custom_table", "path": None}}, [],
     "env.path must be a string, got None"),
    ("run", {"env": {"kind": "custom_table"}}, [],
     "env takes points or path, one of the two"),
    ("run", {"env": {"kind": "custom_table", "path": "bad.txt"}}, [],
     "bad.txt: line 1 must be x,mu (two numbers), got '3'"),
    ("run", {"env": pricing_target(support=[0.7, 0.6])}, [],
     "env.values.support must be two numbers lo < hi, got [0.7, 0.6]"),
    ("run", {"env": {"kind": "pricing", "values": {"support": [0.1, 0.9]}}},
     [], "unknown keys ['support'] in env.values"),
    ("run", {"env": dict(COMBINED, schedule=None)}, [],
     "env.schedule must be an object, got None"),
    ("run", {"env": dict(COMBINED, schedule={"phases": [[0, 10**13],
                                                        [1, 16 - 10**13]]})},
     [], "schedule total on [T] fails: phase lengths [10000000000000, "),
    ("run", {"env": dict(COMBINED, baselines=[math.nan, 0.2])}, [],
     "env.baselines[0] must be a number, got nan"),
    ("run", {"env": {"kind": "distance_to_target", "target": math.nan}}, [],
     "env.target must be a number or a list of numbers, got nan"),
    ("run", {"env": {"kind": "pricing", "values": {"a": 10**400}}}, [],
     "env.values.a must be a number, got 1000"),
    ("run", dict(EXP3P, baseline={"grid_eps": 1e-300}), [],
     "baseline.grid_eps=1e-300 at d=1, T=16: its arms x T rounds exceed"),
    ("run", {"env": {"kind": "custom_table", "path": "space3.txt",
                     "points": [[0, 0.3], [1, 0.7]]}}, [],
     "env takes points or path, one of the two"),
    ("run", dict(EXP3P, T=1, baseline={"grid_eps": 1e-7}), [],
     "baseline.grid_eps=1e-07 at d=1, T=1: its 10000000 arms exceed T"),
    ("run", dict(EXP3P, baseline={"grid_eps": 0.001}), [],
     "baseline.grid_eps=0.001 at d=1, T=16: its 1000 arms exceed T"),
    ("sweep", dict(EXP3P, T=64, baseline={"grid_eps": 0.015625}),
     ["--horizons", "16,32,64"],
     "baseline.grid_eps=0.015625 at d=1, T=16: its 64 arms exceed T"),
    ("run", {"env": pricing_target(support=[0.3, 0.7])}, [],
     "env.values.support must be [b, hi] with b=0.5, got [0.3, 0.7]"),
    ("run", {"env": pricing_target(support=[0.0, 0.7])}, [],
     "env.values.support must be [b, hi] with b=0.5, got [0.0, 0.7]"),
    ("sweep", {"env": dict(COMBINED, schedule={"phases": [[0, 8], [1, 8]]})},
     ["--horizons", "8,16,32"],
     "schedule total on [T] fails: phase lengths [8, 8] for T=8"),
    ("run", None, ["--record-pi", "maybe"],
     "boolean flags take 1/0/true/false/yes/no, got 'maybe'"),
    ("run", None, ["--emit-curves", "2"],
     "boolean flags take 1/0/true/false/yes/no, got '2'"),
    ("run", None, ["--debug-invariants", ""],
     "boolean flags take 1/0/true/false/yes/no, got ''"),
    ("sweep", {}, ["--horizons", "64,64,64"],
     "the horizon ladder repeats a rung: [64, 64, 64]"),
    ("cover", {}, ["--eps", "0.5,0.5,0.5"],
     "the cover eps ladder repeats a rung: [0.5, 0.5, 0.5]"),
    ("run", {}, ["--seeds", "0,0"], "config.seeds repeats a seed: [0, 0]"),
    ("run", {"env": {"kind": "concave", "target": "abc"}}, [],
     "unknown keys ['target'] in env"),
    ("run", {"env": dict(COMBINED, instances=[
        dict(BUMP, support=[0.1, 0.4], target=0.25),
        dict(BUMP, support=[0.6, 0.9])])}, [],
     "unknown keys ['target'] in env.instances[0]"),
    ("run", {"space": FINITE_3, "repr_policy": "center"}, [],
     "a finite space takes no repr_policy"),
    ("sweep", {}, ["--horizons", "-8,16,32"],
     "the horizon must be an int >= 1, got -8"),
    ("cover", {}, ["--eps", "-0.5,0.25,0.125"],
     "every cover eps must be finite and > 0: [-0.5, 0.25, 0.125]"),
    ("run", {}, ["--seeds", "-1,2"],
     "config.seeds must lie in [0, 2**64), got [-1, 2]"),
    ("run", {"space": {"kind": "finite", "path": "zz.txt"}}, [],
     "zz.txt: distance 6 (row 2, column 3) must be a finite number, got 'zz'"),
    ("run", {"space": {"kind": "finite", "path": "nan.txt"}}, [],
     "nan.txt: distance 6 (row 2, column 3) must be a finite number, "
     "got 'nan'"),
    ("run", {"space": {"kind": "finite", "path": "inf.txt"}}, [],
     "inf.txt: distance 6 (row 2, column 3) must be a finite number, "
     "got 'inf'"),
    ("run", {"env": {"kind": "custom_table", "path": "three.csv"}}, [],
     "three.csv: line 2 must be x,mu (two numbers), got '1,0.7,0.2'"),
    ("run", {"env": {"kind": "custom_table", "path": "x.csv"}}, [],
     "x.csv: line 2 must be x,mu (two numbers), got 'x,0.7'"),
    ("run", {"space": {"kind": "cube", "d": 2}, "env": dict(
        COMBINED, instances=[TENT_D2, dict(TENT_D2, target=[0.7, 0.2])])},
     [], "instance 0 has d=2, not 1"),
])
def test_bad_config_exits_2_with_nothing_written(
        tmp_path, monkeypatch, capsys, verb, over, flags, reason):
    # finite-space paths are relative to the run's working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "space3.txt").write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    (tmp_path / "bad.txt").write_text("3\n0 1 1\n1 0 1\n")
    for token in ("zz", "nan", "inf"):
        (tmp_path / f"{token}.txt").write_text(
            f"3\n0 1 1\n1 0 {token}\n1 {token} 0\n")
    (tmp_path / "three.csv").write_text("0,0.3\n1,0.7,0.2\n")
    (tmp_path / "x.csv").write_text("0,0.3\nx,0.7\n")
    raw = [base_config()] if over is None else base_config(**over)
    path = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli.main([verb, path, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err
    assert not out.exists()


# valid configs that the property below mutates, a key or value at a time
MUTATION_BASES = [
    base_config(),
    base_config(space={"kind": "cube", "d": 2}, env=TENT_D2),
    base_config(env=dict(COMBINED, schedule={"phases": [[0, 8], [1, 8]]})),
    base_config(env={"kind": "pricing",
                     "values": {"kind": "uniform", "a": 0.1, "b": 0.9}}),
    base_config(env={"kind": "pricing", "values": {
        "kind": "target", "a": 0.25, "b": 0.5, "support": [0.5, 0.7]}}),
    base_config(env={"kind": "custom_table", "points": [[0, 0.3], [1, 0.7]]}),
    base_config(baseline={"grid_eps": 0.25}, **EXP3P),
    base_config(space=FINITE_3),
    {k: v for k, v in base_config(rounds=11).items() if k != "T"},
]
MUTATION_KEYS = sorted({f.name for f in fields(ExperimentConfig)}
                       | {"kind", "d", "path", "target", "peak", "baseline",
                          "support", "noise", "noise_scale", "points",
                          "instances", "subsets", "baselines", "schedule",
                          "phases", "per_round", "values", "a", "b", "zz"})
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(),
    st.text(alphabet="ab01.", max_size=3),
    st.sampled_from(["space3.txt", "cube", "finite", "pricing", "uniform",
                     "target", "combined", "gauss", "none", "center"]))
JSON_VALUES = st.one_of(
    JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(MUTATION_KEYS), JSON_SCALARS, max_size=2))


def json_paths(node, path=()):
    """The path of every node below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def json_at(node, path):
    for key in path:
        node = node[key]
    return node


def mutate(raw, data) -> None:
    """One mutation: a node becomes another JSON value, or a key is deleted
    from an object, or a key is added to one."""
    # deepest first: a failing draw shrinks towards the front of the list
    paths = sorted(json_paths(raw), key=len, reverse=True)
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add":
        objects = [p for p in paths if isinstance(json_at(raw, p), dict)] + [()]
        node = json_at(raw, data.draw(st.sampled_from(objects)))
        node[data.draw(st.sampled_from(MUTATION_KEYS))] = data.draw(JSON_VALUES)
    else:
        if op == "delete":
            paths = [p for p in paths if isinstance(json_at(raw, p[:-1]), dict)]
        path = data.draw(st.sampled_from(paths))
        if op == "delete":
            del json_at(raw, path[:-1])[path[-1]]
        else:
            json_at(raw, path[:-1])[path[-1]] = data.draw(JSON_VALUES)


# each verb's own arguments, and flag values of the wrong type or out of
# range (none starts with "-" and a letter, which argparse reads as a flag)
VERB_ARGS = {"run": [], "sweep": ["--horizons", "8,16,32"], "audit": [],
             "cover": ["--eps", "0.5,0.25,0.125"]}
BAD_FLAG_VALUES = ["", "x", "-1", "0", "1.5", "1e-300", "nan", "inf", "1,x",
                   "4,", "18446744073709551616", "99999999", "middle"]


@pytest.mark.parametrize("verb, base", [  # the run ids stay [0]..[8]
    pytest.param(verb, base, id=f"{verb}-{base}".removeprefix("run-"))
    for verb in VERB_ARGS for base in range(len(MUTATION_BASES))])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_config_runs_or_exits_2_with_nothing_written(
        verb, base, data):
    # one or two mutations, and sometimes one flag with a bad value
    raw = copy.deepcopy(MUTATION_BASES[base])
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(raw, data)
    argv = [verb, "cfg.json", "--out", "o", *VERB_ARGS[verb]]
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(cli._FLAG_KEYS)))
        argv += [f"--{key.replace('_', '-')}",
                 data.draw(st.sampled_from(BAD_FLAG_VALUES))]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # finite-space and table paths are relative to it
        try:
            Path("space3.txt").write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
            Path("cfg.json").write_text(json.dumps(raw))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            assert rc in (0, 2), (argv, raw)
            if rc == 2:
                assert err.getvalue().startswith("config error:"), (argv, raw)
                assert not os.path.exists("o"), (argv, raw)
        finally:
            os.chdir(cwd)


# each ladder flag's rungs that run, and rungs that repeat, are not > 0, are
# too small or too large for their use, are not finite or are not numbers
LADDER_FLAGS = {"sweep": ("--horizons", ["8", "16", "32"]),
                "cover": ("--eps", ["0.5", "0.25", "0.125"]),
                "run": ("--seeds", ["0", "1", "2"])}
BAD_RUNGS = ["0", "-1", "-0.5", "5e-324", "1e-200", "1e308", "nan", "inf",
             "x", "", "18446744073709551616"]


@pytest.mark.parametrize("verb", sorted(LADDER_FLAGS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_ladder_flag_runs_or_exits_2_with_nothing_written(verb, data):
    flag, rungs = LADDER_FLAGS[verb]
    tokens = data.draw(st.lists(st.sampled_from(rungs + BAD_RUNGS),
                                min_size=1, max_size=4))
    # "--flag=value": argparse would read a value like "-1,2" as a flag
    argv = [verb, "cfg.json", "--out", "o", f"{flag}={','.join(tokens)}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("cfg.json").write_text(json.dumps(base_config()))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            assert rc in (0, 2), argv
            if rc == 2:
                assert err.getvalue().startswith("config error:"), argv
                assert not os.path.exists("o"), argv
            elif verb == "run":  # each seed's files are written once
                names = json.loads(Path("o/manifest.json").read_text())[
                    "artifacts"]
                assert len(set(names)) == len(names), argv
        finally:
            os.chdir(cwd)


def test_cover_counts_nothing_at_an_eps_whose_square_overflows(tmp_path):
    path = write_config(tmp_path, base_config(T=64, grid_eps=1 / 64))
    reps = []
    for eps in ("1e-200,0.5,0.25", "0.5,0.25"):
        out = tmp_path / eps
        assert cli.main(["cover", path, "--out", str(out), "--eps", eps]) == 0
        reps.append(json.loads((out / "cover.json").read_text()))
    assert reps[0]["counts"] == [0] + reps[1]["counts"]


def test_cover_fit_refuses_a_bad_rung_before_its_directory(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    for ladder in ([0.5, 0.0], [-0.5], [math.inf]):
        with pytest.raises(ValueError, match="finite and > 0"):
            cli.cover_fit(cfg, str(tmp_path / "cover"), eps_ladder=ladder)
    assert not os.listdir(tmp_path)


def test_flags_overlay_the_file_before_its_one_validation(
        tmp_path, monkeypatch):
    calls = []
    from_dict = ExperimentConfig.from_dict

    def counted(cls, raw):
        calls.append(raw)
        return from_dict(raw)

    monkeypatch.setattr(ExperimentConfig, "from_dict", classmethod(counted))
    # T = 0 alone is a config error; the flag makes the run valid
    path = write_config(tmp_path, base_config(T=0))
    out = tmp_path / "o"
    assert cli.main(["run", path, "--out", str(out), "--T", "64"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["T"] == 64 and manifest["config"]["rounds"] is None
    assert len(calls) == 1 and calls[0]["T"] == 64
    assert cli.main(["run", path, "--out", str(tmp_path / "o2")]) == 2
    assert len(calls) == 2


def test_load_config_without_overrides_is_unchanged(tmp_path):
    raw = base_config(seeds=[1, 2], grid_eps=1 / 64, emit_curves=True)
    cfg = load_config(write_config(tmp_path, raw))
    assert cfg == ExperimentConfig.from_dict(raw)
    assert cfg == load_config(write_config(tmp_path, raw), {})
    assert cfg.hash() == ("93c54e2d6cdc44a918a4260883e23bac3d8ef08225d3de097a"
                          "4a244842f2860c")


def tree_sha256(out) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


# SHA-256 of each run's whole output tree: the CLI's outputs must not move
RUN_TREE_SHA256 = {
    "d1": "bed02b87326f7873889565a52331b6f4ac2964be72764b524c83a9efddbda9ce",
    "d2": "848c5ebec18a18a3c68f6f40a27087861b2e53ea306d42e429926ef40dd2b4bb",
    "anytime":
        "342b3f4e5add7f40184f1c93f7f2b46abe4e4d7a800597d031feb8293f82d0f1",
    "pricing_debug":
        "6d927fb8abdc4433b57d5574f6b3451c986057425c9646b8c4934b517dbb964f",
    "exp3p":
        "adb1baf7e928ee43d53cf3bafd82221b919aebc9c637963b0a4e66cacc735c69",
    "no_snapshots":
        "be242935ecc3367c909ff28082a874350d55f69f8467fbc1c000e013334381e0",
    "flagged":
        "5df186cf4b4933a57278a6ffdc51609f2ae0b91b36b4ac809ca678333f8627a0",
    "finite":
        "c55a896a115ab9c38b1dd6747990a3302c27929d8076d82b31ea3b3c569656e2",
    "pricing_target":
        "23d8d7ca40d8957065332674685347068adca62a5f3202a6a500045a73fd5780",
    "anytime_pricing":
        "edd69f5b45ba9539e85173cf132f3ae371174075b33513ff913b8462ccb59fe0",
}
# a six-point line at spacing 1/5, and a space spec reading it relative to
# the run's working directory, so the manifest names no temporary path
LINE_6 = "6\n" + "".join(" ".join(repr(abs(i - j) / 5) for j in range(6))
                         + "\n" for i in range(6))
FINITE_6 = {"kind": "finite", "path": "line6.txt"}


@pytest.mark.parametrize("name, over, flags", [
    ("d1", {"T": 512, "seeds": [0, 1]}, []),
    ("d2", {"space": {"kind": "cube", "d": 2}, "env": TENT_D2, "T": 1024,
            "emit_curves": True}, []),
    ("anytime", {"T": None, "rounds": 300}, []),
    ("pricing_debug", {"env": {"kind": "pricing",
                               "values": {"kind": "uniform"}},
                       "T": 256, "seeds": [3], "debug_invariants": True}, []),
    ("exp3p", dict(EXP3P, T=256, baseline={"grid_eps": 0.25}), []),
    ("no_snapshots", {"T": 512, "seeds": [2], "record_pi": False}, []),
    ("flagged", {"T": 64}, ["--T", "200", "--seeds", "4,5", "--emit-curves",
                            "1", "--repr-policy", "seeded_uniform",
                            "--grid-eps", "0.0078125"]),
    ("finite", {"space": FINITE_6, "T": 256, "seeds": [0, 1, 2]}, []),
    # pricing runs that cross the 256-round blocks of the value draws
    ("pricing_target", {"env": pricing_target(), "T": 1000, "seeds": [0, 1]},
     []),
    ("anytime_pricing", {"env": {"kind": "pricing",
                                 "values": {"kind": "uniform"}},
                         "T": None, "rounds": 600}, []),
])
def test_run_output_trees_are_pinned(tmp_path, monkeypatch, name, over, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "line6.txt").write_text(LINE_6)
    raw = {k: v for k, v in base_config(**over).items() if v is not None}
    out = tmp_path / "o"
    assert cli.main(["run", write_config(tmp_path, raw), "--out", str(out),
                     *flags]) == 0
    assert tree_sha256(out) == RUN_TREE_SHA256[name]


def test_a_finite_space_run_reads_and_measures_its_space_once(
        tmp_path, monkeypatch):
    calls = []
    from_file = FiniteMetricSpace.from_file.__func__
    doubling_constant = metric.doubling_constant

    def counted_file(cls, path):
        calls.append("from_file")
        return from_file(cls, path)

    def counted_doubling(space):
        calls.append("doubling_constant")
        return doubling_constant(space)

    monkeypatch.setattr(FiniteMetricSpace, "from_file",
                        classmethod(counted_file))
    monkeypatch.setattr(metric, "doubling_constant", counted_doubling)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "line6.txt").write_text(LINE_6)
    raw = base_config(space=FINITE_6, T=64, seeds=[0, 1, 2])
    assert cli.main(["run", write_config(tmp_path, raw), "--out", "o"]) == 0
    assert sorted(calls) == ["doubling_constant", "from_file"]


def test_anytime_merge_leaves_node_tables_and_snapshots_to_the_phases():
    cfg = ExperimentConfig.from_dict(base_config(T=None, rounds=300))
    trace, _, phases = cli.run_one_seed(cfg, 0)
    assert trace.n_rounds == 300 and trace.node_table == {}
    assert all(r.pi is None and r.g_hat is None and r.active_ids is None
               for r in trace.rounds)
    assert len(phases) > 1 and all(tr.node_table for tr in phases)
    assert all(r.pi is not None and r.g_hat is not None
               and r.active_ids is not None
               for tr in phases for r in tr.rounds)


def test_exp3p_run_keeps_no_snapshots():
    # the monitor skips the fixed-arm baseline, so record_pi records nothing
    cfg = ExperimentConfig.from_dict(base_config(T=64, record_pi=True,
                                                 **EXP3P))
    trace, _, monitor_traces = cli.run_one_seed(cfg, 0)
    assert monitor_traces == [trace] and trace.n_rounds == 64
    assert all(r.pi is None and r.g_hat is None and r.active_ids is None
               for r in trace.rounds)


def test_audit_verb(tmp_path):
    path = write_config(tmp_path, base_config(T=256, seeds=[1]))
    out = tmp_path / "aud"
    assert cli.main(["audit", path, "--out", str(out)]) == 0
    rep = json.loads((out / "audit.json").read_text())
    assert rep["mode"] == "expected" and rep["ok"]


def test_cover_verb(tmp_path):
    path = write_config(tmp_path, base_config(T=64, grid_eps=1 / 64))
    out = tmp_path / "cov"
    assert cli.main(["cover", path, "--out", str(out), "--eps",
                     "0.5,0.25,0.125"]) == 0
    rep = json.loads((out / "cover.json").read_text())
    assert rep["counts"][0] >= 1
    assert "z_hat" in rep


def cover_json_per_eps(cfg, ladder) -> str:
    """cover.json as one gaps_at replay per eps of the ladder would write it."""
    T, d = cfg.horizon, cfg.dim
    environment = env_from_spec(cfg.env, T, cfg.seeds[0])
    grid = evaluate.grid_points(d, evaluate.grid_eps_for(d, T, cfg.grid_eps))
    counts = []
    for eps in ladder:
        ts = evaluate.eps_ladder_times(eps, T)
        mask = np.zeros(len(grid), dtype=bool)
        if ts:
            thr = 30.0 * eps * math.log(T) * math.sqrt(d * math.log(2**d * T))
            mask = (evaluate.gaps_at(environment, grid, ts) < thr).any(axis=1)
        subset = grid[mask]
        counts.append(evaluate.covering_count(subset, eps) if len(subset) else 0)
    report = {"eps_ladder": list(ladder), "counts": counts}
    usable = [(e, c) for e, c in zip(ladder, counts) if c > 0]
    if len(usable) >= 3:
        report.update(evaluate.dimension_fit(*zip(*usable)).to_dict())
    return json.dumps(report, indent=1, sort_keys=True)


@pytest.mark.parametrize("d, env_spec, T, grid_eps", [
    (1, COMBINED, 3000, None),
    (2, {"kind": "distance_to_target", "target": [0.3, 0.6]}, 3000, 1 / 16),
])
def test_cover_fit_replays_once_and_matches_per_eps_replays(
        tmp_path, monkeypatch, d, env_spec, T, grid_eps):
    cfg = ExperimentConfig.from_dict(base_config(
        space={"kind": "cube", "d": d}, env=env_spec, T=T, seeds=[4],
        grid_eps=grid_eps))
    # 2^-8 starts its ladder past T, so it is replayed at no end-time
    ladder = [2.0 ** -k for k in range(2, 9)]
    assert evaluate.eps_ladder_times(ladder[-1], T) == []
    want = cover_json_per_eps(cfg, ladder)
    calls = []
    gaps_at = evaluate.gaps_at

    def counted(*args):
        calls.append(args)
        return gaps_at(*args)

    monkeypatch.setattr(evaluate, "gaps_at", counted)
    rep = cli.cover_fit(cfg, tmp_path, eps_ladder=ladder)
    assert len(calls) == 1
    assert (tmp_path / "cover.json").read_text() == want
    assert "z_hat" in rep


def python(*args, cwd=None):
    """A fresh interpreter that imports this advzoom, run to its exit."""
    src = str(Path(advzoom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only Gaussian noise; every other run skips its import
    code = "import sys, advzoom.cli; assert 'scipy' not in sys.modules"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("T, rc", [(16, 0), (0, 2)])
def test_python_m_advzoom_exits_with_mains_status(tmp_path, T, rc):
    write_config(tmp_path, base_config(T=T))
    proc = python("-m", "advzoom", "run", "cfg.json", "--out", "o",
                  cwd=tmp_path)
    assert proc.returncode == rc, proc.stderr
    if rc == 0:
        assert (tmp_path / "o" / "trace_seed0.csv").is_file()
    else:
        assert proc.stderr.startswith("config error: ")
        assert os.listdir(tmp_path) == ["cfg.json"]


# -- README -------------------------------------------------------------------

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_and_config_run(capsys):
    text = Path(README).read_text()
    quick = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick, re.S).group(1)
    exec(compile(code, "README quick start", "exec"), {})
    regret, n_zooms, n_violations = capsys.readouterr().out.split()
    assert float(regret) > 0 and int(n_zooms) > 0 and n_violations == "0"
    config = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    cfg = ExperimentConfig.from_dict(json.loads(config))
    assert cfg.algorithm == "adversarial_zooming" and cfg.dim == 1
