import json
import os

import numpy as np
import pytest

from advzoom import cli, evaluate
from advzoom.cli import ExperimentConfig, load_config


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
                 {"space": {"kind": "cube", "d": 2}},
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


@pytest.mark.parametrize("d, T", [(1, 6 * 10**6), (2, 3 * 10**6),
                                  (1, 2 * 10**7)])
def test_horizon_beyond_eval_guard_fails_fast(tmp_path, d, T):
    # even the eps = 1 grid has 2^d arms and 2^d * T > MAX_EVALS; the check
    # runs before any seed, and before the short first rung of a sweep
    cfg = ExperimentConfig.from_dict(base_config(
        T=T, space={"kind": "cube", "d": d}))
    msg = f"T={T} .* d={d}: .*MAX_EVALS={evaluate.MAX_EVALS}"
    with pytest.raises(ValueError, match=msg):
        cli.run_experiment(cfg, str(tmp_path / "run"))
    with pytest.raises(ValueError, match=msg):
        cli.sweep_horizons(cfg, [64, 128, T], str(tmp_path / "sweep"))
    assert not os.listdir(tmp_path)
    # the longest horizon that fits keeps the eps = 1 grid
    fits = evaluate.MAX_EVALS // 2**d
    assert cli._grid_eps_of(cfg, fits) == 1.0


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
