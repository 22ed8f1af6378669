"""Tests of the benchmark itself, on the tiny size of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import batch  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from advzoom import env  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_LEVEL = {"unattributed_s", "trace_overhead_frac"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_batch(tmp_path, workload, traced, reference=None, name="out"):
    return batch.run_batch(workload, 5, "tiny", traced, str(tmp_path / name),
                           reference=reference)


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_metric_names_are_well_formed_and_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_batch_matches_untraced(tmp_path, workload):
    plain = tiny_batch(tmp_path, workload, False, name="plain")
    traced = tiny_batch(tmp_path, workload, True, name="traced")
    for res in (plain, traced):
        assert res["failures"] == {}
        assert res["digests"]
        assert res["replay_arm_rounds"] > 0 and res["replay_s"] > 0
    assert traced["digests"] == plain["digests"]
    expected = {name for name, _, _ in layers.PER_LAYER} - RUN_LEVEL
    assert set(traced["layers"]) == expected
    for name, unit, _ in layers.PER_LAYER:
        if unit in ("count", "bytes") and name in traced["layers"]:
            assert isinstance(traced["layers"][name], int), name


def test_corrupted_reward_is_a_failed_job(tmp_path, monkeypatch):
    clean = tiny_batch(tmp_path, "ladder_d1", False, name="clean")
    reward = env.StochasticEnv.reward
    monkeypatch.setattr(env.StochasticEnv, "reward",
                        lambda self, t, arm: 1.0 - reward(self, t, arm))
    bad = tiny_batch(tmp_path, "ladder_d1", False, reference=clean["digests"],
                     name="bad")
    assert bad["digest_check"] == "failed"
    # the pricing sweep does not use StochasticEnv
    assert set(bad["failures"]) == {"zoom_tent", "exp3p_two_arm"}
    reasons = " ".join(bad["failures"]["zoom_tent"])
    assert "differ from a replay" in reasons
    assert "digest mismatch" in reasons


def _bindings():
    owners = tracing.package_modules() + [
        env.StochasticEnv, env.CombinedEnv, env.PricingEnv]
    return {(owner.__name__, k): v for owner in owners
            for k, v in vars(owner).items()}


@pytest.mark.parametrize("traced", [False, True])
def test_wrappers_are_restored_when_a_job_raises(tmp_path, monkeypatch,
                                                 traced):
    def broken(self, t, arm):
        raise RuntimeError("reward unavailable")

    monkeypatch.setattr(env.StochasticEnv, "reward", broken)
    before = _bindings()
    res = tiny_batch(tmp_path, "ladder_d1", traced)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert "RuntimeError: reward unavailable" in res["failures"]["zoom_tent"][0]


def test_runner_prints_the_result_line():
    for trace, spec_key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_cli("--workload", "analysis_combined", "--seed", "1",
                       "--seconds", "0", "--trace", trace, "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC[spec_key]}
        for m in SPEC[spec_key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
        assert info["digest_check"] == "unchecked"
    assert not os.path.exists(run.TMP_ROOT)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_cli("--workload", "ladder_d1", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
