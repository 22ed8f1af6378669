"""advzoom benchmark runner.

    python3 perfbench/run.py --workload ladder_d1 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. For --seconds, the runner starts one batch
after another, each a fresh single-threaded interpreter (batch.py) that
imports advzoom from ``src/`` and runs every job of the workload once. With
--trace 0 it reports the end-to-end metrics over the batches; with
--trace 1 it alternates untraced and traced batches and reports the
per-layer metrics of the traced ones. Every batch of a run repeats the same
inputs, so all of them must give the same output digests; traced batches
must match untraced ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": <jobs>, "failed": <failed jobs>, "metrics": ...}.
The line before it carries what is not a metric: the digest check status,
the job failure fraction, learner rounds per second and the d=1 zooming
regret slope.

    python3 perfbench/run.py --write-reference

rewrites reference_digests.json from the current program, for the default
and the held-out base seed. Do that only when a change alters outputs on
purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
sys.path.insert(0, HERE)

import batch  # noqa: E402  (stdlib only at import time)

WORKLOADS = ("ladder_d1", "artifacts_d2", "analysis_combined", "finite_dag")
MIN_BATCHES = 3  # per kind of batch; medians need at least three
MAX_BATCHES = 40
BATCH_TIMEOUT_S = 150

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("replay_arm_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# acceptance criterion 3 is a standing known red; its measured value (20
# seeds, T = 2^10..2^14) is quoted with every run, next to this benchmark's
# own smaller d=1 zooming sweep
CRITERION_3_KNOWN_RED = {"zooming_slope": 0.977, "stderr": 0.006, "bar": 0.95}


def child_env(out_dir) -> dict:
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "ADVZOOM_OUT_ROOT": out_dir,
    })
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload, seed, size, traced, tmp, index) -> dict:
    out_dir = os.path.join(tmp, f"batch{index}")
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "batch.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--traced", str(int(traced)), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(out_dir),
                              capture_output=True, text=True,
                              timeout=BATCH_TIMEOUT_S)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"batch {index} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_batches(workload, seed, size, seconds, trace, tmp) -> list:
    """Closed loop: the next batch starts when the previous one has ended.

    A new batch starts only if it is expected to end within `seconds`, once
    every kind of batch has run MIN_BATCHES times.
    """
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    results = []
    longest = 0.0
    while len(results) < MAX_BATCHES:
        traced = kinds[len(results) % len(kinds)]
        t0 = time.perf_counter()
        results.append(run_child(workload, seed, size, traced, tmp,
                                 len(results)))
        longest = max(longest, time.perf_counter() - t0)
        done = len(results) >= MIN_BATCHES * len(kinds) \
            and len(results) % len(kinds) == 0
        if done and time.perf_counter() - start + longest > seconds:
            break
    return results


def cross_check(results) -> None:
    """Fail the jobs whose digests differ from the first batch's."""
    first = results[0]["digests"]
    for res in results[1:]:
        for key in sorted(set(first) | set(res["digests"])):
            if first.get(key) != res["digests"].get(key):
                kind = "traced" if res["traced"] else "untraced"
                res["failures"].setdefault(key.split("/")[0], []).append(
                    f"{kind} batch digest differs from the first for {key}")


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def pooled_rate(results, work, seconds):
    return sum(r[work] for r in results) / sum(r[seconds] for r in results)


def end_to_end(plain) -> dict:
    """Wall time and replay rate pool all batches of the run: the machine's
    speed drifts in phases of seconds, and the pooled figures vary less
    from run to run than per-batch medians. Set-up and memory are medians.
    """
    return {
        "wall_s": statistics.mean(r["wall_s"] for r in plain),
        "setup_s": median_of(plain, "setup_s"),
        "replay_arm_rounds_per_s": pooled_rate(plain, "replay_arm_rounds",
                                               "replay_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }


def summarize(results, trace) -> tuple:
    import layers  # imports advzoom; only after the batches are done

    attempted = sum(len(r["jobs"]) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    plain = [r for r in results if not r["traced"]]
    statuses = {r["digest_check"] for r in results}
    info = {
        "workload": results[0]["workload"],
        "seed": results[0]["seed"],
        "batches": {"untraced": len(plain),
                    "traced": len(results) - len(plain)},
        "jobs_attempted": attempted,
        "job_fail_frac": failed / attempted,
        "digest_check": ("failed" if "failed" in statuses
                         else "unchecked" if "unchecked" in statuses
                         else "passed"),
        "failures": [f for r in results for f in r["failures"].items()],
        "checked_rounds": results[0]["checked_rounds"],
        "learner_rounds": results[0]["learner_rounds"],
        "rounds_per_s": (pooled_rate(plain, "learner_rounds", "learner_s")
                         if results[0]["learner_rounds"] else 0.0),
        "untraced_wall_s": [round(r["wall_s"], 4) for r in plain],
        **results[0]["info"],
        "criterion_3_known_red": CRITERION_3_KNOWN_RED,
    }
    if trace:
        tr = [r for r in results if r["traced"]]
        names = tr[0]["layers"].keys()
        metrics = {k: layers.median([r["layers"][k] for r in tr])
                   for k in names}
        metrics["unattributed_s"] = median_of(tr, "unattributed_s")
        metrics["trace_overhead_frac"] = (median_of(tr, "wall_s")
                                          / median_of(plain, "wall_s") - 1.0)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return info, {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": out}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under the checkout, removed with its parent."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it


def write_reference():
    refs = {}
    with scratch_dir() as tmp:
        for workload in WORKLOADS:
            for seed in (batch.DEFAULT_SEED, batch.HELD_OUT_SEED):
                res = run_child(workload, seed, "full", False, tmp, 0)
                if res["failures"]:
                    raise RuntimeError(f"{workload} seed {seed}: "
                                       f"{res['failures']}")
                refs.setdefault(workload, {})[str(seed)] = res["digests"]
                print(f"{workload} seed {seed}: {len(res['digests'])} digests")
    with open(batch.REFERENCE, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="advzoom benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=batch.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few rounds per job, for the tests")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(batch.SRC, "advzoom", "__init__.py")):
        print(f"no advzoom sources under {batch.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with scratch_dir() as tmp:
        results = run_batches(args.workload, args.seed, args.size,
                              args.seconds, bool(args.trace), tmp)
    cross_check(results)
    sys.path.insert(0, batch.SRC)
    info, line = summarize(results, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
