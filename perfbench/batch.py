"""One batch of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/batch.py --workload ladder_d1 --seed 0 --traced 0 --out DIR

The batch imports advzoom from the checkout's ``src/`` first and times the
import, because every CLI user pays it. It then runs the workload's jobs one
after another, checks each job's output, and prints one JSON line of raw
measurements. Checking runs with tracing paused, and its time is left out
of every span and of the batch's wall time.

A job fails on an exception, a monitor violation, a reward that differs from
an independent replay of the environment, or an output digest that differs
from the stored reference for its base seed.
"""

from __future__ import annotations

import time

_clock = time.perf_counter

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_digests.json")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # reference digests are stored for these base seeds


def import_program() -> float:
    """Import advzoom (and its CLI) from the checkout; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "advzoom", "__init__.py")):
        raise FileNotFoundError(f"no advzoom sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = _clock()
    import advzoom.cli  # noqa: F401
    dt = _clock() - t0
    import advzoom
    if not os.path.abspath(advzoom.__file__).startswith(SRC + os.sep):
        raise ImportError(f"advzoom imported from {advzoom.__file__}, "
                          f"not from {SRC}")
    return dt


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_reference(workload: str, seed: int):
    """Stored digests of the full-size workload at this base seed, or None."""
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


class Checks:
    """Output checks and digests of one batch, keyed by job name."""

    def __init__(self, tracer, verify_dir):
        self.tracer = tracer
        self.verify_dir = verify_dir
        self.digests = {}
        self.failures = defaultdict(list)
        self.info = {}
        self.snapshot_bytes = 0
        self.artifact_bytes = 0
        self.checked_rounds = 0

    def fail(self, job, reason):
        self.failures[job].append(reason)

    def verify_trace(self, job, trace, environment):
        """Replay every played (round, arm) through the environment's block
        path, count snapshot bytes, and digest the trace CSV."""
        import numpy as np

        rounds = trace.rounds
        ts = np.array([r.t for r in rounds], dtype=np.int64)
        rewards = np.array([r.reward for r in rounds], dtype=np.float64)
        by_arm = defaultdict(list)
        for i, r in enumerate(rounds):
            by_arm[r.arm].append(i)
        bad = 0
        for arm, idx in by_arm.items():
            expect = environment.reward_block(ts[idx], np.array([arm]))[0]
            bad += int(np.count_nonzero(expect != rewards[idx]))
        if bad:
            self.fail(job, f"{bad} of {len(rounds)} rewards differ from a "
                           f"replay (T={trace.T}, seed={trace.seed})")
        self.checked_rounds += len(rounds)
        for r in rounds:
            if r.pi is not None:
                # active ids counted as 8-byte integers
                self.snapshot_bytes += (r.pi.nbytes + r.g_hat.nbytes
                                        + 8 * len(r.active_ids))
        path = os.path.join(self.verify_dir, "trace.csv")
        trace.write_csv(path)
        self.digests[f"{job}/traces/T{trace.T}_seed{trace.seed}.csv"] = \
            sha256_file(path)
        os.remove(path)

    def digest_outputs(self, job, out_dir):
        for base, dirs, files in os.walk(out_dir):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                self.digests[f"{job}/{rel}"] = sha256_file(path)
                self.artifact_bytes += os.path.getsize(path)

    def compare(self, reference) -> str:
        """passed, failed, or unchecked when no reference is stored."""
        if reference is None:
            return "unchecked"
        status = "passed"
        for key in sorted(set(reference) | set(self.digests)):
            if reference.get(key) != self.digests.get(key):
                self.fail(key.split("/")[0], f"digest mismatch for {key}")
                status = "failed"
        return status


class JobContext:
    """What a job sees: its output directory and the batch's checks."""

    def __init__(self, name, out_dir, cfg_dir, checks):
        self.name = name
        self.out_dir = out_dir
        self.cfg_dir = cfg_dir
        self.checks = checks
        self.info = checks.info
        os.makedirs(out_dir)

    def write_config(self, raw: dict) -> str:
        path = os.path.join(self.cfg_dir, f"{self.name}.json")
        with open(path, "w") as f:
            json.dump(raw, f)
        return path

    def fail(self, reason):
        self.checks.fail(self.name, reason)

    def verify_trace(self, trace, environment):
        with self.checks.tracer.paused():
            self.checks.verify_trace(self.name, trace, environment)


def run_batch(workload, seed, size, traced, out_dir, import_s=0.0,
              reference=None) -> dict:
    """Run every job of the workload once; advzoom must be imported."""
    from advzoom import cli

    import layers
    import workloads
    from tracing import Patches, Tracer

    tracer = Tracer()
    verify_dir = os.path.join(out_dir, "verify")
    cfg_dir = os.path.join(out_dir, "configs")
    for d in (verify_dir, cfg_dir):
        os.makedirs(d, exist_ok=True)
    checks = Checks(tracer, verify_dir)
    jobs = workloads.WORKLOADS[workload](seed, workloads.SIZES[size])
    current = []

    def capture(run_one_seed):
        def wrapper(cfg, job_seed):
            result = run_one_seed(cfg, job_seed)
            current[-1].verify_trace(result[0], result[1])
            return result
        return wrapper

    t0 = _clock()
    with Patches() as patches:
        layers.instrument(tracer, patches, fine=traced)
        patches.set(cli, "run_one_seed", capture(cli.run_one_seed))
        for job in jobs:
            ctx = JobContext(job.name, os.path.join(out_dir, "jobs", job.name),
                             cfg_dir, checks)
            current.append(ctx)
            try:
                job.run(ctx)
            except Exception as err:  # a failed job, counted and reported
                traceback.print_exc(file=sys.stderr)
                ctx.fail(f"{type(err).__name__}: {err}")
            with tracer.paused():
                checks.digest_outputs(job.name, ctx.out_dir)
    loop_s = _clock() - t0 - tracer.paused_s
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "traced": traced,
        "jobs": [job.name for job in jobs],
        "digest_check": checks.compare(reference),
        "failures": dict(checks.failures),
        "digests": checks.digests,
        "checked_rounds": checks.checked_rounds,
        "info": checks.info,
        "import_s": import_s,
        "wall_s": import_s + loop_s,
        "check_s": tracer.paused_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **layers.end_to_end(tracer, import_s),
    }
    if traced:
        result["layers"] = layers.per_layer(
            tracer, import_s, checks.snapshot_bytes, checks.artifact_bytes)
        result["unattributed_s"] = loop_s - (tracer.root_s
                                             - tracer.paused_in_spans_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        import_s = import_program()
    except (OSError, ImportError) as err:
        print(f"cannot import advzoom: {err}", file=sys.stderr)
        return 2
    reference = (load_reference(args.workload, args.seed)
                 if args.size == "full" else None)
    result = run_batch(args.workload, args.seed, args.size, bool(args.traced),
                       args.out, import_s=import_s, reference=reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
