"""Seeded benchmark for pairsketch: one workload per run, checked op by op.

    python3 perfbench/run.py --workload estimators --seed 1 --seconds 60 --trace 0

Run it from the repository root. Each run starts fresh worker processes
(``perfbench/worker.py``) with single-threaded BLAS: five set up the workload
from ``--seed`` and the last of them then repeats a round of ops for about
``--seconds``. With ``--trace 1`` the worker instead runs one round plain and
one traced, then the probes traced, and reports per-layer numbers instead of
end-to-end ones.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it print every metric with its
unit, the environment and the failed ops. Instances, the run record, report
digests and spans go to ``.perfbench/`` in the working directory. The exit
code is nonzero when any op fails its check or the sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("estimators", "small-sketches")
SETUPS = 5
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s": "s",
    "live_run_p50_ms": "ms",
    "live_run_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PAIRSKETCH_SEED", None)  # the library gets only generated inputs
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_worker(args, workdir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its set-up; return it and the set-up seconds."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def git_state() -> dict:
    """Commit and dirty flag of the working directory, if it is a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != Path.cwd().resolve():
            raise ValueError("not the repository root")
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": git("status", "--porcelain", "--untracked-files=no") != ""}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def check_digests(workdir: Path, key: str, digests: dict) -> list:
    """Report bytes must repeat across runs of the same seed (criterion 8)."""
    path = workdir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    failures = []
    for name, (digest, _) in digests.items():
        old = known.setdefault(key, {}).setdefault(name, digest)
        if old != digest:
            failures.append((name, f"report digest {digest[:12]} differs from an "
                                   f"earlier run of this seed ({old[:12]})"))
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/pairsketch/__init__.py").is_file():
        print("run.py: src/pairsketch not found; run from the repository root",
              file=sys.stderr)
        return 2

    workdir = Path(".perfbench").resolve()
    workdir.mkdir(exist_ok=True)
    try:
        setups = []
        for i in range(SETUPS):
            proc, setup = start_worker(args, workdir, setup_only=i < SETUPS - 1)
            setups.append(setup)
            if i < SETUPS - 1:
                finish(proc)
        raw = json.loads(finish(proc).splitlines()[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    params = json.dumps(raw["params"], sort_keys=True)
    key = f"{args.workload}/seed{args.seed}/{hashlib.sha256(params.encode()).hexdigest()[:12]}"
    failures = raw["failures"] + check_digests(workdir, key, raw["digests"])
    attempted = raw["attempted"]
    # an op counts once however many of its checks fail
    failed = min(attempted, len({op_id for op_id, _ in failures}))
    raw["setup_s"] = statistics.median(setups)
    raw["setups_s"] = setups
    raw["op_fail_frac"] = failed / attempted

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in raw["layers"].items()}
    else:
        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "args": vars(args),
        "env": {**raw.pop("env"), "nproc": os.cpu_count(), "git": git_state()},
        **raw,
    }
    (workdir / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workdir / "results" / name).write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"rounds={raw['rounds']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} git={env['git']['sha'][:12]} dirty={env['git']['dirty']}")
    print(f"# params {json.dumps(raw['params'], sort_keys=True)}")
    if not args.trace:
        for metric, unit in END_TO_END.items():
            print(f"{metric:<22} {raw[metric]:>14.6g} {unit}")
        print(f"{'op_fail_frac':<22} {raw['op_fail_frac']:>14.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
        print(f"# live runs {raw['live_runs']}, tail is p{raw['live_run_tail_pct']:.2f}; "
              f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    else:
        for metric, (value, unit) in raw["layers"].items():
            print(f"{metric:<38} {value:>14.6g} {unit}")
        print(f"# {raw['spans']} spans")
    for op_id, message in failures:
        print(f"FAILED {op_id}: {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
