"""noisylearn benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload pipeline --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports noisylearn from src/.
It pins BLAS to one thread (--blas-threads changes that) and writes the
workload's config with --seed as its seed. Then it runs jobs until
--seconds are used up. Each job runs in a fresh process (bench/job.py):
it sets up, runs the workload once and checks the outputs. A job with a
problem counts as failed.

--trace 0 prints the end-to-end metrics, as medians over the jobs.
--trace 1 alternates untraced and traced jobs and prints the per-layer
metrics. The run's record, with the spans of traced jobs, goes to
.bench_out/. The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from job import EXIT_MISSING_TARGET

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_JOBS = 2
JOB_TIMEOUT_S = 150
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    return p.parse_args(argv)


def environment(root: Path) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "nproc": os.cpu_count(), "cpu": cpu, "git_rev": git_rev(root)}


def git_rev(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(src: Path, workload: str, config_path: Path, job_dir: Path,
            traced: bool, cpus: set[int]) -> dict:
    """One job in a fresh process on `cpus`; its record, or a failed one."""
    out = job_dir.with_suffix(".json")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "job.py"), str(src), workload,
             str(config_path), str(job_dir), "1" if traced else "0", str(out)],
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        done = None
    from spans import MissingTarget     # imported once main set up sys.path
    if done is not None and done.returncode == EXIT_MISSING_TARGET:
        raise MissingTarget(done.stderr.strip())
    shutil.rmtree(job_dir, ignore_errors=True)
    if done is None or done.returncode != 0 or not out.is_file():
        why = ("timed out" if done is None else
               f"exited with {done.returncode}: {done.stderr[-2000:]}")
        return {"traced": traced, "wall_s": None, "quality": {},
                "problems": [f"job {why}"]}
    return json.loads(out.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:   # inherited by the jobs; before numpy loads
        os.environ[var] = str(args.blas_threads)
    root = Path.cwd()
    src = root / "src"
    if not (src / "noisylearn" / "__init__.py").is_file():
        print(f"error: no src/noisylearn under {root}; run from the root of "
              "a noisylearn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from spans import (MissingTarget, layer_metric_names,
                       median_layer_metrics, unit)
    from workloads import QUALITY, WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    # Each vCPU of a shared host slows down and speeds up on its own
    # (measured: r = 0.03 between the two vCPUs here). Rotating the jobs
    # over the CPUs makes a run's median span both instead of riding one.
    cpus = sorted(os.sched_getaffinity(0))
    width = min(args.blas_threads, len(cpus))
    jobs = []
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps({"seed": args.seed,
                                           **workload.config}))
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(jobs) % 2 == 1
            first = len(jobs)
            jobs.append(run_job(src, workload.name, config_path,
                                work / f"job{first}", traced,
                                {cpus[(first + i) % len(cpus)]
                                 for i in range(width)}))
            elapsed = time.perf_counter() - start
            if (len(jobs) >= MIN_JOBS
                    and elapsed * (len(jobs) + 1) / len(jobs) > args.seconds):
                break
    except MissingTarget as e:
        print(e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = [job for job in jobs if not job["problems"]]
    for job in ok[1:]:
        if job["quality"] != ok[0]["quality"]:
            job["problems"].append(
                f"quality {job['quality']} differs from the first job's "
                f"{ok[0]['quality']}")
    failed = [job for job in jobs if job["problems"]]
    for job in failed:
        print("job failed:\n  " + "\n  ".join(job["problems"]), file=sys.stderr)

    def median(key: str, traced: bool = False):
        values = [j[key] for j in jobs
                  if j["traced"] == traced and j.get(key) is not None]
        return statistics.median(values) if values else None

    metrics = {}
    if args.trace:
        traced_ok = [j for j in jobs if j["traced"] and not j["problems"]]
        if traced_ok and median("wall_s") is not None:
            layers = median_layer_metrics([j["layers"] for j in traced_ok])
            layers["trace.wall_s"] = median("wall_s", traced=True)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - median("wall_s")
            for name in layer_metric_names():
                metrics[name] = {"value": layers[name], "unit": unit(name)}
    elif ok:
        metrics["wall_s"] = {"value": median("wall_s"), "unit": "s"}
        metrics["setup_s"] = {"value": median("setup_s"), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": median("peak_rss_mb"), "unit": "MB"}
        for name in QUALITY:
            metrics[name] = {"value": ok[0]["quality"][name],
                             "unit": "fraction"}

    env = environment(root)
    summary = [{k: v for k, v in j.items() if k not in ("layers", "spans")}
               for j in jobs]
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "env": env, "jobs": summary,
              "metrics": metrics,
              "spans": [j["spans"] for j in jobs if "spans" in j]}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    print("env " + json.dumps(env))
    print("jobs " + json.dumps(summary))
    correct = bool(jobs) and not failed and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
