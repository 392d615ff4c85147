"""One benchmark job in a fresh process: set-up, run, output checks, spans.

    python3 bench/job.py SRC WORKLOAD CONFIG_JSON JOB_DIR TRACED OUT_JSON

run.py starts one of these per job, so every job pays the import and the
heap warm-up that a user's own run pays. The set-up time covers importing
noisylearn, parsing the config and `harness.generate_data`. The job writes
its record to OUT_JSON. It exits with code 3 if a traced name is missing.
"""

import sys
import time

EXIT_MISSING_TARGET = 3     # a traced name no longer exists


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[1])
    from noisylearn import cli, harness  # noqa: F401  (cli: what users import)
    harness.generate_data(harness.load_config(argv[3]))
    setup_s = time.perf_counter() - start

    # After the timer, so noisylearn's own imports of these count as set-up.
    import json
    import resource
    import traceback
    from pathlib import Path

    from spans import MissingTarget, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[argv[2]]
    config_path, job_dir, out = Path(argv[3]), Path(argv[4]), Path(argv[6])
    traced = argv[5] == "1"
    tracer = Tracer(timed=traced)
    record = {"traced": traced, "setup_s": setup_s, "wall_s": None,
              "quality": {}, "problems": []}
    job_dir.mkdir()
    try:
        with tracer:
            begin, cpu = time.perf_counter(), time.process_time()
            output = workload.run(config_path, job_dir)
            record["wall_s"] = time.perf_counter() - begin
            record["cpu_s"] = time.process_time() - cpu
            record["quality"], record["problems"] = workload.check(
                job_dir, output, tracer)
        if traced:
            record["problems"] += [f"traced job made no {name} calls"
                                   for name in workload.required
                                   if tracer.calls(name) == 0]
    except MissingTarget as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_TARGET
    except Exception:   # a crash is a failed job, reported to the run
        record["problems"].append(traceback.format_exc())
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if traced:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
