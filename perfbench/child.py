"""One cold homapprox CLI run in a fresh interpreter, with its cost.

run.py starts this script once per input file:

    python3 child.py SPAWN_TIME RECORD TRACE RUN_ID [-- CLI_ARGS...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s covers interpreter
start-up plus importing homapprox and its CLI.  The report goes to this
process's stdout exactly as the CLI prints it, and the process exits with
the CLI's exit code.  Timings, peak memory and, when TRACE is 1, the
spans go to the JSON file RECORD.  Without CLI_ARGS only set-up is
measured.

Each stage is recorded both as wall seconds and as this process's CPU
seconds, with the monotonic clock at its ends, so run.py can scale the
CPU seconds by the speed pacer.py saw in the same interval.
"""
import sys
import time
from pathlib import Path


def main() -> int:
    spawn_t, record_path, trace, run_id = sys.argv[1:5]
    cli_args = sys.argv[6:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from homapprox import cli

    setup_cpu_s = time.process_time()
    setup_end = time.monotonic()

    import json
    import resource

    record = {
        "setup_s": setup_end - float(spawn_t),
        "setup_cpu_s": setup_cpu_s,
        "setup_span": [float(spawn_t), setup_end],
    }
    code = 0
    if cli_args:
        tracer = None
        if trace == "1":
            import spans

            tracer = spans.install(run_id)
        start, start_cpu = time.monotonic(), time.process_time()
        code = cli.main(cli_args)
        sys.stdout.flush()
        end, end_cpu = time.monotonic(), time.process_time()
        record["report_s"] = end - start
        record["report_cpu_s"] = end_cpu - start_cpu
        record["report_span"] = [start, end]
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.to_json()
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
