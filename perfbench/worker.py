"""Run one treesense CLI job in a fresh process and report its cost.

Usage: python3 worker.py '<json spec>' where the spec holds "src" (the
directory that holds the treesense package), "argv" (the CLI arguments) and
"trace" (0 or 1).  Prints one JSON object: the job's wall and CPU seconds
around `treesense.cli.main`, the process's peak resident memory, the CLI's
captured stdout, an error (or null), and with trace=1 the tracer summary.
An untraced job also reports its wall and CPU seconds, and those of the
import of treesense, rescaled to the reference host speed (hostspeed.py);
a traced job runs without the speed sampler, whose loop would otherwise add
to the self time of the span it interrupts.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostspeed import SpeedSampler


def run(spec):
    sys.path.insert(0, spec["src"])
    with SpeedSampler() as imported:
        import treesense.cli

    origin = os.path.dirname(os.path.abspath(treesense.__file__))
    if origin != os.path.join(os.path.abspath(spec["src"]), "treesense"):
        raise RuntimeError(f"imported treesense from {origin}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("treesense")
    main = treesense.cli.main
    stdout, error = io.StringIO(), None
    speed = None if tracer else SpeedSampler()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), speed or contextlib.nullcontext():
            code = main(spec["argv"])
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception:
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    report = {"wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "stdout": stdout.getvalue(), "error": error,
              "trace": tracer.summary() if tracer else None,
              "import_ref_s": imported.ref_wall_s}
    if speed:
        report.update(sampler_s=speed.sampler_s, sampler_cpu_s=speed.sampler_cpu_s,
                      loop_s=speed.loop_s, ref_wall_s=speed.ref_wall_s,
                      ref_cpu_s=speed.ref_cpu_s)
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
