"""treesense benchmark: run one CLI workload for a fixed time and report it.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload verify-mc --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed and runs a small
warm-up job, SETUP_REPEATS times; `setup_s` is the median.  Then whole CLI
jobs of fixed size run back to back, each in a fresh process, until the
time is spent.  Every job's output is checked; a job that raises or fails a
check fails all of its ops.  With --trace 0 the end-to-end metrics are the
medians over jobs; with --trace 1 untraced and traced jobs alternate and
the per-layer metrics come from the traced ones.  End-to-end times are
rescaled to a reference host speed measured while they run (hostspeed.py);
the report prints the raw times beside them.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Fixed before numpy loads, here and in every job process: with more BLAS
# threads, threads spinning on small products double the CPU time of a job.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from hostspeed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
MIN_JOBS = 4
JOB_TIMEOUT_S = 60

LAYERS = ("tree", "sensing", "bounds", "dictlearn", "baselines", "wavelet", "harness", "cli")
# (metric, unit) of the traced run beyond <layer>.calls and <layer>.self_s
LAYER_DETAIL = [
    ("tree.tree_project.calls", "count"), ("tree.tree_project.self_s", "s"),
    ("tree.tree_project.ms_per_call", "ms"), ("tree.random_tree_sparse.self_s", "s"),
    ("tree.groups_of.self_s", "s"),
    ("sensing.sessions", "count"), ("sensing.measurements", "count"),
    ("sensing.us_per_measurement", "us"), ("sensing.m_over_dk1", "ratio"),
    ("sensing.truncated_rate", "fraction"), ("sensing.significant_fraction", "fraction"),
    ("dictlearn.tree_group_penalty.calls", "count"), ("dictlearn.tree_group_penalty.self_s", "s"),
    ("dictlearn.tree_prox.self_s", "s"), ("dictlearn.sparse_code.calls", "count"),
    ("dictlearn.sparse_code.self_s", "s"), ("dictlearn.update_dictionary.self_s", "s"),
    ("dictlearn.learn.alternations", "count"), ("dictlearn.ms_per_alternation", "ms"),
    ("baselines.lasso_solve.calls", "count"), ("baselines.lasso_solve.self_s", "s"),
    ("baselines.model_cosamp.calls", "count"), ("baselines.model_cosamp.self_s", "s"),
    ("baselines.model_cosamp.projections_per_call", "count"), ("baselines.pca_fit.self_s", "s"),
    ("wavelet.wavelet_sense.self_s", "s"), ("wavelet.quadtree_children.self_s", "s"),
    ("wavelet.haar2.self_s", "s"),
    ("harness.lambda_for_sparsity.self_s", "s"), ("harness.load_corpus.self_s", "s"),
    ("harness.write_csv.self_s", "s"), ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]
PER_LAYER = [(f"{layer}.{kind}", unit) for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"))] + LAYER_DETAIL
END_TO_END = [("setup_s", "s"), ("wall_ref_s", "s"), ("ops_per_ref_s", "ops/s"),
              ("cpu_ref_s", "s"), ("peak_rss_mb", "MB")]


@contextlib.contextmanager
def work_dir(prefix):
    """A fresh directory under WORK_ROOT; on exit it is removed, and
    WORK_ROOT too when nothing else is left in it."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def run_job(argv, trace, cwd):
    """Run one CLI job in a fresh worker process; returns the worker's report."""
    spec = json.dumps({"src": SRC, "argv": argv, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec],
                              cwd=cwd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"job timed out after {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:] or f"worker exit code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker printed no report: {proc.stdout[-200:]!r}"}


def read_outputs(workload, out_dir):
    """Bytes of each output file of a job (None where missing)."""
    data = {}
    for name in workload.outputs:
        try:
            with open(os.path.join(out_dir, name), "rb") as f:
                data[name] = f.read()
        except OSError:
            data[name] = None
    return data


def set_up(workload, seed, work):
    """Generate the inputs and run a warm-up job, SETUP_REPEATS times.
    Returns (median seconds, inputs, problems of the warm-up jobs).  The
    seconds of one set-up are those of input generation, of importing
    treesense and of the warm-up job, each rescaled to the reference speed;
    starting the interpreter is not counted."""
    warmup = type(workload)(tiny=True)
    times, problems = [], []
    for i in range(SETUP_REPEATS):
        with SpeedSampler() as generate:
            inputs = workload.make_inputs(os.path.join(work, f"inputs{i}"), seed)
        out = os.path.join(work, f"warmup{i}")
        os.makedirs(out)
        report = run_job(warmup.argv(inputs, seed, out), 0, out)
        if report["error"]:
            problems.append(report["error"])
            continue
        problems += check_output(warmup, out)
        times.append(generate.ref_wall_s + report["import_ref_s"] + report["ref_wall_s"])
    return statistics.median(times) if times else None, inputs, problems


def measure(workload, seed, seconds, trace, inputs, work):
    """Run jobs until the time is spent; untraced and traced jobs alternate
    when trace is set.  Returns one record per job."""
    deadline = time.perf_counter() + seconds
    jobs, spent, reference = [], [], None
    while True:
        out = os.path.join(work, f"job{len(jobs)}")
        os.makedirs(out)
        traced = bool(trace) and len(jobs) % 2 == 1
        start = time.perf_counter()
        report = run_job(workload.argv(inputs, seed, out), int(traced), out)
        spent.append(time.perf_counter() - start)
        problems = [report["error"]] if report["error"] else check_output(workload, out)
        outputs = read_outputs(workload, out)
        if reference is None:
            reference = outputs
        elif outputs != reference:
            problems.append("output differs from the first job of this run (same seed)")
        if trace and not problems:
            report["sensing"] = workload.sensing(outputs)
        shutil.rmtree(out)
        jobs.append({"traced": traced, "problems": problems, **report})
        if len(jobs) >= MIN_JOBS and time.perf_counter() + statistics.median(spent) > deadline:
            return jobs


def end_to_end(workload, setup_s, jobs):
    ok = [j for j in jobs if not j["traced"] and not j["error"]]
    if not ok or setup_s is None:
        return {}
    wall = statistics.median(j["ref_wall_s"] for j in ok)
    return {"setup_s": setup_s, "wall_ref_s": wall, "ops_per_ref_s": workload.ops / wall,
            "cpu_ref_s": statistics.median(j["ref_cpu_s"] for j in ok),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in ok)}


def per_layer(jobs):
    """Per-layer metrics: per-job means over the traced jobs that passed."""
    traced = [j for j in jobs if j["traced"] and not j["problems"]]
    untraced = [j for j in jobs if not j["traced"] and not j["problems"]]
    if not traced or not untraced:
        return {}
    n = len(traced)
    stats, edges = {}, {}
    sensing = {"sessions": 0, "measurements": 0, "truncated": 0, "m_over_dk1": 0.0}
    observed = {"measured": 0, "significant": 0, "alternations": 0}
    for job in traced:
        summary = job["trace"]
        for name, (calls, self_s, total_s) in summary["functions"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls / n
            acc[1] += self_s / n
            acc[2] += total_s / n
        for edge, calls in summary["edges"].items():
            edges[edge] = edges.get(edge, 0) + calls / n
        for key in sensing:
            sensing[key] += job["sensing"][key] / n
        observed["measured"] += summary["sensing"][1]
        observed["significant"] += summary["sensing"][2]
        observed["alternations"] += summary["alternations"] / n

    def fn(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    metrics = {}
    for layer in LAYERS:
        members = [v for name, v in stats.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(v[0] for v in members)
        metrics[f"{layer}.self_s"] = sum(v[1] for v in members)
    for name, unit in LAYER_DETAIL:
        if name.endswith(".calls"):
            metrics[name] = fn(name[:-len(".calls")], 0)
        elif name.endswith(".self_s") and not name.startswith("trace."):
            metrics[name] = fn(name[:-len(".self_s")], 1)
    traced_wall = statistics.median(j["wall_s"] for j in traced)
    metrics.update({
        "tree.tree_project.ms_per_call": ratio(fn("tree.tree_project", 2),
                                               fn("tree.tree_project", 0), 1e3),
        "sensing.sessions": sensing["sessions"],
        "sensing.measurements": sensing["measurements"],
        "sensing.us_per_measurement": ratio(metrics["sensing.self_s"],
                                            sensing["measurements"], 1e6),
        "sensing.m_over_dk1": sensing["m_over_dk1"],
        "sensing.truncated_rate": ratio(sensing["truncated"], sensing["sessions"]),
        "sensing.significant_fraction": ratio(observed["significant"], observed["measured"]),
        "dictlearn.learn.alternations": observed["alternations"],
        "dictlearn.ms_per_alternation": ratio(fn("dictlearn.learn", 2),
                                              observed["alternations"], 1e3),
        "baselines.model_cosamp.projections_per_call": ratio(
            edges.get("baselines.model_cosamp>tree.tree_project", 0),
            fn("baselines.model_cosamp", 0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(j["wall_s"] - j["sampler_s"]
                                                            for j in untraced),
    })
    return metrics


def result(workload, setup_problems, jobs, values, wanted):
    """The result object: each wanted (metric, unit) with its value, and the
    ops attempted and failed (every op of a job with a problem fails)."""
    failed_jobs = sum(1 for job in jobs if job["problems"])
    return {"correct": not failed_jobs and not setup_problems
            and all(name in values for name, _ in wanted),
            "attempted": workload.ops * len(jobs), "failed": workload.ops * failed_jobs,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in wanted}}


def print_report(workload, seed, setup_problems, jobs, values, res):
    """Human-readable lines: environment, each job, and every metric by name
    and unit, with error_rate (failed ops over attempted ops)."""
    untraced = sum(not job["traced"] for job in jobs)
    print(f"perfbench {workload.name}: {len(jobs)} jobs ({untraced} untraced), "
          f"{workload.ops} ops per job")
    print("environment " + json.dumps(environment(seed)))
    for problem in setup_problems:
        print(f"warm-up problem: {problem}")
    for i, job in enumerate(jobs):
        kind = "traced" if job["traced"] else "untraced"
        if job["error"]:
            wall = "error"
        elif job["traced"]:
            wall = f"{job['wall_s']:.4f} s"
        else:
            wall = (f"{job['wall_s']:.4f} s raw, {job['ref_wall_s']:.4f} s at reference "
                    f"speed (reference loop {job['loop_s'] * 1e6:.1f} us)")
        print(f"job {i} ({kind}): {wall}; " + ("; ".join(job["problems"]) or "checks pass"))
    units = dict(END_TO_END + PER_LAYER)
    for name, value in values.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    ok = [job for job in jobs if not job["traced"] and not job["error"]]
    if ok:
        wall = statistics.median(job["wall_s"] - job["sampler_s"] for job in ok)
        cpu = statistics.median(job["cpu_s"] - job["sampler_cpu_s"] for job in ok)
        print(f"  {'raw, not rescaled: wall_s':46s} {wall:14.6g} s")
        print(f"  {'raw, not rescaled: ops_per_s':46s} {workload.ops / wall:14.6g} ops/s")
        print(f"  {'raw, not rescaled: cpu_s':46s} {cpu:14.6g} s")
    print(f"  {'error_rate':46s} {res['failed'] / res['attempted']:14.6g} fraction "
          f"({res['failed']} of {res['attempted']} ops failed)")
    if "trace.wall_s" in values:
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        traced = statistics.mean(job["wall_s"] for job in jobs
                                 if job["traced"] and not job["problems"])
        print(f"  layer self times sum to {self_sum:.6g} s of {traced:.6g} s mean traced "
              f"wall (tracing overhead {values['trace.overhead_s']:.4g} s)")


def environment(seed):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "machine": platform.machine(),
            "workload_seed": seed, "cli_seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treesense", "__init__.py")):
        print(f"perfbench: no treesense sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    with work_dir(f"{workload.name}-") as work:
        setup_s, inputs, setup_problems = set_up(workload, args.seed, work)
        jobs = measure(workload, args.seed, args.seconds, args.trace, inputs, work)

    e2e = end_to_end(workload, setup_s, jobs)
    layers = per_layer(jobs) if args.trace else {}
    res = result(workload, setup_problems, jobs, layers if args.trace else e2e,
                 PER_LAYER if args.trace else END_TO_END)
    print_report(workload, args.seed, setup_problems, jobs, {**e2e, **layers}, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
