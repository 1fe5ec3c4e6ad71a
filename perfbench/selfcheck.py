"""Fast self-check of the benchmark; exits non-zero on the first failure.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

For each workload at a tiny size it checks that the input generator is
deterministic, that set-up and traced and untraced jobs pass their checks,
that the result names every metric of BENCHMARK.json with its unit, that
the tracer reports 0 for a function that disappears, and that the checker
reports a corrupted output.  Last, it checks that the benchmark refuses to
run, without printing a result, where there are no treesense sources.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, check_output


def files_of(directory):
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = f.read()
    return out


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def rewrite(path, edit):
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(edit(data))


def swap_data_rows(data):
    lines = data.split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    return b"\n".join(lines)


def overspend_first_row(data):
    """Set energy_spent of the first data row to twice its R."""
    lines = data.split(b"\n")
    cells = lines[1].split(b",")
    cells[8] = repr(2 * float(cells[1])).encode()
    lines[1] = b",".join(cells)
    return b"\n".join(lines)


# one corruption per workload's output, each of which its check must report
CORRUPTIONS = {
    "verify-mc": ("vt.csv", swap_data_rows),
    "learn-planted": ("dict.lasr", lambda data: data[:-8]),
    "compare-sweep": ("cmp.csv", overspend_first_row),
}


def check_workload(name, spec, work):
    tiny = WORKLOADS[name](tiny=True)
    generated = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        tiny.make_inputs(os.path.join(work, label), seed)
        generated.append(files_of(os.path.join(work, label)))
    expect(generated[0] == generated[1], f"{name}: the same seed gave different inputs")
    expect(not generated[0] or generated[0] != generated[2],
           f"{name}: different seeds gave the same inputs")

    setup_s, inputs, problems = run.set_up(tiny, 7, os.path.join(work, "setup"))
    expect(setup_s > 0 and not problems, f"{name}: set-up failed: {problems}")
    jobs = run.measure(tiny, 7, 0, 1, inputs, work)
    for job in jobs:
        expect(not job["problems"], f"{name}: tiny job failed: {job['problems']}")
    for trace, values, key in ((0, run.end_to_end(tiny, setup_s, jobs), "end_to_end"),
                               (1, run.per_layer(jobs), "per_layer")):
        res = run.result(tiny, problems, jobs, values, run.PER_LAYER if trace else run.END_TO_END)
        named = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {metric: entry["unit"] for metric, entry in res["metrics"].items()}
        expect(res["correct"] and emitted == named,
               f"{name}: trace={trace} metrics {emitted} differ from BENCHMARK.json {named}")

    # as if a later change deleted tree_project and learn
    for job in jobs:
        if job["traced"]:
            job["trace"]["functions"].pop("tree.tree_project", None)
            job["trace"]["functions"].pop("dictlearn.learn", None)
    values = run.per_layer(jobs)
    expect(values["tree.tree_project.calls"] == 0 and values["tree.tree_project.ms_per_call"] == 0
           and values["dictlearn.ms_per_alternation"] == 0,
           f"{name}: tracer does not report 0 for a function that disappeared")

    out = os.path.join(work, "corrupt")
    os.makedirs(out)
    report = run.run_job(tiny.argv(inputs, 7, out), 0, out)
    expect(not report["error"] and not check_output(tiny, out), f"{name}: uncorrupted output fails")
    target, corrupt = CORRUPTIONS[name]
    rewrite(os.path.join(out, target), corrupt)
    expect(check_output(tiny, out), f"{name}: check missed a corrupted {target}")
    print(f"selfcheck {name}: ok ({len(jobs)} tiny jobs, corrupted {target} reported: "
          f"{check_output(tiny, out)[0]})")


def check_refuses_without_sources(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "the benchmark ran where there are no treesense sources")
    print("selfcheck: refuses to run without sources: ok")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    with run.work_dir("selfcheck-") as work:
        for name in WORKLOADS:
            check_workload(name, spec, os.path.join(work, name))
        check_refuses_without_sources(work)
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
