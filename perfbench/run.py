"""Benchmark of the shiftmaxent CLI pipeline.

    python3 perfbench/run.py --workload tables-solve --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. One client drives ``shiftmaxent.cli.run``
in this process, one task after the other (a closed loop). Tasks come
in whole cycles (see ``tasks.py``): at least 100 tasks, and then more
cycles while one more is expected to end within ``--seconds`` of task
time. Every task's output is checked by an oracle outside the timed
region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass over the seed's first cycles (at
least 50 tasks, whatever ``--seconds`` says), next to an untraced pass
over the same tasks whose difference is the tracing overhead. Metric names and units are those
declared in ``BENCHMARK.json``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"     # work files and span traces
# OpenBLAS defaults to one thread per core. On a 2-core box its threads
# contend with the interpreter and make dense solves both slower and far
# noisier, so the workload processes use one BLAS thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_TASKS = 100         # so that at least 10 latencies lie beyond p90
TRACE_TASKS = 50        # traced work: the seed's first whole cycles
SETUP_LAUNCHES = 7
WALL_LIMIT_S = 120.0    # stop starting cycles after this, to end within 180 s


def _child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(version):
    """Wall time of one fresh ``python -m shiftmaxent.cli --version``, and
    whether it printed the version."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "shiftmaxent.cli", "--version"],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    return time.perf_counter() - start, proc.returncode == 0 and proc.stdout.strip() == version


class Runner:
    """Runs tasks through the in-process CLI, timing and checking each."""

    def __init__(self, cli, workdir, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.bytes_out = 0

    def run(self, task):
        for name, text in task.inputs.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        if self.tracer is not None:
            self.tracer.task = self.attempted
        start = time.perf_counter()
        for step in task.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                step.rc = self.cli.run(step.argv)
            step.stdout, step.stderr = out.getvalue(), err.getvalue()
        self.latencies.append(time.perf_counter() - start)
        self.attempted += 1
        for step in task.steps:
            if "--out" in step.argv:
                path = Path(step.argv[step.argv.index("--out") + 1])
                self.bytes_out += path.stat().st_size if path.exists() else 0
        try:
            task.check(task)
        except Exception as exc:  # any oracle failure marks the task failed
            self.failed += 1
            self.errors.append(f"{task.kind} depth {task.depth}: "
                               f"{type(exc).__name__}: {exc}")

    def run_cycles(self, make_cycle, tasks):
        """Run whole cycles until at least ``tasks`` tasks have run."""
        cycle = 0
        while self.attempted < tasks:
            for task in make_cycle(cycle):
                self.run(task)
            cycle += 1

    @property
    def task_seconds(self):
        return sum(self.latencies)


def import_checkout(src):
    """Import the checkout's package, refusing any other installed copy."""
    sys.path.insert(0, str(src))
    import shiftmaxent
    from shiftmaxent import cli
    if Path(shiftmaxent.__file__).resolve().parent != src / "shiftmaxent":
        raise ImportError(f"imported {shiftmaxent.__file__}, not the checkout's package")
    return shiftmaxent, cli


def machine_lines(shiftmaxent):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        f"shiftmaxent={shiftmaxent.__version__}",
        f"# blas={blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', '').strip()})",
        "# env " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "# wall-clock time on a shared machine; no CPU pinning, no cache control",
    ]


def warm_up(cli, make_cycle, workdir):
    """Run the shallow tasks of the warm-up stream, untimed, and collect."""
    warm = Runner(cli, workdir)
    for task in make_cycle(0, "warmup"):
        if task.depth <= 6:
            warm.run(task)
    gc.collect()
    return warm


def end_to_end(args, shiftmaxent, cli, make_cycle, workdir):
    warm = warm_up(cli, make_cycle, workdir)
    # One set-up launch before each cycle, so that the launches sample the
    # whole run rather than one moment of a shared machine's load.
    launches = []
    runner = Runner(cli, workdir)
    started = time.perf_counter()
    cycle = 0
    # Whole cycles, so that every run has the same mix of slots; one more
    # cycle only if, at the mean cycle time so far, it ends within --seconds.
    while (cycle == 0 or runner.attempted < MIN_TASKS
           or runner.task_seconds * (cycle + 1) / cycle <= args.seconds) \
            and time.perf_counter() - started <= WALL_LIMIT_S:
        if len(launches) < SETUP_LAUNCHES:
            launches.append(launch(shiftmaxent.__version__))
        for task in make_cycle(cycle, "run"):
            runner.run(task)
        cycle += 1
    while len(launches) < SETUP_LAUNCHES:
        launches.append(launch(shiftmaxent.__version__))
    bad_launches = sum(not ok for _, ok in launches)
    lat = runner.latencies
    attempted = warm.attempted + runner.attempted + SETUP_LAUNCHES
    failed = warm.failed + runner.failed + bad_launches
    metrics = {
        "setup_s": statistics.median(t for t, _ in launches),
        "tasks_per_s": len(lat) / runner.task_seconds,
        "task_p50_s": statistics.median(lat),
        "task_p90_s": statistics.quantiles(lat, n=10)[8],
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"# tasks={len(lat)} in {runner.task_seconds:.2f} s of task time; "
             f"{len(lat) - int(0.9 * len(lat))} latencies beyond p90",
             f"# failed_frac={runner.failed / runner.attempted!r} "
             f"(warm-up failures {warm.failed}, setup launch failures {bad_launches})"]
    return metrics, attempted, failed, warm.errors + runner.errors, notes


def traced(args, shiftmaxent, cli, make_cycle, workdir):
    import spans
    imp_pkg, imp_scipy = spans.import_times(sys.executable, _child_env(), ROOT)
    warm = warm_up(cli, make_cycle, workdir)
    plain = Runner(cli, workdir)
    plain.run_cycles(lambda c: make_cycle(c, "run"), TRACE_TASKS)
    tracer = spans.Tracer()
    gc.collect()
    with tracer.installed(shiftmaxent):
        traced_run = Runner(cli, workdir, tracer)
        traced_run.run_cycles(lambda c: make_cycle(c, "run"), TRACE_TASKS)
    trace = WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace)
    off = plain.attempted / plain.task_seconds
    on = traced_run.attempted / traced_run.task_seconds
    metrics = tracer.layer_metrics(traced_run.attempted, traced_run.bytes_out)
    metrics.update({
        "setup.import_shiftmaxent_s": imp_pkg,
        "setup.import_scipy_s": imp_scipy,
        "trace.tasks": traced_run.attempted,
        "trace.tasks_per_s_off": off,
        "trace.tasks_per_s_on": on,
        "trace.overhead_frac": 1.0 - on / off,
    })
    runs = (warm, plain, traced_run)
    notes = [f"# traced {traced_run.attempted} tasks; spans in {trace.relative_to(ROOT)}"]
    return (metrics, sum(r.attempted for r in runs), sum(r.failed for r in runs),
            [e for r in runs for e in r.errors], notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "shiftmaxent" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)          # before numpy loads OpenBLAS
    shiftmaxent, cli = import_checkout(SRC)
    import tasks

    generate = tasks.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir()

    def make_cycle(cycle, stream):
        return generate(args.seed, cycle, workdir, stream)

    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, errors, notes = measure(
            args, shiftmaxent, cli, make_cycle, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = declared["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section}
    for line in machine_lines(shiftmaxent) + notes:
        print(line)
    for name, entry in report.items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    for error in errors[:20]:
        print(f"# FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
