"""semiflow-lab benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload hardy-verdict --seed 0 --seconds 25 --trace 0

Runs one workload in this process, closed loop, one task at a time, with
numpy's BLAS pools capped at one thread.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it carries run facts (machine,
src line count, per-task times, the ROADMAP baseline comparison).  Run
artefacts go to perfbench/.out/.  See perfbench/README.md for the workloads
and metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
SETUP_REPEATS = 5
# ROADMAP "Baseline profile": single verdict times in seconds.
BASELINE_VERDICT_S = {
    ("hardy:2", "dilation/coboundary:z"): 3.6,
    ("bergman:2:0", "dilation/coboundary:z"): 13.2,
    ("hardy:2", "attraction/derivative"): 5.5,
    ("bergman:2:0", "attraction/derivative"): 27.3,
    ("hardy:2", "rotation:1/coboundary:z"): 4.0,
    ("bergman:2:0", "rotation:1/coboundary:z"): 13.2,
    ("hardy:2", "dilation/exp-growth"): 2.5,
    ("bergman:2:0", "dilation/exp-growth"): 12.2,
}
BASELINE_AGREEMENT = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description="semiflow-lab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("hardy-verdict", "bergman-verdict", "generator-verdict",
                                 "sections-recovery"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import semiflow_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "semiflow_lab" / "__init__.py").is_file():
        raise RuntimeError(f"no semiflow_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semiflow_lab
    if Path(semiflow_lab.__file__).resolve().parent != (SRC / "semiflow_lab").resolve():
        raise RuntimeError(f"semiflow_lab imported from {semiflow_lab.__file__}, not {SRC}")


class Outcome:
    """Attempt and failure bookkeeping across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = []

    def record(self, task, problem):
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        entry = f"{task.name}: {problem}"
        if task.known_defect and task.known_defect in problem:
            if entry not in self.known:
                self.known.append(entry)
        else:
            self.unexpected.append(entry)


def execute(task, outcome, tracer=None):
    """Run one task; returns (wall, cpu).  The check is untimed and untraced."""
    if tracer is not None:
        tracer.enabled = True
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result, problem = task.run(), None
    except Exception as exc:  # a task boundary: record the failure and go on
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.enabled = False
    if problem is None:
        try:
            problem = task.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    outcome.record(task, problem)
    return wall, cpu


def run_pass(workload, outcome, tracer=None):
    """One pass of the fixed task list, then the untimed probes."""
    walls, cpus = [], []
    for i, task in enumerate(workload.tasks):
        if tracer is not None:
            tracer.task_id = i
        wall, cpu = execute(task, outcome, tracer)
        walls.append(wall)
        cpus.append(cpu)
    for probe in workload.probes:
        execute(probe, outcome)
    return walls, cpus


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def baseline_check(task_times: dict) -> list:
    rows = []
    for name, seconds in task_times.items():
        parts = name.split()
        if parts[0] != "verdict" or len(parts) != 3:
            continue
        key = (parts[2], parts[1])
        if key in BASELINE_VERDICT_S:
            base = BASELINE_VERDICT_S[key]
            ratio = seconds / base
            rows.append({"space": key[0], "pair": key[1], "measured_s": seconds,
                         "baseline_s": base, "ratio": ratio,
                         "agrees": abs(ratio - 1.0) <= BASELINE_AGREEMENT})
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    import micro
    import spans
    import tasks
    import_s = time.perf_counter() - _T_START

    ref = tasks.load_reference()
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outcome = Outcome()
    setup_samples = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = tasks.build(args.workload, run_dir / f"setup{k}", args.seed, ref)
        execute(workload.warmup, Outcome())
        setup_samples.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_samples)

    passes = []
    loop_start = time.perf_counter()
    # In a traced run leave room for the traced pass (slower) and the micro rows.
    reserve = 2.5 if args.trace else 1.0
    while True:
        passes.append(run_pass(workload, outcome))
        elapsed = time.perf_counter() - loop_start
        if elapsed + reserve * elapsed / len(passes) > args.seconds:
            break

    pass_walls = [sum(w) for w, _ in passes]
    wall_s = statistics.median(pass_walls)
    task_times = {task.name: statistics.median(w[i] for w, _ in passes)
                  for i, task in enumerate(workload.tasks)}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_walls, _ = run_pass(workload, outcome, tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(traced_walls)
        rows = tracer.layer_metrics()
        self_sum, _ = rows.pop("_self_sum_s")
        rows.update(micro.micro_rows())
        rows["trace.overhead_frac"] = ((traced_wall - wall_s) / wall_s, "frac")
        rows["trace.unattributed_frac"] = ((traced_wall - self_sum) / traced_wall, "frac")
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(sum(c) for _, c in passes), "unit": "s"},
            "task_s.max": {"value": statistics.median(max(w) for w, _ in passes), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": (outcome.attempted - outcome.failed) / outcome.attempted,
                        "unit": "frac"},
        }

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs": workload.inputs, "passes": len(passes), "pass_wall_s": pass_walls,
            "setup_samples_s": setup_samples, "import_s": import_s,
            "task_wall_s": task_times, "known_defects": outcome.known,
            "unexpected_failures": outcome.unexpected, "machine": machine_facts(),
            "src_lines": src_line_count(), "baseline_check": baseline_check(task_times)}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not outcome.unexpected, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
