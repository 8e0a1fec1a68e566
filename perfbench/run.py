"""The qperiods benchmark: one workload per invocation, every answer checked.

    python3 perfbench/run.py --workload verify|deep-count|periods|cliffs \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  Each pass of the workload's task list runs in one fresh
child interpreter (a closed loop with one client: the next task is sent
when the previous one has answered), so caches start cold as they do for
every CLI invocation.  Passes repeat while another one fits in --seconds.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench_tasks
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "bench_child.py"

SETUP_TIMEOUT = 120.0
# set-ups measured per run beyond those of the passes, so that setup_s is a
# median of several samples even when only one pass fits
EXTRA_SETUPS = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("task_p50_s", "s"),
              ("task_max_s", "s"), ("peak_rss_mb", "MB"))
UNITS = dict(END_TO_END, fail_ratio="ratio",
             **{name: unit for name, unit, _ in bench_trace.metric_specs()})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class ChildGone(Exception):
    """The child exited or closed its pipe."""


class Child:
    """One child interpreter, spawned and set up; `setup_s` is the time from
    spawn until it is ready for the first task, `rss_kb` its peak RSS once
    it has been reaped."""

    def __init__(self, tasks, trace=False, spans=None):
        threads = str(nproc())
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
        self._buf = b""
        self.rss_kb = 0
        try:
            self.send({"tasks": tasks, "trace": trace,
                       "spans": None if spans is None else str(spans)})
            if self.recv(SETUP_TIMEOUT) is None:
                raise ChildGone("child set-up timed out")
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - t0

    def send(self, obj):
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as ex:
            raise ChildGone("child closed its input") from ex

    def recv(self, timeout):
        """The next message, or None when `timeout` seconds pass first."""
        fd = self.proc.stdout.fileno()
        end = perf_counter() + timeout
        while b"\n" not in self._buf:
            left = end - perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise ChildGone("child exited with code %s" % self.reap())
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def reap(self):
        """Wait for the child; records its peak RSS, returns its exit code."""
        if self.proc.returncode is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb = usage.ru_maxrss
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            # os.kill, not Popen.kill: Popen would reap the child first and
            # lose its resource usage
            os.kill(self.proc.pid, signal.SIGKILL)
        self.reap()
        self.close_pipes()

    def finish(self):
        """Ask the child to exit; returns its last message."""
        self.send({"finish": True})
        msg = self.recv(SETUP_TIMEOUT)
        if msg is None:
            self.kill()
            raise ChildGone("child did not finish")
        self.reap()
        self.close_pipes()
        return msg

    def close_pipes(self):
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_pass(tasks, deadline, trace=False, spans=None):
    """One pass over the task list.  A task that misses its deadline is
    killed with its child and the pass goes on in a fresh child; the
    respawn's set-up is not part of the pass time."""
    child = Child(tasks, trace, spans)
    setup_s = child.setup_s
    children = [child]
    records = []
    respawn_s = 0.0
    metrics = None
    start = perf_counter()
    try:
        for i in range(len(tasks)):
            if child is None:
                child = Child(tasks, trace, spans)
                children.append(child)
                respawn_s += child.setup_s
            t0 = perf_counter()
            try:
                child.send({"run": i})
                msg = child.recv(deadline)
            except ChildGone as ex:
                msg = {"time": perf_counter() - t0, "error": "ChildGone: %s" % ex}
                child.kill()
                child = None
            if msg is None:
                child.kill()
                child = None
                # the time until the kill took effect: the deadline plus a
                # few milliseconds
                msg = {"time": perf_counter() - t0,
                       "error": "deadline of %g s missed" % deadline}
            records.append(msg)
        wall = perf_counter() - start - respawn_s
        if child is not None:
            metrics = child.finish()["metrics"]
            child = None
    finally:
        if child is not None:
            child.kill()
    return {"wall_s": wall, "setup_s": setup_s, "records": records,
            "rss_kb": max(c.rss_kb for c in children), "metrics": metrics}


def check_pass(tasks, result, cache):
    """(failed, wrong) of one pass: errors and missed deadlines fail, and so
    do answers that fail their exact check."""
    failed = wrong = 0
    for task, rec in zip(tasks, result["records"]):
        if "error" in rec:
            failed += 1
            print("FAIL %s: %s" % (task["id"], rec["error"]), file=sys.stderr)
            continue
        ok, detail = bench_tasks.check(task, rec["result"], cache)
        if not ok:
            failed += 1
            wrong += 1
            print("WRONG %s: %s" % (task["id"], detail), file=sys.stderr)
    return failed, wrong


def timed_run(tasks, deadline, seconds):
    """Passes while another fits in `seconds`; end-to-end metrics are medians
    over the passes."""
    setups = []
    for _ in range(EXTRA_SETUPS):
        child = Child(tasks)
        setups.append(child.setup_s)
        child.finish()
    run_start = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(tasks, deadline))
        setups.append(passes[-1]["setup_s"])
        elapsed = perf_counter() - run_start
        if elapsed + elapsed / len(passes) > seconds:
            break
    times = [[r["time"] for r in p["records"]] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "task_p50_s": statistics.median(statistics.median(t) for t in times),
        "task_max_s": statistics.median(max(t) for t in times),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
    }
    info = {"passes": len(passes), "tasks_per_pass": len(tasks),
            "pass_wall_s": [p["wall_s"] for p in passes], "setup_s": setups}
    return passes, metrics, info


def traced_run(tasks, deadline, workload, seed):
    """One untraced pass, then one traced pass; per-layer metrics come from
    the traced child, the overhead is the difference of the pass times."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-%d.jsonl" % (workload, seed))
    plain = run_pass(tasks, deadline)
    traced = run_pass(tasks, deadline, trace=True, spans=spans)
    metrics = dict(traced["metrics"] or {})
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    info = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "spans_file": str(spans.relative_to(ROOT))}
    return [plain, traced], metrics, info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_tasks.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="generates the inputs of deep-count, periods and "
                         "cliffs; verify has no inputs and ignores it")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qperiods" / "__init__.py").is_file():
        print("error: no qperiods sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import qperiods
    if Path(qperiods.__file__).resolve().parent != (SRC / "qperiods").resolve():
        print("error: qperiods was imported from %s" % qperiods.__file__,
              file=sys.stderr)
        return 2

    tasks = bench_tasks.build(args.workload, args.seed)
    deadline = bench_tasks.DEADLINES[args.workload]
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "deadline_s": deadline, "nproc": nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit(), "src_sha256": source_digest()}}))
    try:
        if args.trace:
            passes, metrics, info = traced_run(tasks, deadline, args.workload,
                                               args.seed)
        else:
            passes, metrics, info = timed_run(tasks, deadline, args.seconds)
    except ChildGone as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    cache = {}
    failed = wrong = 0
    for result in passes:
        f, w = check_pass(tasks, result, cache)
        failed += f
        wrong += w
    attempted = len(tasks) * len(passes)
    if failed and not args.trace:
        metrics["fail_ratio"] = failed / attempted
    print(json.dumps({"info": info}))
    for name, value in metrics.items():
        print("%-48s %14.6g %s" % (name, value, UNITS[name]))
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
