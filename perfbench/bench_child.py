"""Child interpreter of the benchmark: runs one task at a time on request.

Protocol, one JSON object per line.  The parent sends
{"tasks": [...], "trace": bool, "spans": path or null}; the child imports
qperiods, builds every task's inputs, optionally installs the tracer and
answers {"ready": true}.  Then for each {"run": i} it answers
{"time": s, "result": ...} or {"time": s, "error": "..."}, and on
{"finish": true} it writes the spans (when traced), answers
{"metrics": {...} or null} and exits.

Library output cannot corrupt the protocol: the protocol uses a duplicate of
the original stdout, and sys.stdout is pointed at stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter


def materialize(task):
    """The qperiods objects a task runs on, built from its JSON inputs."""
    from qperiods.localfield import make_field
    from qperiods.qform import DiagonalForm
    if task["kind"] != "count":
        return None
    field = make_field(**task["field"])
    units = [field.elt(*u) for u in task["units"]]
    coeffs = [field.elt(*c) * u * u for c, u in zip(task["coeffs"], units)]
    v = field.elt(*task["target_unit"])
    B = DiagonalForm(field, coeffs, task["planes"])
    return B, v * v


def execute(task, inputs):
    """Run one task; returns a JSON-serializable result.  Library functions
    are looked up at call time, so a traced run sees the wrappers."""
    from qperiods import cli, counting, periods
    from bench_tasks import frac_to_hex
    kind = task["kind"]
    if kind == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--json"])
        obj = json.loads(buf.getvalue())
        return {"code": code, "pass": obj["pass"],
                "names": [c["name"] for c in obj["checks"]]}
    if kind == "count":
        B, rho = inputs
        return str(counting.count_level_histogram(B, rho, task["ell"]))
    if kind == "row":
        return {"pass": periods.verify_table_row(task["n"])["pass"]}
    if kind == "period":
        pv = periods.evaluate_period(task["n"], task["alpha"], task["p_max"])
        return {"value": frac_to_hex(pv.value), "tail": frac_to_hex(pv.tail_bound)}
    raise ValueError("unknown task kind %r" % (kind,))


def main():
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def send(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    hello = json.loads(sys.stdin.readline())
    tasks = hello["tasks"]
    import qperiods.cli  # noqa: F401  (loads every layer)
    inputs = [materialize(t) for t in tasks]
    tracer = None
    if hello["trace"]:
        from bench_trace import Tracer
        tracer = Tracer()
        tracer.install()
    send({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if "run" in cmd:
            i = cmd["run"]
            if tracer:
                tracer.task = i
            t0 = perf_counter()
            try:
                result = execute(tasks[i], inputs[i])
            except Exception as ex:  # a failed task is reported, not fatal
                send({"time": perf_counter() - t0,
                      "error": "%s: %s" % (type(ex).__name__, ex)})
                continue
            elapsed = perf_counter() - t0
            send({"time": elapsed, "result": result})
        elif cmd.get("finish"):
            metrics = None
            if tracer:
                tracer.uninstall()
                metrics = tracer.metrics()
                if hello["spans"]:
                    tracer.write_spans(hello["spans"])
            send({"metrics": metrics})
            return


if __name__ == "__main__":
    main()
