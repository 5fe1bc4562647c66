"""One workload phase in a fresh interpreter (``python -m perf.child``).

The runner starts this module for every measured or traced phase;
in-process order effects of 15-30 % were seen when workloads shared an
interpreter.  The result goes to
``--result`` as JSON; stdout and stderr belong to the workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import threading
import time

WORKLOADS = ("apex_thread", "impala_process", "learner_group",
             "serve_http", "serve_batch")
MODES = ("measure", "trace")


def _stragglers(before: set) -> list:
    """Threads the workload started that outlive its teardown."""
    deadline = time.monotonic() + 5.0
    while True:
        alive = [t.name for t in threading.enumerate()
                 if t.ident not in before and t.is_alive()
                 and t is not threading.current_thread()]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.02)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the runner just before spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    threads_before = {t.ident for t in threading.enumerate()}
    workload = importlib.import_module(f"perf.workloads.{args.workload}")
    tracer = None
    if args.mode == "trace":
        from perf.trace import Tracer
        tracer = Tracer()
    ctx = workload.setup(args.seed, args.seconds, tracer)
    # Interpreter start -> ready: imports, agents built and compiled,
    # actors or the serving child spawned, first act and first update
    # (or first HTTP 200) done.
    out = {"setup_s": time.time() - args.spawned_at}
    try:
        if args.mode == "measure":
            out.update(workload.measure(ctx, args.seconds))
        elif args.mode == "trace":
            out.update(workload.trace(ctx, args.seconds))
    finally:
        workload.teardown(ctx)
    out["stragglers"] = _stragglers(threads_before)
    if args.mode == "trace" and args.trace_file:
        from perf.trace import write_chrome
        write_chrome(args.trace_file, ctx.tracers)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
