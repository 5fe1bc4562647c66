"""The repository benchmark: one command, five workloads.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run; the last line of stdout is the result object
        {"correct", "attempted", "failed", "metrics"}.
    python3 perf/run.py [--workload NAME] [--seed N] [--repeat K]
                        [--trace] [--out FILE]
        a study: every selected workload K times (seeds N..N+K-1), each
        run stored (never a best-of); with --trace each untraced run is
        followed by a traced one.  The summary ends with "claim": null —
        this command measures, it claims nothing.

Every phase runs in a fresh interpreter (perf/child.py).  End-to-end
metrics come from untraced runs; per-layer metrics from traced ones.
Exits non-zero when an output check or the hygiene guard fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
# The script's own directory on sys.path would let perf/trace.py shadow
# the standard library's trace module; import it as a package instead.
sys.path[0] = ROOT

from perf import harness  # noqa: E402
from perf.child import WORKLOADS  # noqa: E402

#: A run measures in this many fresh interpreters, each with a cold
#: native-code cache, and reports the median of their values — set-up
#: time included.
MEASURE_SAMPLES = 3
#: A traced run first measures untraced for this share of --seconds, to
#: state the tracing overhead against the same process layout.
UNTRACED_SHARE = 0.35
CHILD_TIMEOUT = 150.0
RSS_PERIOD = 0.2


# -- process tree -----------------------------------------------------------
def _proc_table() -> dict:
    """pid -> (ppid, start time) for every live process.  Zombies are
    left out: an orphan that has exited stays visible until the
    container's init reaps it, which can take seconds."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            table[int(entry)] = (int(fields[1]), fields[19])
    return table


def _descendants(root: int, table: dict) -> list:
    children = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            out.append(child)
            frontier.append(child)
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeWatcher(threading.Thread):
    """Samples the child's process tree: peak summed RSS, and every
    descendant ever seen (pid + start time) for the leak check."""

    def __init__(self, root: int):
        super().__init__(daemon=True, name="perf-tree-watcher")
        self.root = root
        self.peak_kb = 0
        self.seen = {}
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            table = _proc_table()
            pids = [self.root] + _descendants(self.root, table)
            for pid in pids[1:]:
                if pid in table:
                    self.seen[pid] = table[pid][1]
            self.peak_kb = max(self.peak_kb, sum(_rss_kb(p) for p in pids))
            self._halt.wait(RSS_PERIOD)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def survivors(self, grace: float = 3.0) -> list:
        """Descendants still alive after the child has exited; they are
        named, then killed, so the benchmark leaves nothing running."""
        deadline = time.monotonic() + grace
        while True:
            table = _proc_table()
            alive = [pid for pid, started in self.seen.items()
                     if table.get(pid, (None, None))[1] == started]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        names = []
        for pid in alive:
            try:
                with open(f"/proc/{pid}/cmdline") as fh:
                    cmd = fh.read().replace("\0", " ").strip()
            except OSError:
                cmd = "?"
            names.append(f"process {pid} ({cmd[:80]})")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return names


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# -- one child phase --------------------------------------------------------
class PhaseFailed(RuntimeError):
    pass


def run_phase(workload: str, mode: str, seed: int, seconds: float,
              scratch: str, tag: str, trace_file: str = None) -> dict:
    """Run one phase of ``workload`` in a fresh interpreter and apply the
    hygiene guard after it exits.  Returns the child's result with
    ``peak_rss_mb`` and ``leaks`` added."""
    phase_dir = os.path.join(scratch, tag)
    os.makedirs(phase_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [harness.SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    # A fresh cache directory: the C build of optimize="native" plans is
    # always cold, so set-up time never depends on an earlier run.
    env["REPRO_NATIVE_CACHE"] = os.path.join(phase_dir, "native")
    env["TMPDIR"] = phase_dir
    result_path = os.path.join(phase_dir, "result.json")
    cmd = [sys.executable, "-m", "perf.child", "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", repr(seconds),
           "--result", result_path]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    shm_before = _shm_entries()
    with open(os.path.join(phase_dir, "stdout"), "w+") as out, \
            open(os.path.join(phase_dir, "stderr"), "w+") as err:
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(time.time())], cwd=ROOT, env=env,
            stdout=out, stderr=err, start_new_session=True)
        watcher = TreeWatcher(proc.pid)
        watcher.start()
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        watcher.stop()
        leaks = watcher.survivors()
        err.seek(0)
        stderr_text = err.read()
        out.seek(0)
        stdout_text = out.read()
    # Python names its shared-memory blocks psm_*; anything else that
    # appeared in /dev/shm meanwhile is not this benchmark's.
    leaks += [f"/dev/shm/{name}" for name in
              sorted(_shm_entries() - shm_before) if name.startswith("psm_")]
    for name in leaks:
        if name.startswith("/dev/shm/"):
            try:
                os.unlink(name)
            except OSError:
                pass
    if "resource_tracker" in stderr_text:
        leaks.append("resource_tracker warning on stderr")
    if timed_out or proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(stdout_text)
        sys.stderr.write(stderr_text)
        raise PhaseFailed(
            f"{workload}/{mode}: child "
            + (f"timed out after {CHILD_TIMEOUT:.0f}s" if timed_out
               else f"exited with code {proc.returncode}"))
    with open(result_path) as fh:
        result = json.load(fh)
    leaks += [f"thread {name}" for name in result.pop("stragglers")]
    result["leaks"] = leaks
    result["peak_rss_mb"] = watcher.peak_kb / 1024.0
    return result


# -- one run ----------------------------------------------------------------
def _finish(record: dict, phases: list, checks: dict) -> dict:
    """Fold output checks and the hygiene guard into the run's failure
    accounting: each failed check and each leak is one failed operation."""
    leaks = [leak for phase in phases for leak in phase["leaks"]]
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    record["attempted"] += len(checks) + len(phases)
    record["failed"] += len(failed_checks) + len(leaks)
    record["correct"] = record["failed"] == 0
    record["failed_checks"] = failed_checks
    record["leaks"] = leaks
    return record


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             declaration: dict) -> dict:
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    scratch = os.path.join(harness.OUT_DIR,
                           f"tmp-{os.getpid()}-{time.time_ns()}")
    os.makedirs(scratch)
    t_start = time.perf_counter()
    try:
        if trace:
            record = _run_traced(workload, seed, seconds, scratch,
                                 declaration)
        else:
            record = _run_untraced(workload, seed, seconds, scratch,
                                   declaration)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(workload=workload, seed=seed, trace=int(trace),
                  seconds=seconds, wall_s=time.perf_counter() - t_start)
    return record


def _run_untraced(workload, seed, seconds, scratch, declaration) -> dict:
    # Fresh processes of one program settle into different speeds (one in
    # four ran ~15 % faster on serve_batch), which no amount of time in
    # one process averages out: --seconds is split over several fresh
    # interpreters and every metric is the median of their values.
    share = seconds / MEASURE_SAMPLES
    phases = [run_phase(workload, "measure", seed, share, scratch,
                        f"measure{i}") for i in range(MEASURE_SAMPLES)]
    samples = {name: [p["metrics"][name] for p in phases]
               for name in phases[0]["metrics"]}
    samples["setup_s"] = [p["setup_s"] for p in phases]
    samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in phases]
    values = {name: statistics.median(v) for name, v in samples.items()}
    # The tail is taken over the latencies of all processes together,
    # which supports a higher percentile than any one of them would.
    pooled = [ms for p in phases for ms in p["latency_ms"]]
    values["latency_tail_ms"], tail_is = harness.pooled_tail(
        pooled, phases[0]["designed_tail"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declaration["end_to_end"]}
    record = {"metrics": metrics, "samples": samples,
              "tail_is": tail_is, "latency_samples": len(pooled),
              "info": [p["info"] for p in phases],
              "attempted": sum(p["attempted"] for p in phases),
              "failed": sum(p["failed"] for p in phases)}
    checks = {name: all(p["checks"][name] for p in phases)
              for name in phases[0]["checks"]}
    return _finish(record, phases, checks)


def _run_traced(workload, seed, seconds, scratch, declaration) -> dict:
    trace_file = os.path.join(harness.OUT_DIR,
                              f"trace-{workload}-seed{seed}.json")
    plain = run_phase(workload, "measure", seed, seconds * UNTRACED_SHARE,
                      scratch, "untraced")
    traced = run_phase(workload, "trace", seed, seconds, scratch, "traced",
                       trace_file=trace_file)
    phases = [plain, traced]
    record = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "trace_file": os.path.relpath(trace_file, ROOT)}
    checks = {f"untraced.{k}": v for k, v in plain["checks"].items()}
    checks.update(traced["checks"])
    _finish(record, phases, checks)
    layers = dict(traced["layers"])
    layers["harness.trace_overhead_fraction"] = (
        1.0 - traced["traced_throughput_per_s"]
        / plain["metrics"]["throughput_per_s"])
    layers["harness.failed_fraction"] = \
        record["failed"] / record["attempted"]
    layers["harness.peak_rss_mb"] = traced["peak_rss_mb"]
    declared = {m["name"]: m["unit"] for m in declaration["per_layer"]}
    undeclared = sorted(set(layers) - set(declared))
    if undeclared:
        raise PhaseFailed(f"{workload}: per-layer metrics not declared in "
                          f"BENCHMARK.json: {undeclared}")
    # A layer that is not on this workload's path reports 0: the
    # predicted-flat rows of perf/README.md.
    record["metrics"] = {name: {"value": layers.get(name, 0.0), "unit": unit}
                         for name, unit in declared.items()}
    return record


# -- reporting --------------------------------------------------------------
def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {kind}  "
          f"({record['wall_s']:.1f}s wall) ==")
    for name, metric in record["metrics"].items():
        if record["trace"] and metric["value"] == 0:
            continue
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for name, values in record.get("samples", {}).items():
        print(f"  ({name} per process: "
              f"{', '.join(f'{v:.5g}' for v in values)})")
    if "tail_is" in record:
        print(f"  (latency_tail_ms is {record['tail_is']} of "
              f"{record['latency_samples']} samples)")
    for key in record["info"][0] if record.get("info") else ():
        values = [str(info[key]) for info in record["info"]]
        print(f"  ({key}: {', '.join(sorted(set(values), key=values.index))})")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for name in record["failed_checks"]:
        print(f"  FAILED CHECK: {name}")
    for name in record["leaks"]:
        print(f"  LEAK: {name}")


def summarize(records: list) -> dict:
    """Median and quartiles per (workload, end-to-end metric) over the
    untraced runs of a study."""
    table = {}
    for record in records:
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            table.setdefault(record["workload"], {}).setdefault(
                name, []).append(metric["value"])
    summary = {}
    for workload, metrics in table.items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, q2, q3 = harness.quartiles(values)
            summary[workload][name] = {
                "n": len(values), "median": q2, "q1": q1, "q3": q3,
                "spread_share": harness.spread_share(values)
                if len(values) > 1 else None}
    return summary


def main() -> int:
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print("perf/run.py: src/repro not found next to perf/ — nothing "
              "to benchmark", file=sys.stderr)
        return 2
    declaration = harness.load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(declaration["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    single = args.workload is not None and args.repeat == 1 \
        and args.out is None
    if single:
        record = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace), declaration)
        print_record(record)
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1

    study = {"fingerprint": harness.fingerprint(),
             "run_seconds": args.seconds, "runs": []}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for repeat in range(args.repeat):
        for workload in workloads:
            for trace in ([False, True] if args.trace else [False]):
                record = run_once(workload, args.seed + repeat, args.seconds,
                                  trace, declaration)
                print_record(record)
                study["runs"].append(record)
    study["summary"] = summarize(study["runs"])
    study["correct"] = all(r["correct"] for r in study["runs"])
    study["claim"] = None
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(study, fh, indent=1)
    print(json.dumps({"summary": study["summary"],
                      "correct": study["correct"], "claim": None}))
    return 0 if study["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PhaseFailed as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        sys.exit(3)
