"""Benchmark runner for the fault-injection campaign and the detection service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-sweep --seed 5 --seconds 30 --trace 0

Workloads (see perfbench/README.md for the method):

* ``campaign-sweep``   -- engine campaign at --jobs nproc with a journal, an
  artifact store, examples/mixed.yaml and --recover ladder, alternating
  cold-store and warm-store passes;
* ``serve``            -- the detection daemon's loop over a 200 x 8 fleet;
* ``campaign-default`` -- serial campaign at the CLI defaults (runnable by
  hand; not in BENCHMARK.json, see README.md).

A measured run (``--trace 0``) sets up three times; after each set-up it
repeats the workload's round for a third of ``--seconds``, and it reports the
median set-up and the median round.  A traced run (``--trace 1``) sets up once,
alternates untraced and traced rounds for ``--seconds`` and prints the
per-layer table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
On every way out the run stops the processes it started and waits for them.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups per measured run; each is followed by a third of ``--seconds``.
SETUP_REPS = 3
#: prctl option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-default", "campaign-sweep", "serve"))
    parser.add_argument("--seed", type=int, default=5,
                        help="workload seed (5 is the one pinned in reference.json)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend repeating rounds after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="campaign-sweep worker processes (default and "
                             "maximum: nproc)")
    return parser.parse_args(argv)


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me = str(os.getpid())
    found = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            found.append(int(entry.name))
    return found


def become_subreaper() -> None:
    """Adopt this run's orphaned descendants, so stop_children reaps them too."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Shared-memory golden segments start multiprocessing's resource tracker,
    which by design outlives its parent: it ends only when the parent's end
    of its pipe closes, and it ignores SIGTERM.  That pipe is closed here and
    the tracker waited for.  Any other child still there (pool workers are
    joined by the engine, so normally none) gets ``grace`` seconds to end and
    is then killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    while pids := child_pids():
        for pid in pids:
            if time.monotonic() >= deadline:
                print(f"perfbench: killing left-over child process {pid}", file=sys.stderr)
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0 if time.monotonic() >= deadline else os.WNOHANG)
        time.sleep(0.02)


def _terminate(signum, frame):
    """SIGTERM ends the run through the normal clean-up path."""
    raise SystemExit(128 + signum)


class RssSampler(threading.Thread):
    """Peak resident memory of this process plus its live children."""

    def __init__(self, interval: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.interval = interval
        self.peak = 0
        self._halt = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                return int(fh.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def sample(self) -> None:
        total = self._rss(os.getpid()) + sum(self._rss(p) for p in child_pids())
        self.peak = max(self.peak, total)

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.sample()

    def stop(self) -> int:
        """Stop sampling; the peak includes this process's own high-water mark."""
        self._halt.set()
        if self.is_alive():
            self.join()
        self.sample()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self.peak = max(self.peak, own)
        return self.peak


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others while this host's vCPUs wanted it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_record(jobs: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "start_method": multiprocessing.get_start_method(),
        "jobs": jobs,
    }


def import_seconds(reps: int) -> list[float]:
    """Wall time of fresh interpreters importing the benchmark's modules."""
    code = "import sys; sys.path[:0] = ['src', '.']; import perfbench.workloads"
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - started)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    jobs = nproc() if args.jobs is None else args.jobs
    if args.workload != "campaign-sweep":
        jobs = 1
    elif not 1 <= jobs <= nproc():
        print(f"perfbench: --jobs {jobs} outside [1, nproc={nproc()}]", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    sampler = RssSampler()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, jobs, sampler, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        sampler.stop()
        stop_children()


def _run(args, jobs: int, sampler: RssSampler, workdir: Path) -> int:
    from perfbench import workloads
    from perfbench.layers import check_repeats, per_layer
    from perfbench.spans import Tracer, TraceError

    in_process_import = time.perf_counter() - STARTED
    steal_at_start = steal_seconds()
    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](
        seed=args.seed, jobs=jobs, workdir=workdir, tracer=tracer
    )
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(jobs),
        "training_scale": workloads.TRAIN_SCALE,
        "training_jobs": {"campaign-default": workloads.TRAIN_JOBS,
                          "campaign-sweep": jobs}.get(args.workload),
        "serve_model_digest": workloads.file_digest(workloads.SERVE_MODEL),
    }
    rounds: list[list] = []
    try:
        reps = 1 if args.trace else SETUP_REPS
        imports = import_seconds(reps)
        # Started after the import probes: their interpreters are the
        # benchmark's, not part of the program's process tree.
        sampler.start()
        setups, digests = [], set()
        expected = workloads.REFERENCE["setup_digests"][args.workload]
        record["setup"] = {"in_process_import_s": in_process_import,
                           "import_s": imports, "setup_s": setups}
        # Each set-up repetition is followed by its share of the measured
        # time, so the passes sample the whole run rather than one stretch
        # of the host's slow drift (see README.md, "Host drift").
        for _ in range(reps):
            started = time.perf_counter()
            digests.add(workload.setup())
            setups.append(time.perf_counter() - started)
            if digests != {expected}:
                raise workloads.CheckFailed(
                    f"set-up produced {sorted(digests)}, expected {expected}")
            window_end = time.perf_counter() + args.seconds / reps
            first = len(rounds)
            while True:
                traced = bool(args.trace) and (len(rounds) - first) % 2 == 1
                rounds.append(workload.round(traced))
                kinds = {p.traced for r in rounds[first:] for p in r}
                if kinds >= {False, bool(args.trace)} and time.perf_counter() >= window_end:
                    break
        peak = sampler.stop()
        record["host"]["steal_s"] = steal_seconds() - steal_at_start
        workload.final_checks()
        if args.trace:
            check_repeats(rounds)
    except (workloads.CheckFailed, TraceError) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        attempted, failed = _counts(rounds)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    attempted, failed = _counts(rounds)
    record["passes"] = [
        {"round": i, "kind": p.kind, "traced": p.traced, "seconds": p.seconds,
         "items": p.items, "failed": p.failed, **p.extra}
        for i, r in enumerate(rounds) for p in r
    ]
    setup_s = statistics.median(imports) + statistics.median(setups)
    report = _report(workload, rounds, record, setup_s, peak)
    if args.trace:
        table, metrics = per_layer(rounds, tracer, record)
        report.append(table)
        _write_spans(tracer, args)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": statistics.median(
                sum(p.items for p in r) / sum(p.seconds for p in r) for r in rounds),
                "unit": "1/s"},
            "peak_rss_mb": {"value": peak / 2**20, "unit": "MB"},
        }
    record["metrics"] = metrics
    print("\n".join(report))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _counts(rounds) -> tuple[int, int]:
    passes = [p for r in rounds for p in r]
    return sum(p.items + p.failed for p in passes), sum(p.failed for p in passes)


def _report(workload, rounds, record, setup_s: float, peak: int) -> list[str]:
    """The human-readable block: host, per-pass values, headline metrics."""
    host = record["host"]
    setup = record["setup"]
    lines = [
        f"workload {workload.name}  seed {record['seed']}  jobs {host['jobs']}  "
        f"training scale {record['training_scale']} (jobs {record['training_jobs']})  "
        f"serve model {record['serve_model_digest']}",
        f"host: nproc {host['nproc']}  cpu {host['cpu_model']!r}  python {host['python']}  "
        f"{host['platform']}  start method {host['start_method']}  "
        f"steal {host['steal_s']:.2f} s",
        "set-up: imports " + " ".join(f"{t:.3f}" for t in setup["import_s"])
        + " s; set-up " + " ".join(f"{t:.3f}" for t in setup["setup_s"]) + " s",
    ]
    by_kind: dict[str, list[float]] = {}
    for p in (p for r in rounds for p in r):
        if not p.traced:
            by_kind.setdefault(p.kind, []).append(p.items / p.seconds)
    unit = f"{workload.unit}/s"
    names = {"live": "cold_trials_per_s", "cold": "cold_trials_per_s",
             "warm": "warm_trials_per_s", "serve": "rows_per_s"}
    attempted, failed = _counts(rounds)
    lines.append(f"{'metric':<20} {'median':>12}  {'unit':<9} per pass")
    lines.append(f"{'setup_s':<20} {setup_s:>12.3f}  {'s':<9}")
    for kind, rates in by_kind.items():
        per_pass = " ".join(f"{r:.1f}" for r in rates)
        lines.append(f"{names[kind]:<20} {statistics.median(rates):>12.1f}  {unit:<9} {per_pass}")
    lines.append(f"{'peak_rss_mb':<20} {peak / 2**20:>12.1f}  {'MB':<9}")
    lines.append(f"{'failed_share':<20} {failed / max(1, attempted):>12.4f}  {'fraction':<9}")
    return lines


def _write_spans(tracer, args) -> None:
    """Spans are kept in memory during the run and written out at its end."""
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "pass"],
        "coordinator": tracer.spans,
        "workers": [{"pid": pid, "spans": spans} for pid, spans in tracer.worker_chunks],
    }))


if __name__ == "__main__":
    sys.exit(main())
