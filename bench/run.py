"""End-to-end and per-module benchmark of the ``tropifs`` CLI.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client drives the CLI in a
closed loop: a session (all of the workload's invocations, one process at a
time, each single-threaded) starts only after the previous one ended, until
the next session would overrun ``--seconds``.  Every session's outputs are
checked outside the timed region.

``--trace 0`` prints the end-to-end metrics: medians over sessions of the
session wall time (spawn to exit, summed), the in-process time of
``tropifs.cli.main`` and the largest max-RSS of an invocation, the median
time from spawn until ``tropifs.cli`` is imported, and the share of
invocations that exited 0 with correct outputs.  Set-up time comes only from
import-only spawns, one before every invocation, so its samples are spread
over the run like the invocations are.

``--trace 1`` runs one memory-traced session, then pairs of an untraced and
a span-traced session, alternating which goes first (at least ``MIN_PAIRS``,
more if ``--seconds`` allows).  It prints the per-module metrics of the
traced sessions (see ``tracer.py``) and the tracing overhead: the median
over pairs of traced minus untraced ``compute``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outputs
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_run")
#: Untraced/traced session pairs a --trace 1 run makes at least, however
#: long they take, so that the tracing overhead rests on more than one pair.
MIN_PAIRS = 3
#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


class Runner:
    """Spawns the CLI and keeps the samples of one benchmark run."""

    def __init__(self, limit_at: float):
        self.limit_at = limit_at
        self.env = {k: v for k, v in os.environ.items() if k != "TROPIFS_THREADS"}
        self.env["PYTHONPATH"] = str(Path("src").resolve())
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def spawn(self, record: Path, mode: str, argv=()) -> dict:
        """One child process; returns its timings, exit code and max RSS."""
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(record), mode, *argv]
        with open(record.with_suffix(".log"), "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=log)
            watchdog = threading.Timer(max(self.limit_at - start, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"code": proc.returncode, "wall": end - start, "rss_mib": usage.ru_maxrss / 1024}
        if proc.returncode == 0 and record.is_file():
            rec = json.loads(record.read_text())
            result["setup"] = rec["imported"] - start
            result["compute"] = rec.get("end", 0.0) - rec.get("start", 0.0)
            result["trace"] = rec.get("trace")
        return result

    def setup_time(self, record: Path) -> float:
        """Seconds from spawn until ``tropifs.cli`` is imported, in a child that only imports."""
        probe = self.spawn(record, "import")
        if probe["code"] != 0:
            raise RuntimeError(f"importing tropifs.cli failed (see {record.with_suffix('.log')})")
        return probe["setup"]

    def session(self, invocations, configs, mode: str, root: Path, setup=None) -> dict:
        """Run every invocation once, then check the outputs.

        With a ``setup`` list, an import-only spawn precedes every invocation
        and its set-up time is appended to the list.
        """
        out_dirs = {inv.name: root / inv.name for inv in invocations}
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        results = []
        for inv, cfg in zip(invocations, configs):
            if setup is not None:
                setup.append(self.setup_time(root / "import.json"))
            argv = [inv.command, "--config", str(cfg), "--out", str(out_dirs[inv.name])]
            results.append(self.spawn(root / f"{inv.name}.record.json", mode, argv))
        ok = self.check(invocations, out_dirs, [r["code"] for r in results])
        return {
            "wall": sum(r["wall"] for r in results),
            "compute": sum(r.get("compute", 0.0) for r in results),
            "rss_mib": max(r["rss_mib"] for r in results),
            "traces": [r.get("trace") for r in results],
            "digests": outputs.digests({k: v for k, v in out_dirs.items() if v.is_dir()}),
            "ok": ok,
        }

    def check(self, invocations, out_dirs: dict, codes) -> bool:
        """Count the session's invocations; those that exited non-zero or wrote
        wrong outputs count as failed.  True when none failed."""
        self.attempted += len(invocations)
        errors = {inv.name: [f"exit code {code}"]
                  for inv, code in zip(invocations, codes) if code}
        if not errors:
            errors = outputs.check_session(invocations, out_dirs)
        self.failed += len(errors)
        self.errors += [f"{name}: {e}" for name, found in errors.items() for e in found]
        return not errors


def per_layer(by_mode: dict) -> dict:
    """Medians over traced sessions of each per-module metric.

    Self times, calls and counts come from the ``trace`` sessions, peaks
    from the ``memory`` sessions.
    """

    def session_totals(s) -> dict:
        total = tracer.summarize(tracer.Tracer().dump())
        for dump in filter(None, s["traces"]):
            tracer.combine(total, tracer.summarize(dump))
        return total

    timed = [session_totals(s) for s in by_mode["trace"]]
    peaks = [session_totals(s) for s in by_mode["memory"]]
    metrics = {}
    for key in timed[0]:
        source = peaks if key.endswith(".peak_mib") else timed
        metrics[key] = statistics.median(t[key] for t in source)
    builds = metrics["invariant.build_invariant.calls"]
    metrics["invariant.distinct_ratio"] = metrics["invariant.densities"] / builds if builds else 0.0
    metrics["trace.coverage"] = statistics.median(
        t["covered_s"] / t["root_s"] if t["root_s"] else 0.0 for t in timed)
    metrics["trace.overhead_s"] = statistics.median(
        t["compute"] - r["compute"] for r, t in zip(by_mode["run"], by_mode["trace"]))
    del metrics["root_s"], metrics["covered_s"]
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/tropifs/cli.py").is_file():
        print("bench: no src/tropifs here; run from the root of a tropifs checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    runner = Runner(limit_at=started + RUN_LIMIT_S)
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    invocations = workloads.session(args.workload, args.seed)
    configs = workloads.write_configs(invocations, work / "configs")

    probe = work / "import.json"
    try:
        runner.setup_time(probe)  # warm-up, not counted; fails early if the import fails
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        modes = ("memory", "run", "trace")
        plan = itertools.chain(["memory"], itertools.cycle(["run", "trace", "trace", "run"]))
    else:
        modes = ("run",)
        plan = itertools.repeat("run")
    by_mode = {mode: [] for mode in modes}
    setup = []
    loop_start = time.monotonic()
    while True:
        begin = time.monotonic()
        mode = next(plan)
        by_mode[mode].append(runner.session(
            invocations, configs, mode, work / "out", None if args.trace else setup))
        now = time.monotonic()
        took = now - begin
        pairs = len(by_mode.get("trace", by_mode["run"]))
        enough = pairs >= (MIN_PAIRS if args.trace else 1) and len(by_mode["run"]) == pairs
        if enough and now - loop_start + took > args.seconds:
            break
        if now + took > runner.limit_at:
            break
    shutil.rmtree(work / "out", ignore_errors=True)

    # Outputs are deterministic: every correct session must match the first.
    correct = [s for mode in modes for s in by_mode[mode] if s["ok"]]
    reference = correct[0]["digests"] if correct else {}
    for s in correct[1:]:
        differ = {k.split("/")[0] for k in reference.keys() | s["digests"].keys()
                  if reference.get(k) != s["digests"].get(k)}
        runner.failed += len(differ)
        runner.errors += [f"{name}: outputs differ between sessions" for name in sorted(differ)]
    for key, digest in reference.items():
        print(f"sha256 {digest}  {key}")
    for error in runner.errors:
        print(f"FAILED {error}")

    untraced = by_mode["run"]
    if args.trace:
        metrics = per_layer(by_mode)
    else:
        metrics = {
            "session_s": statistics.median(s["wall"] for s in untraced),
            "compute_s": statistics.median(s["compute"] for s in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(s["rss_mib"] for s in untraced),
            "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        }
    counts = ", ".join(f"{len(v)} {k}" for k, v in by_mode.items())
    print(f"workload {args.workload} seed {args.seed}: sessions {counts}; "
          f"{runner.attempted} invocations, "
          f"failed_ratio {runner.failed / runner.attempted:.4f}, "
          f"{time.monotonic() - started:.1f} s")
    print("session walls (s): " + " ".join(f"{s['wall']:.3f}" for s in untraced))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
