"""Benchmark of the fleet campaign engine: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hil-fleet --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one line each

Each sample is one ``run_campaign`` call in a fresh process
(``perfbench/child.py``).  With ``--trace 0`` the run repeats samples for
``--seconds`` and reports the medians of the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced sample.  Every
sample's simulated outcomes are checked against the stored reference; a
sample that differs counts its episodes as failed and its times are
dropped.  The last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Hard limit for one invocation, counted from its start.
DEADLINE_S = 170.0
STARTED = time.monotonic()

END_TO_END = {
    "episodes_per_s": "episodes/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "first_commit_s": "s",
}

PER_LAYER = {
    "drone.step_s": "s",
    "drone.crash_check_s": "s",
    "drone.steps": "count",
    "drone.us_per_step": "us",
    "tinympc.solve_s": "s",
    "tinympc.admm_iterations": "count",
    "tinympc.us_per_slot_iteration": "us",
    "tinympc.dispatches": "count",
    "tinympc.mean_batch_width": "slots",
    "tinympc.slot_copy_s": "s",
    "tinympc.slot_copies": "count",
    "hil.episode.self_s": "s",
    "hil.episode.resumes": "count",
    "fleet.campaign.build_s": "s",
    "fleet.campaign.builds": "count",
    "fleet.scheduler.self_s": "s",
    "fleet.scheduler.groups": "count",
    "fleet.aggregate.add_s": "s",
    "fleet.workers.wait_s": "s",
    "fleet.durable.append_s": "s",
    "fleet.durable.records": "count",
    "fleet.durable.journal_bytes": "bytes",
    "fleet.supervisor.chunks": "count",
    "fleet.supervisor.spawned_workers": "count",
    "fleet.supervisor.retries": "count",
    "fleet.supervisor.wait_s": "s",
    "fleet.design_point.evaluate_s": "s",
    "fleet.design_point.cache_hit_ratio": "ratio",
    "codegen.lower_s": "s",
    "codegen.instructions": "count",
    "arch.simulate_s": "s",
    "arch.model_s": "s",
    "arch.simulated_cycles": "cycles",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.in_process_replay": "flag",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(workload: workloads.Workload, scratch: Path) -> Dict[str, str]:
    """The pinned environment every campaign process runs in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update({
        "REPRO_KERNEL_BACKEND": workload.backend,
        "REPRO_KERNEL_THREADS": "1",
        "REPRO_KERNEL_CACHE": str(WORK / "kernels"),
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(tmp),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


_child_ids = itertools.count(1)


def run_child(mode: str, workload: str, seed: int, scale: str = "full",
              trace: int = 0, timeout: float = DEADLINE_S):
    """Run ``child.py`` once; returns ``(result_or_None, spawn_time, stderr)``."""
    scratch = WORK / "runs" / "{}-{}".format(os.getpid(), next(_child_ids))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    out = scratch / "result.json"
    command = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--trace", str(trace),
               "--scratch", str(scratch), "--out", str(out)]
    env = child_env(workloads.WORKLOADS[workload], scratch)
    spawned = time.monotonic()
    process = subprocess.Popen(command, env=env, cwd=str(ROOT),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        _, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # The campaign's own worker processes share the session.
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
        stderr = "timed out after {:.0f} s\n{}".format(timeout, stderr)
    try:
        result = None
        if process.returncode == 0 and out.exists():
            result = json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result, spawned, stderr


def load_reference(workload: str, path: Optional[str]) -> Dict:
    path = Path(path) if path else HERE / "references" / (workload + ".json")
    if not path.exists():
        raise BenchmarkError("no reference at {}".format(path))
    return json.loads(path.read_text())


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Run:
    """Samples of one invocation, with the correctness accounting."""

    def __init__(self, args, reference: Dict, episodes: int) -> None:
        self.args = args
        self.episodes = episodes
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.samples: List[Dict] = []
        self.problems: List[str] = []
        self.env: Dict = {}
        self.deadline = STARTED + DEADLINE_S

    def sample(self, trace: int = 0) -> Optional[Dict]:
        args = self.args
        result, spawned, stderr = run_child(
            "sample", args.workload, args.seed, args.scale, trace,
            timeout=self.deadline - time.monotonic())
        if result is None:
            # A crashed campaign fails every episode it was given.
            self.attempted += self.episodes
            self.failed += self.episodes
            self.problems.append("campaign process failed: " +
                                 stderr.strip()[-2000:])
            return None
        self.env = result["env"]
        episodes = result["episodes"]
        bad, problems = workloads.check_sample(
            args.workload, result["keys"], result["outcomes"],
            result["solves"], self.reference, args.scale, args.seed)
        self.attempted += episodes
        self.failed += bad
        self.problems.extend(problems)
        result["setup_s"] = result["ready"] - spawned
        result["episodes_per_s"] = episodes / result["wall_s"]
        status = "ok" if bad == 0 else "{} episodes FAILED the gate".format(bad)
        print("  {} sample: {} episodes in {:.3f} s = {:.3f} episodes/s, "
              "setup {:.3f} s, first commit {:.3f} s, peak RSS {:.1f} MB: {}"
              .format("traced" if trace else "timed", episodes,
                      result["wall_s"], result["episodes_per_s"],
                      result["setup_s"], result["first_commit_s"],
                      result["peak_rss_mb"], status), flush=True)
        if bad == 0 and not trace:
            self.samples.append(result)
        return result

    def measure(self, budget_s: float) -> None:
        """Sample until one more sample would overrun ``budget_s``."""
        began = time.monotonic()
        while True:
            started = time.monotonic()
            self.sample()
            took = time.monotonic() - started
            now = time.monotonic()
            if (now - began + took > budget_s
                    or now + took > self.deadline - 5.0):
                return

    def end_to_end(self) -> Dict[str, float]:
        return {name: statistics.median(s[name] for s in self.samples)
                for name in END_TO_END}


def run_workload(args) -> int:
    if os.environ.get("REPRO_CHAOS"):
        raise BenchmarkError("REPRO_CHAOS is set; the benchmark refuses to "
                             "run with fault injection armed")
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError("no program to benchmark: {} is missing"
                             .format(ROOT / "src" / "repro"))
    reference = load_reference(args.workload, args.reference)
    load_average = os.getloadavg()[0]
    print("perfbench {} seed={} window={} seconds={} trace={}".format(
        args.workload, args.seed, workloads.seed_window(args.seed),
        args.seconds, args.trace), flush=True)

    # Imports compile bytecode and, on the C backend, the kernels; users
    # pay both once per machine, so they happen before any timing.
    warmed, _, stderr = run_child("warm", args.workload, args.seed,
                                  args.scale)
    if warmed is None:
        raise BenchmarkError("warm-up failed:\n" + stderr.strip()[-2000:])

    run = Run(args, reference, warmed["episodes"])
    if args.trace:
        run.measure(args.seconds / 3.0)
        traced = run.sample(trace=1)
        metrics = {}
        if traced is not None and run.samples:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (
                traced["wall_s"]
                / statistics.median(s["wall_s"] for s in run.samples))
        units = PER_LAYER
    else:
        run.measure(args.seconds)
        metrics = run.end_to_end() if run.samples else {}
        units = END_TO_END

    correct = run.failed == 0 and len(metrics) == len(units)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "window": workloads.seed_window(args.seed), "scale": args.scale,
        "trace": args.trace, "run_seconds": args.seconds,
        "cpu_count": os.cpu_count(), "loadavg_1m_at_start": load_average,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": run.env.get("numpy"), "backend": run.env.get("backend"),
        "kernel_threads": run.env.get("threads"),
        "samples": len(run.samples),
    }
    for problem in run.problems[:20]:
        print("  GATE: " + problem, flush=True)
    if not args.trace:
        ratio = run.failed / max(run.attempted, 1)
        for name, unit in END_TO_END.items():
            if name in metrics:
                values = [s[name] for s in run.samples]
                print("  {:<16} {:>12.4f} {} (median of {}, range {:.4f}-{:.4f})"
                      .format(name, metrics[name], unit, len(values),
                              min(values), max(values)))
        print("  {:<16} {:>12.4f} ratio ({} of {} episodes)".format(
            "failed_ratio", ratio, run.failed, run.attempted))
    else:
        for name, unit in PER_LAYER.items():
            if name in metrics:
                print("  {:<36} {:>14.6g} {}".format(name, metrics[name], unit))
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "{}-trace{}.json".format(args.workload, args.trace)).write_text(
        json.dumps({"provenance": provenance, "metrics": metrics,
                    "samples": [{k: v for k, v in s.items()
                                 if k not in ("keys", "outcomes")}
                                for s in run.samples]}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own invocation of this script."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=str(ROOT),
                                   stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES,
                        help="'tiny' runs a handful of episodes (self-test)")
    parser.add_argument("--reference", default=None,
                        help="reference file to check against (self-test)")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args)
        return run_workload(args)
    except BenchmarkError as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
