"""One campaign in a fresh process: the unit every benchmark sample runs.

``run.py`` starts this file once per sample, because a campaign's user pays
the cold costs on every run: imports, the process-global solver pool, the
design-point result memo, the cycle model's ``lru_cache``s and the SoC
compiles.  The parent passes the environment (kernel backend, threads,
kernel cache) and reads one JSON file back.

Modes:

* ``sample`` -- time ``run_campaign`` on the workload; with ``--trace`` the
  layers are wrapped first (see ``tracer.py``), and for multi-process
  workloads the workers' episodes are then replayed in-process, traced, to
  measure the layers that run inside workers;
* ``warm`` -- import everything and, on the C backend, run one episode per
  problem shape so the compiled-kernel cache is populated before timing;
* ``record`` -- run the workload through the ``batching=False`` scalar path
  (HIL) or the serial ``CodegenFlow.compile`` loop (DSE) and write the
  outcomes a reference is made of (used by ``record_reference.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracer_layers  # noqa: E402
import workloads  # noqa: E402


def _environment(expected: str) -> dict:
    from repro.tinympc.compiled import kernel_backend_info

    info = kernel_backend_info()
    if info["name"] != expected:
        # resolve_backend falls back to numpy silently when, say, the C
        # compiler is missing; a benchmark on the wrong backend is void.
        raise SystemExit("kernel backend resolved to {!r}, workload needs {!r}"
                         .format(info["name"], expected))
    import numpy

    return {"backend": info["name"], "threads": info["threads"],
            "numpy": numpy.__version__}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0


def _install_commit_probe(state: dict) -> None:
    """Stamp when the journal first records a committed chunk."""
    from repro.fleet import RunJournal

    append = RunJournal.append

    def probed(self, record, *args, **kwargs):
        append(self, record, *args, **kwargs)
        if state["first_commit"] is None and record.get("t") == "commit":
            state["first_commit"] = time.monotonic()

    RunJournal.append = probed


def _journal_bytes(run_dir) -> int:
    from repro.fleet.durable import journal_path

    path = journal_path(run_dir)
    return os.path.getsize(path) if os.path.exists(path) else 0


def _outcomes(outcome) -> dict:
    return {"keys": [workloads.episode_key(s) for s in outcome.episodes],
            # A quarantined episode has no result; it fails the gate.
            "outcomes": [None if r is None else workloads.outcome(s, r)
                         for s, r in zip(outcome.episodes, outcome.results)],
            "solves": outcome.stats.solves,
            "quarantined": len(outcome.failures)}


def _replay_in_process(episodes, workload, tracer) -> dict:
    """Run each worker's share of the episodes in this process, traced.

    ``shard_indices`` is the partition ``run_campaign`` gives its pool
    workers, so every scheduler sees the batch groups a worker sees.  The
    supervised path leases fixed chunks instead, but design-point episodes
    never batch, so the per-episode work is the same.
    """
    from repro.fleet import run_campaign, shard_indices
    from repro.fleet.design_point import clear_result_cache

    clear_result_cache()
    tracer.reset()
    shards = (shard_indices(len(episodes), workload.workers)
              if not workload.durable else [list(range(len(episodes)))])
    started = time.perf_counter()
    tracer.start("campaign")
    for indices in shards:
        run_campaign([episodes[i] for i in indices], workers=1)
    tracer.stop()
    wall = time.perf_counter() - started
    metrics = tracer_layers.layer_metrics(tracer)
    covered = tracer.covered_s() - tracer.self_s("campaign")
    return {"metrics": metrics, "wall_s": wall,
            "unattributed_s": wall - covered}


def run_sample(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    env = _environment(workload.backend)
    from repro.fleet import run_campaign
    from repro.fleet.design_point import clear_result_cache

    episodes = workloads.build_episodes(args.workload, args.seed, args.scale)
    clear_result_cache()
    checkpoint_dir = None
    if workload.durable:
        checkpoint_dir = os.path.join(args.scratch, "checkpoint")
        os.makedirs(checkpoint_dir)         # fresh: must not exist yet
    probe = {"first_commit": None}
    _install_commit_probe(probe)
    tracer = None
    if args.trace:
        tracer = tracer_layers.Tracer()
        tracer_layers.install(tracer)

    ready = time.monotonic()
    outcome = run_campaign(episodes, workers=workload.workers,
                           checkpoint_dir=checkpoint_dir)
    done = time.monotonic()

    result = {"ready": ready, "wall_s": done - ready,
              "episodes": len(episodes), "env": env,
              # Without a journal the first safe result is the returned one.
              "first_commit_s": ((probe["first_commit"] or done) - ready),
              "peak_rss_mb": _peak_rss_mb()}
    result.update(_outcomes(outcome))
    if tracer is not None:
        journal = _journal_bytes(outcome.run_dir) if outcome.run_dir else 0
        real = tracer_layers.layer_metrics(tracer, outcome.report, journal)
        if workload.workers == 1:
            layers = real
            timeline = {"wall_s": done - ready,
                        "unattributed_s": done - ready - tracer.covered_s()}
            replayed = 0
        else:
            timeline = _replay_in_process(episodes, workload, tracer)
            layers = timeline["metrics"]
            for name, value in real.items():
                if name.startswith(tracer_layers.PARENT_LAYERS):
                    layers[name] = value
            replayed = 1
        layers["trace.wall_s"] = timeline["wall_s"]
        layers["trace.unattributed_s"] = timeline["unattributed_s"]
        layers["trace.in_process_replay"] = replayed
        result["layers"] = layers
    return result


def run_warm(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    env = _environment(workload.backend)
    from repro.fleet import run_campaign

    episodes = workloads.build_episodes(args.workload, args.seed, args.scale)
    if workload.backend != "numpy":
        shapes = {}
        for spec in episodes:
            shapes.setdefault((spec.variant, spec.control_rate_hz), spec)
        # One episode per (variant, rate) builds every kernel shape.
        run_campaign(list(shapes.values()), workers=1)
    return {"env": env, "episodes": len(episodes)}


def run_record(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    env = _environment(workload.backend)
    if args.workload == "dse-durable":
        from repro.codegen import CodegenFlow
        from repro.experiments.kernel_experiments import default_program

        program = default_program()
        cycles = {}
        for spec in workloads.build_episodes(args.workload, 0):
            if spec.fidelity != "trace":
                continue
            compiled = CodegenFlow(lmul=spec.lmul).compile(
                program, spec.design_point, spec.resolved_level(),
                sync_granularity=spec.sync_granularity)
            cycles[workloads.episode_key(spec)] = compiled.report.total_cycles
        return {"env": env, "trace_cycles": cycles}
    from repro.fleet import run_campaign

    episodes = workloads.build_episodes(args.workload, args.seed, args.scale)
    outcome = run_campaign(episodes, workers=1, batching=False)
    result = {"env": env}
    result.update(_outcomes(outcome))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("sample", "warm", "record"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", required=True,
                        help="fresh directory this run may write to")
    parser.add_argument("--out", required=True, help="JSON result file")
    args = parser.parse_args()
    modes = {"sample": run_sample, "warm": run_warm, "record": run_record}
    result = modes[args.mode](args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
