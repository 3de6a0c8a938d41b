"""Record the stored references the benchmark's correctness gate reads.

Usage (from the repository root; takes several minutes)::

    python3 perfbench/record_reference.py [--workload NAME] [--jobs 2]

HIL workloads run every seed window, at both scales, through the
``batching=False`` scalar path, in the same pinned environment (kernel
backend included) as the timed runs.  The reference keeps each episode's
discrete outcomes and each run's total solve count.  ``dse-durable`` keeps
the trace-fidelity cycle count of every spec from the serial
``CodegenFlow.compile`` loop.  Re-record only when a change is meant to
alter simulated behaviour, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import workloads


def record_hil(name: str, jobs: int) -> dict:
    tasks = [(scale, window) for scale in workloads.SCALES
             for window in range(workloads.SEED_WINDOWS)]

    def one(task):
        scale, window = task
        result, _, stderr = run.run_child("record", name, window, scale,
                                          timeout=3600)
        if result is None:
            raise RuntimeError("{} {}/{} failed:\n{}".format(
                name, scale, window, stderr))
        return task, result

    episodes, solves, env = {}, {}, None
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for (scale, window), result in pool.map(one, tasks):
            env = result["env"]
            solves["{}/{}".format(scale, window)] = result["solves"]
            for key, outcome in zip(result["keys"], result["outcomes"]):
                if episodes.setdefault(key, outcome) != outcome:
                    raise RuntimeError("episode {} is not deterministic"
                                       .format(key))
            print("recorded {} {}/{}".format(name, scale, window), flush=True)
    return {"env": env, "solves": solves, "episodes": episodes}


def record_dse() -> dict:
    result, _, stderr = run.run_child("record", "dse-durable", 0,
                                      timeout=3600)
    if result is None:
        raise RuntimeError("dse-durable failed:\n" + stderr)
    return {"env": result["env"], "trace_cycles": result["trace_cycles"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name == "dse-durable":
            reference = record_dse()
        else:
            reference = record_hil(name, args.jobs)
        reference["workload"] = name
        reference["python"] = platform.python_version()
        path = run.HERE / "references" / (name + ".json")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
        print("wrote " + str(path))


if __name__ == "__main__":
    sys.exit(main())
