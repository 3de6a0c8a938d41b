"""Self-test of the benchmark: tiny runs, metric names, and the gate.

Usage (from the repository root; under a minute)::

    python3 perfbench/selftest.py

For every workload it runs a tiny end-to-end run and a tiny traced run.
Both must pass the gate and report every metric that ``BENCHMARK.json``
declares. It then runs the tiny workload against a copy of the reference
with one entry corrupted, and the gate must trip: exit code 1,
``correct: false`` and ``failed > 0``. It also checks that a directory
holding only the benchmark (no ``src/``) makes the command fail without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def invoke(*extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--seed", "3",
               "--seconds", "1", *extra]
    completed = subprocess.run(command, cwd=str(cwd), capture_output=True,
                               text=True, timeout=300)
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return completed.returncode, result, completed.stdout + completed.stderr


def check(condition: bool, message: str, output: str = "") -> None:
    if not condition:
        raise SystemExit("FAIL: {}\n{}".format(message, output))
    print("ok: " + message, flush=True)


def check_declared_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in declared["workloads"]]
          == list(workloads.WORKLOADS), "BENCHMARK.json names the workloads")
    check({m["name"]: m["unit"] for m in declared["end_to_end"]}
          == run.END_TO_END, "end-to-end metrics match run.py")
    check({m["name"]: m["unit"] for m in declared["per_layer"]}
          == run.PER_LAYER, "per-layer metrics match run.py")


def corrupt(name: str, reference: dict) -> dict:
    """Change the reference entry of the first episode a tiny run checks."""
    spec = workloads.build_episodes(name, 3, "tiny")[0]
    key = workloads.episode_key(spec)
    if name == "dse-durable":
        key = workloads.dse_trace_key(key)
        reference["trace_cycles"][key] *= 1.5
    else:
        entry = reference["episodes"][key]
        flag = "recovered" if "recovered" in entry else "success"
        entry[flag] = not entry[flag]
    return reference


def main() -> None:
    check_declared_metrics()
    for name in workloads.WORKLOADS:
        code, result, output = invoke("--workload", name, "--scale", "tiny",
                                      "--trace", "0")
        check(code == 0 and result["correct"] and result["failed"] == 0
              and set(result["metrics"]) == set(run.END_TO_END),
              "{} tiny run passes the gate".format(name), output)
        code, result, output = invoke("--workload", name, "--scale", "tiny",
                                      "--trace", "1")
        check(code == 0 and result["correct"]
              and set(result["metrics"]) == set(run.PER_LAYER),
              "{} tiny traced run reports every layer".format(name), output)
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "dse-durable":
            check(layers["drone.step_s"] == 0 and layers["tinympc.solve_s"] == 0
                  and layers["fleet.design_point.cache_hit_ratio"] == 0,
                  "dse-durable bypasses drone and tinympc, cold memo")

        reference = json.loads(
            (HERE / "references" / (name + ".json")).read_text())
        with tempfile.TemporaryDirectory(dir=str(run.WORK)) as tmp:
            path = Path(tmp) / "corrupt.json"
            path.write_text(json.dumps(corrupt(name, reference)))
            code, result, output = invoke("--workload", name, "--scale",
                                          "tiny", "--trace", "0",
                                          "--reference", str(path))
        check(code == 1 and not result["correct"] and result["failed"] > 0,
              "{} corrupted reference trips the gate".format(name), output)

    with tempfile.TemporaryDirectory(dir=str(run.WORK)) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, output = invoke("--workload", "hil-fleet", cwd=tmp)
        check(code != 0 and result is None,
              "without the program the command fails and prints no result",
              output)
    print("selftest passed")


if __name__ == "__main__":
    main()
