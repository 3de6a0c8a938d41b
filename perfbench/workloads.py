"""The benchmark's three campaign workloads, built from the public fleet API.

Every episode list here is made only through public ``repro.fleet`` names
(``CampaignSpec(...).expand()``, ``DesignPointSpec``) plus
``repro.bench.dse_grid()``, the design grid the repository's own DSE
benchmark sweeps.  A refactor that keeps that API keeps this file running.

Why these three (see ``perfbench/README.md`` for the layer-to-metric map):

* ``hil-fleet`` -- one wide batch (every episode shares one compatibility
  group), in-process on the C kernel backend.  The plant dominates, so
  plant batching and resident warm-start state show here.  The recovery
  half covers the disturbance wrench path and the sensor-fault observer.
* ``hil-narrow`` -- six compatibility groups of four episodes on the numpy
  backend with two ``pool.map`` workers.  The ADMM kernels dominate, so a
  change to the plant should barely move it.
* ``dse-durable`` -- solver-less design-point episodes under the durable,
  supervised executor.  Codegen, the architecture models, the journal and
  worker supervision are all it does; plant and solver changes must leave
  it unchanged.

The ``--seed`` of a run picks one of :data:`SEED_WINDOWS` input windows.
HIL workloads offset their scenario seeds (and the recovery half its sensor
fault seed) by the window; ``dse-durable`` shuffles its spec order by the
seed, which changes which specs share a journal chunk.  The stored
references (``perfbench/references/``) cover every window, so any seed can
be checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

SEED_WINDOWS = 32

# Pinned by the catalog: the analytical cycle model must stay within 2% of
# the trace it was validated against.  Kept here, not imported, so that a
# change to the program cannot loosen the benchmark's own gate.
MODEL_TOLERANCE = 0.02

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    backend: str        # REPRO_KERNEL_BACKEND, asserted after import
    workers: int
    durable: bool       # run with a fresh checkpoint_dir (supervised path)


WORKLOADS: Dict[str, Workload] = {
    "hil-fleet": Workload(backend="c", workers=1, durable=False),
    "hil-narrow": Workload(backend="numpy", workers=2, durable=False),
    "dse-durable": Workload(backend="numpy", workers=2, durable=True),
}


def seed_window(seed: int) -> int:
    return int(seed) % SEED_WINDOWS


# -- episode lists ------------------------------------------------------------

def _hil_fleet(window: int) -> List:
    from repro.fleet import CampaignSpec

    waypoint = CampaignSpec(
        name="hil-fleet-waypoint",
        # No "hard": about a third of hard scenarios crash early, so the
        # work per seed window would swing by 20% and hide real changes.
        difficulties=("easy", "medium"),
        seeds=range(3 * window, 3 * window + 3),
        implementations=("scalar", "vector"),
        frequencies_mhz=(100.0, 250.0)).expand()
    recovery = CampaignSpec(
        name="hil-fleet-recovery", episode_kind="recovery",
        mass_scales=(1.0, 1.3),
        sensor_noise_std=0.002, sensor_latency_s=0.004,
        sensor_dropout_rate=0.05, sensor_fault_seed=window).expand()
    return waypoint + recovery


def _hil_narrow(window: int) -> List:
    from repro.fleet import CampaignSpec

    return CampaignSpec(
        name="hil-narrow", difficulties=("easy",),
        seeds=range(4 * window, 4 * window + 4),
        variants=("CrazyFlie", "Hawk", "Heron"),
        control_rates_hz=(50.0, 100.0),
        max_admm_iterations=(25,)).expand()


def _dse_specs() -> List:
    """``dse_grid()`` at both fidelities, in grid order (228 specs)."""
    from repro.bench import dse_grid

    return [dataclasses.replace(spec, fidelity=fidelity)
            for spec in dse_grid() for fidelity in ("trace", "model")]


def build_episodes(name: str, seed: int, scale: str = "full") -> List:
    """The workload's episode list for ``seed``; ``scale="tiny"`` keeps a
    spread-out handful of the same episodes (for the self-test)."""
    window = seed_window(seed)
    if name == "hil-fleet":
        episodes = _hil_fleet(window)
    elif name == "hil-narrow":
        episodes = _hil_narrow(window)
    elif name == "dse-durable":
        episodes = _dse_specs()
        random.Random(int(seed)).shuffle(episodes)
    else:
        raise ValueError("unknown workload {!r}".format(name))
    if scale == "tiny":
        stride = {"hil-fleet": 13, "hil-narrow": 5, "dse-durable": 19}[name]
        episodes = episodes[::stride]
    elif scale != "full":
        raise ValueError("unknown scale {!r}".format(scale))
    return episodes


# -- outcome extraction ---------------------------------------------------------

def episode_key(spec) -> str:
    """A stable identity for the reference table.

    ``EpisodeSpec.label()`` omits the ADMM cap and the sensor-fault seed,
    and both change outcomes, so they are appended.
    """
    key = spec.label()
    if getattr(spec, "episode_kind", None) == "design_point":
        return key
    key += "/it{}".format(spec.max_admm_iterations)
    if spec.sensor_faults is not None:
        key += "/fs{}".format(spec.sensor_faults.seed)
    return key


def outcome(spec, result) -> Dict[str, object]:
    """The discrete outcomes of one episode, as the gate compares them."""
    if hasattr(result, "total_cycles"):
        return {"fidelity": result.fidelity,
                "total_cycles": result.total_cycles}
    if hasattr(result, "recovered"):
        ttr = result.time_to_recovery
        return {"recovered": bool(result.recovered),
                "ttr_ticks": (None if ttr is None
                              else int(round(ttr / spec.physics_dt)))}
    iterations = [int(i) for i in result.solve_iterations]
    digest = hashlib.sha256(
        ",".join(map(str, iterations)).encode()).hexdigest()[:16]
    return {"success": bool(result.success),
            "crashed": bool(result.crashed),
            "ticks": int(round(result.flight_time_s / spec.physics_dt)),
            "solves": len(iterations),
            "admm_iterations": sum(iterations),
            "iterations_sha": digest}


def dse_trace_key(key: str) -> str:
    """The trace partner of a design-point key (``.../model`` -> ``.../trace``)."""
    return key.rsplit("/", 1)[0] + "/trace"


def check_sample(name: str, keys: List[str], outcomes: List[Dict],
                 solves: int, reference: Dict, scale: str,
                 seed: int) -> Tuple[int, List[str]]:
    """Compare one run's outcomes with the stored reference.

    Returns ``(mismatched_episodes, messages)``.  A wrong total solve count
    fails every episode of the run, since it cannot be pinned on one.
    """
    problems: List[str] = []
    bad = 0
    if name == "dse-durable":
        cycles = reference["trace_cycles"]
        for key, got in zip(keys, outcomes):
            expected = cycles.get(dse_trace_key(key))
            if expected is None or got is None:
                ok = False
            elif got["fidelity"] == "trace":
                ok = got["total_cycles"] == expected
            else:
                ok = (abs(got["total_cycles"] - expected)
                      <= MODEL_TOLERANCE * expected)
            if not ok:
                bad += 1
                problems.append("{}: got {}, trace reference {} cycles"
                                .format(key, got, expected))
        return bad, problems
    table = reference["episodes"]
    for key, got in zip(keys, outcomes):
        expected = table.get(key)
        if got != expected:
            bad += 1
            problems.append("{}: got {}, reference {}".format(
                key, got, expected))
    expected_solves = reference["solves"].get(
        "{}/{}".format(scale, seed_window(seed)))
    if solves != expected_solves:
        problems.append("total solves {} != reference {}".format(
            solves, expected_solves))
        bad = len(keys)
    return bad, problems
