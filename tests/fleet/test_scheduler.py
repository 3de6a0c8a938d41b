"""Fleet/scalar equivalence and determinism of the campaign scheduler.

The contract under test (see :mod:`repro.fleet.scheduler`):

* with batching *off*, a campaign reproduces per-episode
  :meth:`HILLoop.run_scenario` results **bit-for-bit** — the episode
  refactor and scheduler bookkeeping add zero numerical deviation;
* with batching *on*, discrete outcomes (success, crashes, iteration
  counts, solve times, flight times) are exactly equal and float metrics
  agree to GEMM round-off;
* repeated runs are bit-for-bit identical, including across
  ``PYTHONHASHSEED`` values (exercised via subprocesses);
* warm-start state stays resident: a group whose capacity covers its
  population never copies a slot, and a ``max_batch`` cap, which makes
  episodes hand slots over, changes no bit of any result on the numpy or
  the c backend;
* a group exactly as wide as the MPC horizon gives every slot its own
  goal, so it matches the unbatched run's discrete outcomes.

When ``REPRO_KERNEL_BACKEND=c`` is set, a ``c`` backend that does not
resolve fails the c-backend cases instead of skipping them.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.drone import Difficulty, generate_scenario
from repro.fleet import (
    CampaignSpec,
    EpisodeFactory,
    EpisodeSpec,
    FleetScheduler,
    run_campaign,
)
from repro.hil import HILConfig, HILLoop
from repro.tinympc import (BatchTinyMPCSolver, available_backends,
                           use_compiled_kernels)

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

# A deliberately heterogeneous grid: two difficulties, two clock
# frequencies, and two control rates (the latter linearize two different
# MPC problems, so the scheduler must juggle two batch groups).
MIXED = CampaignSpec(
    name="mixed", difficulties=("easy", "medium"), seeds=(0, 1),
    frequencies_mhz=(100.0, 250.0), control_rates_hz=(100.0, 50.0))


def sequential_reference(episodes):
    """Per-episode run_scenario results — the ground truth."""
    loops = {}
    results = []
    for spec in episodes:
        key = (spec.implementation, spec.frequency_mhz, spec.variant,
               spec.control_rate_hz, spec.max_admm_iterations)
        if key not in loops:
            loops[key] = HILLoop(spec.hil_config())
        results.append(loops[key].run_scenario(
            generate_scenario(spec.difficulty, spec.seed)))
    return results


@pytest.fixture(scope="module")
def mixed_reference():
    return sequential_reference(MIXED.expand())


def assert_discrete_exact(reference, result):
    assert result.success == reference.success
    assert result.crashed == reference.crashed
    assert result.solve_iterations == reference.solve_iterations
    assert result.solve_times == reference.solve_times
    assert result.flight_time_s == reference.flight_time_s


class TestFleetScalarEquivalence:
    def test_unbatched_campaign_bit_for_bit(self, mixed_reference):
        outcome = run_campaign(MIXED, batching=False)
        assert len(outcome.results) == len(mixed_reference)
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            # Scalar-path scheduling is the *same* solver code path as
            # run_scenario, so every float matches exactly.
            assert result.final_distance == reference.final_distance
            assert result.actuation_power_w == reference.actuation_power_w
            assert result.soc_power_w == reference.soc_power_w

    def test_batched_campaign_matches_sequential(self, mixed_reference):
        outcome = run_campaign(MIXED)
        assert outcome.stats.batched_solves > 0
        assert outcome.stats.groups == 2      # two control rates, two problems
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)
            assert result.actuation_power_w == pytest.approx(
                reference.actuation_power_w, rel=1e-6)
            assert result.soc_power_w == pytest.approx(
                reference.soc_power_w, rel=1e-6)

    def test_slot_sharing_preserves_results(self, mixed_reference):
        """A width cap forces episodes to share solver slots across
        dispatches; warm-start parking must keep outcomes identical."""
        outcome = run_campaign(MIXED, max_batch=3)
        assert outcome.stats.max_batch_width <= 3
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)

    def test_repeated_runs_bitwise_identical(self):
        first = run_campaign(MIXED)
        second = run_campaign(MIXED)
        for a, b in zip(first.results, second.results):
            assert a.final_distance == b.final_distance
            assert a.actuation_power_w == b.actuation_power_w
            assert a.solve_iterations == b.solve_iterations

    def test_run_scenarios_delegates_to_scheduler(self):
        """HILLoop.run_scenarios keeps its contract on the fleet engine."""
        config = HILConfig(implementation="vector", frequency_mhz=100.0)
        scenarios = [generate_scenario(Difficulty.EASY, seed=0),
                     generate_scenario(Difficulty.MEDIUM, seed=1)]
        sequential = HILLoop(config).run_scenarios(scenarios, batched=False)
        batched = HILLoop(config).run_scenarios(scenarios, batched=True)
        for reference, result in zip(sequential, batched):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)


class TestSchedulerMechanics:
    def test_empty_fleet(self):
        assert FleetScheduler([]).run() == []

    def test_duplicate_episode_ids_rejected(self):
        factory = EpisodeFactory()
        spec = EpisodeSpec(Difficulty.EASY, 0)
        episodes = [factory.build(spec, episode_id=3),
                    factory.build(spec, episode_id=3)]
        with pytest.raises(ValueError, match="duplicate"):
            FleetScheduler(episodes)

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            FleetScheduler([], max_batch=0)

    def test_singleton_groups_use_scalar_path(self):
        factory = EpisodeFactory()
        episodes = [factory.build(EpisodeSpec(Difficulty.EASY, 0), 0),
                    factory.build(EpisodeSpec(Difficulty.EASY, 1,
                                              control_rate_hz=50.0), 1)]
        scheduler = FleetScheduler(episodes)
        scheduler.run()
        # Two groups of one episode each: everything solves on the scalar path.
        assert scheduler.stats.scalar_solves > 0
        assert scheduler.stats.batched_solves == 0

    def test_stats_accounting(self):
        outcome = run_campaign(CampaignSpec(difficulties="easy", seeds=(0, 1)))
        stats = outcome.stats
        assert stats.episodes == 2
        assert stats.solves == stats.batched_solves + stats.scalar_solves
        assert 0 < stats.mean_batch_width <= stats.max_batch_width
        row = stats.as_row()
        assert row["episodes"] == 2 and row["dispatches"] == stats.dispatches


def _backend(name):
    """Install ``name`` for a block; ``c`` must resolve when requested."""
    from repro.tinympc.compiled import resolve_backend
    if name != "numpy" and resolve_backend(name)[0] is None:
        reason = "{} backend unavailable: {}".format(
            name, available_backends()[name])
        requested = os.environ.get("REPRO_KERNEL_BACKEND", "").lower()
        if requested == name:
            pytest.fail(reason)
        pytest.skip(reason)
    return use_compiled_kernels(name)


@pytest.fixture
def slot_copies(monkeypatch):
    """Count ``import_slot``/``export_slot`` calls on batched solvers."""
    calls = {"import_slot": 0, "export_slot": 0}
    for name in calls:
        original = getattr(BatchTinyMPCSolver, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BatchTinyMPCSolver, name, counted)
    return calls


# Waypoint and recovery episodes over two compatibility groups (the two
# control rates); episodes of different lengths finish at different ticks,
# so slots free up mid-run.
RESIDENT = (MIXED.expand()[:10] + CampaignSpec(
    name="resident-recovery", episode_kind="recovery",
    disturbance_categories=("force",), disturbance_kinds=("step",),
    mass_scales=(1.0, 1.3)).expand()[:6])


def _result_bits(result):
    fields = ("success", "crashed", "final_distance", "actuation_power_w",
              "soc_power_w", "flight_time_s", "solve_iterations",
              "solve_times", "recovered", "time_to_recovery",
              "max_deviation")
    return tuple(repr(getattr(result, name, None)) for name in fields)


class TestResidentSlots:
    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_covering_capacity_copies_nothing_and_capping_is_invisible(
            self, backend, slot_copies):
        with _backend(backend):
            resident = run_campaign(RESIDENT)
            assert resident.stats.batched_solves > 0
            assert slot_copies == {"import_slot": 0, "export_slot": 0}
            capped = run_campaign(RESIDENT, max_batch=2)
        assert capped.stats.max_batch_width <= 2
        # The cap really made episodes hand their slots over...
        assert slot_copies["import_slot"] > 0
        assert slot_copies["export_slot"] > 0
        # ...and no bit of any result moved.
        assert ([_result_bits(r) for r in capped.results]
                == [_result_bits(r) for r in resident.results])

    def test_capped_group_round_trips_warm_starts(self, slot_copies):
        """Every eviction parks state that a later import restores: with
        more episodes than slots, each dispatch still warm-starts."""
        factory = EpisodeFactory()
        episodes = [factory.build(EpisodeSpec(Difficulty.EASY, seed), seed)
                    for seed in range(5)]
        scheduler = FleetScheduler(episodes, max_batch=2)
        results = scheduler.run()
        assert scheduler.stats.max_batch_width == 2
        assert slot_copies["export_slot"] > 0
        # Imports are parked states coming back plus cold slots reused.
        assert slot_copies["import_slot"] >= slot_copies["export_slot"]
        reference = sequential_reference(
            [EpisodeSpec(Difficulty.EASY, seed) for seed in range(5)])
        for expected, result in zip(reference, results):
            assert_discrete_exact(expected, result)


class TestWidthEqualsHorizon:
    """A group exactly as wide as the MPC horizon (10 slots, N = 10).

    Per-slot goals must reach their own slot: a ``(B, n)`` goal array is
    also a valid ``(N, n)`` shared trajectory when ``B == N``, and read
    that way every slot tracked one trajectory built from all the goals.
    """

    WIDTH_TEN = CampaignSpec(
        name="width-ten", difficulties=("easy", "medium"), seeds=range(5),
        implementations=("scalar",), frequencies_mhz=(100.0,))

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_width_ten_group_matches_unbatched(self, backend):
        with _backend(backend):
            batched = run_campaign(self.WIDTH_TEN)
            unbatched = run_campaign(self.WIDTH_TEN, batching=False)
        horizon = EpisodeFactory().build(
            self.WIDTH_TEN.expand()[0], 0).problem.horizon
        assert batched.stats.groups == 1
        assert batched.stats.max_batch_width == horizon == 10
        assert any(result.success for result in unbatched.results)
        for reference, result in zip(unbatched.results, batched.results):
            assert_discrete_exact(reference, result)


_HASHSEED_PROBE = r"""
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.drone import Difficulty, generate_scenario
from repro.fleet import CampaignSpec, run_campaign

digest = hashlib.sha256()
for difficulty in Difficulty:
    for seed in range(3):
        scenario = generate_scenario(difficulty, seed)
        digest.update(repr(scenario.waypoints).encode())
outcome = run_campaign(CampaignSpec(
    difficulties="easy", seeds=(0,), implementations="ideal"))
digest.update(outcome.results[0].final_distance.hex().encode())
digest.update(repr(outcome.results[0].solve_iterations[:50]).encode())
print(digest.hexdigest())
"""


class TestHashSeedDeterminism:
    def test_campaign_stable_across_pythonhashseed(self):
        """Scenario generation and campaign results must not depend on the
        interpreter's hash salt (the old ``hash()``-seeded generator did)."""
        digests = []
        for hashseed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env.pop("PYTHONPATH", None)
            script = _HASHSEED_PROBE.format(
                src=os.path.join(REPO_ROOT, "src"))
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300)
            digests.append(output.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64
