"""One HIL episode as a solver-agnostic step generator.

Historically the closed-loop episode logic lived inline in
:meth:`repro.hil.loop.HILLoop.run_scenario`, the lockstep batched runner
re-implemented the same state machine a second time, and
``HILLoop.run_disturbance`` carried a third hand-copied clone for the
Section 5.2 robustness study.  The fleet campaign engine (:mod:`repro.fleet`)
made that drift bug farm untenable, so the episode is now a *single*
implementation shared by every path and both episode kinds: a *generator*
that owns the plant, the latency model, and all metric bookkeeping, and
that ``yield``\\ s a :class:`SolveRequest` whenever the controller needs an
MPC solve.

Two episode kinds run through the one state machine:

* **waypoint tracking** (:class:`~repro.drone.scenarios.Scenario`) — fly the
  scenario's waypoint schedule; the result is a
  :class:`~repro.hil.metrics.ScenarioResult`;
* **disturbance recovery** (:class:`RecoveryEpisode`) — hold a fixed goal,
  inject the episode's time-varying wrench through
  ``plant.set_disturbance``, record every step's position, and run
  :func:`~repro.drone.disturbance.analyze_recovery` at exhaustion; the
  result is a :class:`~repro.drone.disturbance.RecoveryResult`.

The driver — scalar loop or fleet scheduler — answers each request by
sending back ``(control, iterations)``; where that solve runs (a scalar
:class:`~repro.tinympc.solver.TinyMPCSolver`, one slot of a
:class:`~repro.tinympc.batch.BatchTinyMPCSolver`, another process) is
invisible to the episode.  Because the physics, timing, and metric code is
literally the same object code on every path, scalar and fleet runs can
only diverge through the numbers the solver returns.

Timing semantics (identical for both kinds)::

    state sampled -> UART downlink -> solve (iterations x cycles / f_clk)
                  -> UART uplink   -> motor command applied

The solver cannot accept a new state while a solve is in flight; if a solve
overruns one or more control periods, the next solve resumes on the first
period boundary after the solver frees up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple, Union

import numpy as np

from ..drone import (
    Disturbance,
    DroneParams,
    Quadrotor,
    RecoveryResult,
    Scenario,
    actuation_power_fn,
    analyze_recovery,
    hover_input,
    hover_state,
)
from .faults import FaultyObserver, SensorFaults
from .metrics import ScenarioResult
from .soc import SoCModel

__all__ = ["SolveRequest", "RecoveryEpisode", "EpisodeRunner", "EpisodeResult"]


@dataclass
class SolveRequest:
    """One MPC solve the episode needs before it can keep flying.

    ``episode`` is the id the driver assigned to this episode (the fleet
    scheduler uses it to route the batched solution rows back); ``time`` is
    the episode-local virtual time at which the state was sampled.
    """

    episode: int
    time: float
    x0: np.ndarray           # sampled plant state, shape (state_dim,)
    goal: np.ndarray         # goal state for the active waypoint, (state_dim,)


@dataclass(frozen=True)
class RecoveryEpisode:
    """Mission description of one disturbance-recovery episode (Fig. 17).

    The drone holds ``hold_position``, the ``disturbance`` wrench is
    injected on the physics-tick grid, and the trajectory is analyzed with
    the paper's 5 cm / 250 ms recovery criterion at episode exhaustion.

    ``disturbance`` accepts any wrench event implementing the protocol in
    :mod:`repro.drone.gusts` — a deterministic :class:`Disturbance`, a
    stochastic :class:`~repro.drone.gusts.DrydenGust`, or a 1-cosine
    :class:`~repro.drone.gusts.DiscreteGust`; the runner asks the event for
    its per-episode :meth:`sampler` once and drives the sampled wrench on
    the physics grid.
    """

    disturbance: Disturbance  # or any gusts.py wrench event (duck-typed)
    hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75)
    duration: float = 3.0


# What EpisodeRunner.result holds after exhaustion, by episode kind.
EpisodeResult = Union[ScenarioResult, RecoveryResult]


class EpisodeRunner:
    """Drives one episode (waypoint or recovery), pausing at each solve.

    Usage::

        runner = EpisodeRunner(config, params, mission, soc=soc)
        stepper = runner.run()
        response = None
        while True:
            try:
                request = stepper.send(response)
            except StopIteration:
                break
            solution = solver.solve(request.x0, Xref=request.goal)
            response = (solution.control, solution.iterations)
        result = runner.result

    ``mission`` is either a waypoint :class:`~repro.drone.scenarios.Scenario`
    or a :class:`RecoveryEpisode`.  The generator yields
    :class:`SolveRequest` objects and expects a ``(control, iterations)``
    pair in return.  After exhaustion, :attr:`result` holds the episode's
    :class:`~repro.hil.metrics.ScenarioResult` (waypoint) or
    :class:`~repro.drone.disturbance.RecoveryResult` (recovery).
    """

    def __init__(self, config, params: DroneParams,
                 scenario: Union[Scenario, RecoveryEpisode],
                 soc: Optional[SoCModel] = None, state_dim: int = 12,
                 episode_id: int = 0,
                 plant_params: Optional[DroneParams] = None,
                 faults: Optional[SensorFaults] = None) -> None:
        self.config = config
        self.params = params
        self.scenario = scenario
        self.soc = soc
        self.state_dim = state_dim
        self.episode_id = episode_id
        self.faults = faults
        self.is_recovery = isinstance(scenario, RecoveryEpisode)
        # Model mismatch: the *plant* may fly perturbed parameters (payload
        # mass, detuned thrust) while the controller — hover feedforward and
        # the MPC linearization upstream — keeps believing ``params``.
        self.plant_params = plant_params if plant_params is not None else params
        self.plant = Quadrotor(self.plant_params, dt=config.physics_dt)
        # Hoisted-constant power model: evaluated every physics tick, and
        # bit-identical to calling total_actuation_power per tick.
        self._actuation_power = actuation_power_fn(self.plant_params)
        self._result: Optional[EpisodeResult] = None
        if self.is_recovery:
            # Caller-owned wrench buffers: Disturbance.wrench_into writes
            # them in place every physics tick, and set_disturbance binds
            # them into the plant once per episode — the per-tick
            # disturbance path allocates nothing.
            self._force = np.zeros(3)
            self._torque = np.zeros(3)
        if not config.is_ideal and soc is None:
            raise ValueError("non-ideal episodes need a compiled SoCModel")

    # -- helpers ----------------------------------------------------------------
    @property
    def result(self) -> EpisodeResult:
        if self._result is None:
            raise RuntimeError("episode has not finished; drive run() first")
        return self._result

    @property
    def finished(self) -> bool:
        return self._result is not None

    def _goal_state(self, position: np.ndarray) -> np.ndarray:
        goal = np.zeros(self.state_dim)
        goal[0:3] = position
        return goal

    def _solve_latency(self, compute: float) -> float:
        """End-to-end latency from state sample to applied command, given
        the solve's compute time on the SoC."""
        if self.config.is_ideal:
            return 0.0
        return (self.config.uart.downlink_latency + compute
                + self.config.uart.uplink_latency)

    # -- the episode state machine ---------------------------------------------
    def run(self) -> Generator[SolveRequest, Tuple[np.ndarray, int], None]:
        """Fly the episode, yielding a :class:`SolveRequest` per solve."""
        config = self.config
        scenario = self.scenario
        plant = self.plant
        recovery = self.is_recovery
        disturbance: Optional[Disturbance] = None
        wrench = None
        if recovery:
            disturbance = scenario.disturbance
            hold = np.asarray(scenario.hold_position, dtype=np.float64)
            plant.reset(hover_state(hold))
            # By-reference binding: wrench_into mutates these buffers in
            # place each tick and the plant is guaranteed to see it.
            plant.bind_disturbance_buffers(self._force, self._torque)
            goal = self._goal_state(hold)
            duration = scenario.duration
            # One sampler per episode: deterministic events return
            # themselves; stochastic gusts tabulate their seeded realization
            # here, so the per-tick wrench path stays allocation-free.
            wrench = disturbance.sampler(config.physics_dt, duration)
        else:
            plant.reset(hover_state(scenario.start_position))
            goal = None
            duration = scenario.duration

        hover = hover_input(self.params)
        # One command buffer per episode, rewritten in place on every
        # applied solve: the compiled plant tick keeps reading through the
        # same pointer instead of re-taking it for a fresh array.
        command = hover.copy()
        pending_command: Optional[np.ndarray] = None
        pending_ready_time = 0.0
        solver_free_time = 0.0
        next_control_time = 0.0

        solve_times: List[float] = []
        solve_iterations: List[int] = []
        compute_busy_time = 0.0
        actuation_energy = 0.0
        times: List[float] = []
        positions: List[np.ndarray] = []
        record_positions = recovery or config.record_trajectory
        crashed = False

        control_period = (config.physics_dt if config.is_ideal
                          else config.control_period)
        # The fault pipeline sits between the plant and the solver: only the
        # sampled state handed to SolveRequest is corrupted — the recorded
        # trajectory, crash detector, and recovery analysis all see truth.
        observer: Optional[FaultyObserver] = None
        if self.faults is not None and not self.faults.is_null:
            observer = FaultyObserver(self.faults, control_period,
                                      self.state_dim)
        steps = int(round(duration / config.physics_dt))
        time = 0.0
        for step in range(steps):
            time = step * config.physics_dt
            # Apply a completed solve.
            if pending_command is not None and time >= pending_ready_time:
                np.add(hover, pending_command, out=command)
                pending_command = None
            # Kick off a new solve at control ticks once the solver is free.
            if time >= next_control_time and time >= solver_free_time:
                if not recovery:
                    waypoint = scenario.active_waypoint(time)
                    goal = self._goal_state(waypoint.as_array())
                sampled = plant.observe()
                if observer is not None:
                    sampled = observer.observe(sampled)
                control, iterations = yield SolveRequest(
                    self.episode_id, time, sampled, goal)
                compute_only = (0.0 if config.is_ideal
                                else self.soc.solve_latency(iterations))
                latency = self._solve_latency(compute_only)
                solve_times.append(compute_only)
                solve_iterations.append(iterations)
                compute_busy_time += compute_only
                if config.is_ideal:
                    np.add(hover, control, out=command)
                else:
                    pending_command = control
                    pending_ready_time = time + latency
                    solver_free_time = time + max(latency, 1e-9)
                next_control_time += control_period
                # If the solve overran one or more control periods, resume on
                # the next period boundary after the solver frees up.
                if solver_free_time > next_control_time:
                    periods_behind = int(np.ceil(
                        (solver_free_time - next_control_time) / control_period))
                    next_control_time += periods_behind * control_period

            if recovery:
                # Refresh the plant-bound wrench buffers in place.
                wrench.wrench_into(time, config.physics_dt,
                                   self._force, self._torque)
            plant.step(command)
            if not recovery:
                # RecoveryResult carries no power metrics, so recovery
                # episodes skip the per-tick power model (the deleted
                # run_disturbance loop never paid it either).
                actuation_energy += self._actuation_power(
                    plant.rotor_thrusts) * config.physics_dt
            if record_positions:
                positions.append(plant.position)
            if recovery:
                times.append(time)
            if plant.has_crashed():
                crashed = True
                break

        if recovery:
            plant.clear_disturbance()
            result = analyze_recovery(
                times, positions, hold, disturbance.end_time,
                disturbance_start=disturbance.start_time)
            result.disturbance = disturbance
            if crashed:
                result.recovered = False
                result.time_to_recovery = None
            self._result = result
            return

        flight_time = max(time, config.physics_dt)
        final_distance = float(np.linalg.norm(
            plant.position - scenario.final_waypoint.as_array()))
        success = (not crashed) and final_distance <= config.waypoint_tolerance

        if config.is_ideal:
            soc_power = 0.0
        else:
            activity = min(compute_busy_time / flight_time, 1.0)
            soc_power = self.soc.power(activity)

        self._result = ScenarioResult(
            scenario=scenario,
            implementation=config.implementation,
            frequency_mhz=config.frequency_mhz,
            success=success,
            crashed=crashed,
            final_distance=final_distance,
            solve_times=solve_times,
            solve_iterations=solve_iterations,
            actuation_power_w=actuation_energy / flight_time,
            soc_power_w=soc_power,
            flight_time_s=flight_time,
            positions=np.array(positions) if positions else None,
        )
