"""Bit-for-bit equivalence of the physics hot path vs its references.

The RK4 step, crash detector, and actuation-power evaluation were rewritten
as allocation-free scalar arithmetic (see ``docs/perf.md``); the vectorized
originals are retained in :mod:`repro.drone.reference` and these tests hold
the rewrite to exact equality over long randomized trajectories.  The
compiled tick the ``c`` kernel backend installs (:mod:`repro.drone.tick_c`)
is one more implementation, held to the same ``==`` against the scalar
Python step on hypothesis-drawn plants, states, commands and wrenches.

When ``REPRO_KERNEL_BACKEND=c`` is set, a ``c`` backend that does not
resolve fails these tests instead of skipping them.
"""

import copy
import dataclasses
import math
import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.drone import Quadrotor, actuation_power_fn, total_actuation_power
from repro.drone.quadrotor import CRASH_THRESHOLDS, compiled_tick
from repro.drone.reference import (
    per_call_actuation_power_fn,
    use_vectorized_physics,
    vectorized_has_crashed,
    vectorized_step,
)
from repro.drone.variants import all_variants, crazyflie
from repro.tinympc import available_backends, use_compiled_kernels

C_REQUESTED = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower() == "c"


@contextmanager
def compiled_physics():
    """Install the ``c`` backend, plant tick included, for a block."""
    with use_compiled_kernels("c") as resolved:
        if resolved != "c":
            reason = "c backend did not resolve: {}".format(
                available_backends()["c"])
            if C_REQUESTED:
                pytest.fail(reason)
            pytest.skip(reason)
        assert compiled_tick() is not None
        yield compiled_tick()


@pytest.fixture(scope="module")
def params():
    return crazyflie()


class TestStepEquivalence:
    @pytest.mark.parametrize("rotor_dynamics", [True, False])
    @pytest.mark.parametrize("disturbed", [False, True])
    def test_trajectories_bitwise_equal(self, params, rotor_dynamics,
                                        disturbed):
        rng = np.random.default_rng(3)
        fast = Quadrotor(params, dt=0.002, rotor_dynamics=rotor_dynamics)
        reference = Quadrotor(params, dt=0.002, rotor_dynamics=rotor_dynamics)
        if disturbed:
            force = 0.01 * rng.standard_normal(3)
            torque = 1e-5 * rng.standard_normal(3)
            fast.set_disturbance(force, torque)
            reference.set_disturbance(force, torque)
        hover = params.hover_thrust_per_rotor()
        for step in range(300):
            command = hover + 0.02 * rng.standard_normal(4)
            fast_state = fast.step(command)
            reference_state = vectorized_step(reference, command)
            np.testing.assert_array_equal(fast_state, reference_state,
                                          err_msg="step {}".format(step))
            np.testing.assert_array_equal(fast.rotor_thrusts,
                                          reference.rotor_thrusts)
            assert fast.has_crashed() == vectorized_has_crashed(reference)

    def test_commands_beyond_limits_clip_identically(self, params):
        fast = Quadrotor(params, dt=0.002)
        reference = Quadrotor(params, dt=0.002)
        for command in ([-1.0, 0.0, 100.0, 0.01], [0.5] * 4, [0.0] * 4):
            np.testing.assert_array_equal(
                fast.step(np.array(command)),
                vectorized_step(reference, np.array(command)))


class TestActuationPowerEquivalence:
    @pytest.mark.parametrize("variant", sorted(all_variants()))
    def test_closure_matches_per_call_form(self, variant):
        params = all_variants()[variant]
        fast = actuation_power_fn(params)
        rng = np.random.default_rng(9)
        for _ in range(50):
            thrusts = 0.2 * rng.standard_normal(4)   # includes negatives
            assert fast(thrusts) == total_actuation_power(thrusts, params)

    def test_reference_wrapper_matches_too(self, params):
        reference = per_call_actuation_power_fn(params)
        fast = actuation_power_fn(params)
        thrusts = np.array([0.0, 0.02, 0.05, 0.08])
        assert reference(thrusts) == fast(thrusts)

    def test_efficiency_validation(self, params):
        with pytest.raises(ValueError):
            actuation_power_fn(params, electrical_efficiency=0.0)


class TestVectorizedPhysicsContext:
    def test_context_swaps_and_restores(self, params):
        original_step = Quadrotor.step
        with use_vectorized_physics():
            assert Quadrotor.step is vectorized_step
            plant = Quadrotor(params, dt=0.002)
            plant.step(np.full(4, params.hover_thrust_per_rotor()))
        assert Quadrotor.step is original_step


# -- the compiled tick ----------------------------------------------------------

def _bits(array):
    return np.asarray(array, dtype=np.float64).tobytes()


def _assert_same_plant(fast, reference, where):
    assert _bits(fast.state) == _bits(reference.state), where
    assert _bits(fast.rotor_thrusts) == _bits(reference.rotor_thrusts), where
    assert fast.time == reference.time, where


def _twins(params, dt, rotor_dynamics, state=None):
    """A compiled-tick plant and a scalar-Python plant in the same state."""
    fast = Quadrotor(params, dt=dt, rotor_dynamics=rotor_dynamics)
    reference = Quadrotor(params, dt=dt, rotor_dynamics=rotor_dynamics)
    if state is not None:
        fast.reset(state)
        reference.reset(state)
    return fast, reference


def _step_both(fast, reference, command, where):
    """Step both plants; they must agree on the result or the exception."""
    try:
        expected = reference._step_scalar(command)
    except ValueError:
        with pytest.raises(ValueError):
            fast.step(command)
        _assert_same_plant(fast, reference, where)
        return False
    got = fast.step(command)
    assert _bits(got) == _bits(expected), where
    _assert_same_plant(fast, reference, where)
    assert fast.has_crashed() == reference.has_crashed(), where
    return True


_VARIANTS = all_variants()
_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _plants(draw):
    params = _VARIANTS[draw(st.sampled_from(sorted(_VARIANTS)))]
    scale = draw(st.sampled_from([1.0, 1.0, 0.6, 1.3, 2.0]))
    if scale != 1.0:
        # The fleet's mass-mismatch axis: scaled plant mass, same motors.
        params = dataclasses.replace(
            params, mass=params.mass * scale,
            thrust_to_weight=params.thrust_to_weight / scale)
    dt = draw(st.sampled_from([0.002, 0.004, 0.01]))
    return params, dt, draw(st.booleans())


def _states():
    def block(bound):
        return st.lists(st.floats(-bound, bound, **_FINITE),
                        min_size=3, max_size=3)
    return st.tuples(block(30.0), block(3.5), block(20.0), block(60.0)).map(
        lambda parts: np.array([v for part in parts for v in part]))


def _commands(limit, steps):
    edge = st.sampled_from([0.0, -0.0, limit, -limit, 2.0 * limit])
    value = st.one_of(edge, st.floats(-2.0 * limit, 3.0 * limit, **_FINITE))
    return st.lists(st.lists(value, min_size=4, max_size=4).map(np.array),
                    min_size=1, max_size=steps)


class TestCompiledTick:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), plant=_plants(), state=_states())
    def test_trajectories_bitwise_equal(self, data, plant, state):
        params, dt, rotor_dynamics = plant
        limit = params.max_thrust_per_rotor()
        commands = data.draw(_commands(limit, 25))
        wrench = data.draw(st.lists(
            st.lists(st.floats(-0.5, 0.5, **_FINITE), min_size=6,
                     max_size=6), min_size=len(commands),
            max_size=len(commands)))
        force, torque = np.zeros(3), np.zeros(3)
        with compiled_physics():
            fast, reference = _twins(params, dt, rotor_dynamics, state)
            for plant_ in (fast, reference):
                plant_.bind_disturbance_buffers(force, torque)
            for step, (command, values) in enumerate(zip(commands, wrench)):
                # A time-varying wrench, written into the bound buffers.
                force[:] = values[:3]
                torque[:] = [1e-3 * v for v in values[3:]]
                if not _step_both(fast, reference, command,
                                  "step {}".format(step)):
                    break

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    @pytest.mark.parametrize("rotor_dynamics", [True, False])
    def test_long_flight_bitwise_equal(self, variant, rotor_dynamics):
        params = _VARIANTS[variant]
        rng = np.random.default_rng(11)
        hover = params.hover_thrust_per_rotor()
        with compiled_physics():
            fast, reference = _twins(params, 0.002, rotor_dynamics,
                                     np.array([0, 0, 1.0] + [0.0] * 9))
            for step in range(400):
                _step_both(fast, reference,
                           hover + 0.3 * hover * rng.standard_normal(4),
                           "step {}".format(step))

    def test_non_finite_states_match(self, params):
        hover = np.full(4, params.hover_thrust_per_rotor())
        with compiled_physics():
            for index in range(12):
                for bad in (math.nan, math.inf, -math.inf):
                    state = np.array([0, 0, 1.0] + [0.0] * 9)
                    state[index] = bad
                    fast, reference = _twins(params, 0.002, True, state)
                    _step_both(fast, reference, hover,
                               "state[{}] = {}".format(index, bad))

    def test_command_arrays_of_any_layout(self, params):
        """Lists, strided views and in-place edits of one command array."""
        limit = params.max_thrust_per_rotor()
        base = np.linspace(-0.2 * limit, 1.5 * limit, 8)
        command = np.array([0.1, 0.2, 0.3, 0.4]) * limit
        with compiled_physics():
            fast, reference = _twins(params, 0.002, True)
            for where, value in (("list", [0.3 * limit] * 4),
                                 ("strided", base[::2]),
                                 ("int", [0, 0, 0, 0]),
                                 ("array", command)):
                _step_both(fast, reference, value, where)
            command *= 1.7               # same object, new values
            _step_both(fast, reference, command, "edited in place")
            with pytest.raises(IndexError):
                fast.step([0.1, 0.2])


def _ulps(value, count):
    """``value`` moved ``count`` ulps (negative: towards -inf)."""
    direction = math.inf if count > 0 else -math.inf
    for _ in range(abs(count)):
        value = math.nextafter(value, direction)
    return value


def _straddling_states():
    max_tilt, min_altitude, max_distance = CRASH_THRESHOLDS
    base = [0.0, 0.0, 1.0] + [0.0] * 9
    states = []
    for shift in range(-3, 4):
        for index in (3, 4):
            for sign in (1.0, -1.0):
                state = list(base)
                state[index] = sign * _ulps(max_tilt, shift)
                states.append(state)
        state = list(base)
        state[2] = _ulps(min_altitude, shift)
        states.append(state)
    for direction in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, -0.48, 0.64],
                      [-0.3, 0.4, 0.866]):
        unit = np.array(direction) / np.linalg.norm(direction)
        for shift in range(-4, 5):
            state = list(base)
            state[0:3] = [_ulps(max_distance * u, shift) for u in unit]
            states.append(state)
    for index in range(12):
        for bad in (math.nan, math.inf, -math.inf):
            state = list(base)
            state[index] = bad
            states.append(state)
    return [np.array(state) for state in states]


class TestCompiledCrashPredicate:
    def test_verdict_matches_python_around_every_threshold(self, params):
        max_distance = CRASH_THRESHOLDS[2]
        with compiled_physics() as tick:
            for state in _straddling_states():
                plant = Quadrotor(params)
                plant.state = state
                expected = plant.has_crashed()
                assert expected == vectorized_has_crashed(plant)
                verdict = tick.bind(plant).verdict()
                if verdict is None:
                    # Undecided only within rounding of the distance test,
                    # where has_crashed evaluates the Python predicate.
                    distance = math.sqrt(sum(v * v for v in state[:3]))
                    assert abs(distance - max_distance) <= 1e-11, state
                else:
                    assert verdict == expected, state

    def test_custom_thresholds_use_the_python_predicate(self, params):
        hover = np.full(4, params.hover_thrust_per_rotor())
        with compiled_physics():
            plant = Quadrotor(params)
            plant.reset(np.array([0, 0, 1.0, 0.5] + [0.0] * 8))
            plant.step(hover)
            assert not plant.has_crashed()
            assert plant.has_crashed(max_tilt=0.1)
            assert plant.has_crashed(min_altitude=2.0)
            assert plant.has_crashed(max_distance=0.5)


class TestCompiledTickBindings:
    """Every way of changing a plant reaches the very next compiled tick."""

    def _flown(self, params):
        fast, reference = _twins(params, 0.002, True)
        hover = np.full(4, params.hover_thrust_per_rotor())
        for _ in range(5):
            _step_both(fast, reference, hover * 1.01, "warm-up")
        return fast, reference, hover

    def test_reset_takes_effect(self, params):
        start = np.array([1.0, -2.0, 3.0, 0.1, -0.1, 0.2] + [0.5] * 6)
        with compiled_physics():
            fast, reference, hover = self._flown(params)
            fast.reset(start)
            reference.reset(start)
            _step_both(fast, reference, hover, "after reset")
            assert fast.time == reference.time == 0.002

    def test_state_and_rotor_assignment_take_effect(self, params):
        with compiled_physics():
            fast, reference, hover = self._flown(params)
            state = np.arange(12.0) / 10.0
            fast.state = state
            reference.state = state
            _step_both(fast, reference, hover, "after state assignment")
            assert state[0] == 0.0           # the plant copied, not aliased
            fast.rotor_thrusts = hover * 0.5
            reference.rotor_thrusts = hover * 0.5
            _step_both(fast, reference, hover, "after rotor assignment")

    def test_assigned_state_clears_the_crash_verdict(self, params):
        with compiled_physics():
            fast, _, hover = self._flown(params)
            assert not fast.has_crashed()
            fast.state = np.array([0.0, 0.0, -1.0] + [0.0] * 9)
            assert fast.has_crashed()

    def test_disturbance_changes_take_effect(self, params):
        force = np.array([0.02, -0.01, 0.03])
        torque = np.array([1e-5, -2e-5, 3e-6])
        with compiled_physics():
            fast, reference, hover = self._flown(params)
            for plant in (fast, reference):
                plant.set_disturbance(force, torque)
            _step_both(fast, reference, hover, "after set_disturbance")
            buffers = (np.zeros(3), np.zeros(3))
            for plant in (fast, reference):
                plant.bind_disturbance_buffers(*buffers)
            _step_both(fast, reference, hover, "after binding buffers")
            buffers[0][:] = [0.05, 0.0, -0.02]
            buffers[1][:] = [0.0, 4e-5, 0.0]
            _step_both(fast, reference, hover, "after writing the buffers")
            for plant in (fast, reference):
                plant.clear_disturbance()
            _step_both(fast, reference, hover, "after clear_disturbance")

    def test_malformed_arrays_rejected(self, params):
        plant = Quadrotor(params)
        with pytest.raises(ValueError, match="contiguous"):
            plant.bind_disturbance_buffers(np.zeros(6)[::2], np.zeros(3))
        hover = np.full(4, params.hover_thrust_per_rotor())
        with compiled_physics():
            for size in (11, 13):
                plant.state = np.zeros(size)
                with pytest.raises(ValueError, match=r"\(12,\)"):
                    plant.step(hover)
            plant.reset()
            plant.set_disturbance(np.zeros(2))
            with pytest.raises(ValueError, match=r"\(3,\)"):
                plant.step(hover)

    def test_backend_switch_between_ticks(self, params):
        fast, reference = _twins(params, 0.002, True)
        hover = np.full(4, params.hover_thrust_per_rotor() * 1.02)
        for _ in range(3):
            with compiled_physics():
                _step_both(fast, reference, hover, "compiled")
            with use_compiled_kernels("numpy"):
                fast.step(hover)              # the Python step
            reference._step_scalar(hover)
            _assert_same_plant(fast, reference, "python")

    def test_vectorized_physics_routes_around_the_tick(self, params,
                                                       monkeypatch):
        """The pre-refactor timing in repro.bench must not fly the tick."""
        hover = np.full(4, params.hover_thrust_per_rotor())
        with compiled_physics() as tick:
            def refuse(plant):
                raise AssertionError("compiled tick bound under "
                                     "use_vectorized_physics")
            monkeypatch.setattr(tick, "bind", refuse)
            reference = Quadrotor(params, dt=0.002)
            with use_vectorized_physics():
                plant = Quadrotor(params, dt=0.002)
                for _ in range(5):
                    plant.step(hover * 1.01)
                    plant.has_crashed()
            for _ in range(5):
                reference._step_scalar(hover * 1.01)
            _assert_same_plant(plant, reference, "vectorized")

    def test_copy_and_pickle(self, params):
        hover = np.full(4, params.hover_thrust_per_rotor())
        with compiled_physics():
            fast, reference, _ = self._flown(params)
            force, torque = np.zeros(3), np.zeros(3)
            fast.bind_disturbance_buffers(force, torque)
            reference.bind_disturbance_buffers(force, torque)
            clones = [copy.copy(fast), copy.deepcopy(fast),
                      pickle.loads(pickle.dumps(fast))]
            before = fast.state.copy()
            for clone in clones:
                assert clone.state is not fast.state
                clone.step(hover * 0.9)
            assert _bits(fast.state) == _bits(before)
            expected = copy.deepcopy(reference)
            expected._step_scalar(hover * 0.9)
            for clone in clones:
                _assert_same_plant(clone, expected, "clone")
            # A shallow copy shares the caller-owned wrench buffers.
            assert clones[0]._external_force is force
