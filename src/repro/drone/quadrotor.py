"""Nonlinear quadrotor rigid-body simulator.

This is the substitute for gym-pybullet-drones in the paper's
hardware-in-the-loop setup: a 12-state quadrotor (position, Euler attitude,
linear velocity, body angular rate) with first-order rotor dynamics,
integrated with RK4.  The same model is linearized about hover to produce
the MPC problem's (A, B) matrices, so the controller and the plant are
consistent.

One physics step runs in one of two bit-identical implementations: the
scalar Python step below (the reference, used under the ``numpy`` and
``numba`` kernel backends) or, under the ``c`` kernel backend, one call
into the compiled tick of :mod:`repro.drone.tick_c`.  The kernel backend
switch (:mod:`repro.tinympc.compiled`) installs the tick here through
:func:`install_compiled_tick`.

State layout (12,):
    [0:3]   position p = [x, y, z]           world frame, meters
    [3:6]   attitude  = [roll, pitch, yaw]   radians
    [6:9]   velocity v = [vx, vy, vz]        world frame, m/s
    [9:12]  body rate w = [p, q, r]          rad/s

Input layout (4,): per-rotor thrust in Newtons (absolute, not delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .variants import DroneParams, GRAVITY

__all__ = ["QuadrotorState", "Quadrotor", "hover_state", "hover_input",
           "install_compiled_tick", "compiled_tick", "CRASH_THRESHOLDS"]

POSITION = slice(0, 3)
ATTITUDE = slice(3, 6)
VELOCITY = slice(6, 9)
BODY_RATE = slice(9, 12)

STATE_DIM = 12
INPUT_DIM = 4

#: ``has_crashed``'s default (max_tilt, min_altitude, max_distance).
CRASH_THRESHOLDS = (1.2, -0.05, 25.0)

# The compiled tick the active kernel backend provides (None: Python step).
_compiled_tick = None


def install_compiled_tick(tick) -> None:
    """Route every plant's ``step`` through ``tick`` (``None``: Python).

    Called by the kernel backend switch; plants rebind lazily at their
    next step, so the switch may happen between any two ticks.
    """
    global _compiled_tick
    _compiled_tick = tick


def compiled_tick():
    """The installed compiled tick, or ``None`` under the Python step."""
    return _compiled_tick


@dataclass
class QuadrotorState:
    """Convenience view over the flat 12-element state vector."""

    vector: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return self.vector[POSITION]

    @property
    def attitude(self) -> np.ndarray:
        return self.vector[ATTITUDE]

    @property
    def velocity(self) -> np.ndarray:
        return self.vector[VELOCITY]

    @property
    def body_rate(self) -> np.ndarray:
        return self.vector[BODY_RATE]

    def copy(self) -> "QuadrotorState":
        return QuadrotorState(self.vector.copy())


def hover_state(position: Optional[np.ndarray] = None) -> np.ndarray:
    """A level hover state at a given position (default: origin)."""
    state = np.zeros(STATE_DIM)
    if position is not None:
        state[POSITION] = np.asarray(position, dtype=np.float64)
    return state


def hover_input(params: DroneParams) -> np.ndarray:
    """Per-rotor thrusts that exactly balance gravity."""
    return np.full(INPUT_DIM, params.hover_thrust_per_rotor())


def rotation_matrix(rpy: np.ndarray) -> np.ndarray:
    """Body-to-world rotation matrix from roll/pitch/yaw (ZYX convention)."""
    roll, pitch, yaw = rpy
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def euler_rate_matrix(rpy: np.ndarray) -> np.ndarray:
    """Map body angular rates to Euler angle rates (ZYX convention)."""
    roll, pitch, _ = rpy
    cr, sr = np.cos(roll), np.sin(roll)
    cp = np.cos(pitch)
    # Guard against the pitch singularity; the drone never flies there in
    # these scenarios, but a disturbance sweep can push states far out.
    cp = np.sign(cp) * max(abs(cp), 1e-6) if cp != 0 else 1e-6
    tp = np.sin(pitch) / cp
    return np.array([
        [1.0, sr * tp, cr * tp],
        [0.0, cr, -sr],
        [0.0, sr / cp, cr / cp],
    ])


class Quadrotor:
    """Nonlinear quadrotor plant with first-order rotor lag.

    ``params`` is treated as frozen after construction: the derived
    quantities the RK4 loop needs (mass, inertia, mixing matrix, thrust
    limit) are cached at ``__init__``.  Build a new :class:`Quadrotor` to
    fly a different variant rather than reassigning ``plant.params``.

    The plant owns its ``state`` and ``rotor_thrusts`` arrays: assigning
    either stores a copy.  The compiled tick updates them in place, so a
    caller that keeps a reference across steps sees them change; use
    :meth:`observe` (or ``.copy()``) for a snapshot.  Assigning ``state``,
    ``rotor_thrusts`` or a disturbance takes effect on the next step under
    either implementation.
    """

    def __init__(self, params: DroneParams, dt: float = 0.004,
                 rotor_dynamics: bool = True) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.params = params
        self.dt = dt
        self.rotor_dynamics = rotor_dynamics
        # The compiled tick's view of this plant's arrays, built at its
        # first compiled step and dropped whenever one of them is rebound.
        self._binding = None
        # has_crashed() at the default thresholds for the current state, as
        # the compiled tick computed it (None: evaluate in Python).
        self._verdict = None
        self.state = hover_state()
        self.rotor_thrusts = hover_input(params)
        self.time = 0.0
        self._external_force = np.zeros(3)
        self._external_torque = np.zeros(3)
        # The physics step is the fleet engine's per-episode serial cost, so
        # the per-call derived parameters are hoisted out of the RK4 loop.
        self._mix_rows = tuple(tuple(float(v) for v in row)
                               for row in params.mixing_matrix())
        self._inertia_tuple = tuple(float(v) for v in params.inertia)
        self._mass = float(params.mass)
        self._max_thrust = float(params.max_thrust_per_rotor())

    # -- owned arrays ------------------------------------------------------------
    @property
    def state(self) -> np.ndarray:
        return self._state

    @state.setter
    def state(self, value) -> None:
        self._state = np.array(value, dtype=np.float64)
        self._binding = None
        self._verdict = None

    @property
    def rotor_thrusts(self) -> np.ndarray:
        return self._rotors

    @rotor_thrusts.setter
    def rotor_thrusts(self, value) -> None:
        self._rotors = np.array(value, dtype=np.float64)
        self._binding = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_binding"] = None         # foreign pointers never travel
        return state

    def __copy__(self) -> "Quadrotor":
        # The arrays the step writes in place must not be shared; a bound
        # disturbance buffer stays shared (it is the caller's).
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__getstate__())
        clone._state = self._state.copy()
        clone._rotors = self._rotors.copy()
        return clone

    # -- configuration ---------------------------------------------------------
    def reset(self, state: Optional[np.ndarray] = None) -> np.ndarray:
        self.state = hover_state() if state is None else state
        self.rotor_thrusts = hover_input(self.params)
        self.time = 0.0
        self.clear_disturbance()
        return self.state.copy()

    def set_disturbance(self, force: Optional[np.ndarray] = None,
                        torque: Optional[np.ndarray] = None) -> None:
        """Apply a constant external force/torque until cleared."""
        self._external_force = (np.zeros(3) if force is None
                                else np.asarray(force, dtype=np.float64))
        self._external_torque = (np.zeros(3) if torque is None
                                 else np.asarray(torque, dtype=np.float64))
        self._binding = None

    def bind_disturbance_buffers(self, force: np.ndarray,
                                 torque: np.ndarray) -> None:
        """Adopt caller-owned ``(3,)`` float64 wrench buffers *by reference*.

        Unlike :meth:`set_disturbance` (whose wrench is constant until
        cleared and which may or may not alias its inputs), this method
        guarantees the plant reads the given arrays on every step — the
        caller mutates them in place per tick for allocation-free
        time-varying disturbances.  ``clear_disturbance`` (and ``reset``)
        drops the binding.
        """
        force = np.asarray(force)
        torque = np.asarray(torque)
        for name, buffer in (("force", force), ("torque", torque)):
            if (buffer.dtype != np.float64 or buffer.shape != (3,)
                    or not buffer.flags.c_contiguous):
                raise ValueError("{} buffer must be a contiguous (3,) "
                                 "float64 array".format(name))
        self._external_force = force
        self._external_torque = torque
        self._binding = None

    def clear_disturbance(self) -> None:
        self._external_force = np.zeros(3)
        self._external_torque = np.zeros(3)
        self._binding = None

    # -- dynamics ----------------------------------------------------------------
    def _derivatives_scalar(self, s, t0: float, t1: float, t2: float,
                            t3: float, fx: float, fy: float, fz: float,
                            ex: float, ey: float, ez: float):
        """Continuous-time derivative as a 12-tuple of Python floats.

        Written as scalar arithmetic (no intermediate matrix builds, numpy
        dispatch, or array allocation) because four of these run per RK4
        step of every episode.  Expressions follow left-to-right
        dot-product order; results agree with the matrix formulation to
        summation-order round-off (~1e-14), and ``tests/drone/test_drone.py``
        pins the equivalence.  The compiled tick (:mod:`repro.drone.tick_c`)
        repeats these expressions operand for operand.  ``s`` is a
        12-element sequence of floats.
        """
        mass = self._mass
        ixx, iyy, izz = self._inertia_tuple
        mix0, mix1, mix2, mix3 = self._mix_rows
        # wrench = mix @ thrusts, row by row in dot-product order
        total_thrust = mix0[0] * t0 + mix0[1] * t1 + mix0[2] * t2 + mix0[3] * t3
        torque_x = mix1[0] * t0 + mix1[1] * t1 + mix1[2] * t2 + mix1[3] * t3
        torque_y = mix2[0] * t0 + mix2[1] * t1 + mix2[2] * t2 + mix2[3] * t3
        torque_z = mix3[0] * t0 + mix3[1] * t1 + mix3[2] * t2 + mix3[3] * t3

        roll = s[3]
        pitch = s[4]
        yaw = s[5]
        vx = s[6]
        vy = s[7]
        vz = s[8]
        wx = s[9]
        wy = s[10]
        wz = s[11]

        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)

        # thrust_world = R @ [0, 0, total_thrust]: only R's third column
        # survives (the zero terms vanish exactly in floating point).
        tw_x = (cy * sp * cr + sy * sr) * total_thrust
        tw_y = (sy * sp * cr - cy * sr) * total_thrust
        tw_z = (cp * cr) * total_thrust
        ax = (tw_x + fx) / mass
        ay = (tw_y + fy) / mass
        az = (tw_z + fz) / mass - GRAVITY
        # Simple linear aerodynamic drag keeps velocities bounded.
        ax -= 0.05 * vx / mass
        ay -= 0.05 * vy / mass
        az -= 0.05 * vz / mass

        # omega_dot = (torque + ext - omega x (I omega)) / I
        hx, hy, hz = ixx * wx, iyy * wy, izz * wz
        wd_x = (torque_x + ex - (wy * hz - wz * hy)) / ixx
        wd_y = (torque_y + ey - (wz * hx - wx * hz)) / iyy
        wd_z = (torque_z + ez - (wx * hy - wy * hx)) / izz

        # rpy_dot = euler_rate_matrix(rpy) @ omega (with the same pitch
        # singularity guard as euler_rate_matrix).
        cp_safe = (math.copysign(max(abs(cp), 1e-6), cp) if cp != 0 else 1e-6)
        tp = sp / cp_safe
        rpy_x = 1.0 * wx + sr * tp * wy + cr * tp * wz
        rpy_y = 0.0 * wx + cr * wy + -sr * wz
        rpy_z = 0.0 * wx + sr / cp_safe * wy + cr / cp_safe * wz

        return (vx, vy, vz, rpy_x, rpy_y, rpy_z,
                ax, ay, az, wd_x, wd_y, wd_z)

    def derivatives(self, state: np.ndarray, thrusts: np.ndarray) -> np.ndarray:
        """Continuous-time state derivative for given rotor thrusts."""
        s = [float(value) for value in state]
        return np.array(self._derivatives_scalar(
            s, float(thrusts[0]), float(thrusts[1]), float(thrusts[2]),
            float(thrusts[3]),
            float(self._external_force[0]), float(self._external_force[1]),
            float(self._external_force[2]),
            float(self._external_torque[0]), float(self._external_torque[1]),
            float(self._external_torque[2])))

    def _clip_thrusts(self, commanded: np.ndarray) -> np.ndarray:
        return np.clip(commanded, 0.0, self._max_thrust)

    def step(self, commanded_thrusts: np.ndarray) -> np.ndarray:
        """Advance the simulation by one physics timestep (RK4).

        Under the ``c`` kernel backend this is one call into the compiled
        tick (:mod:`repro.drone.tick_c`), which also evaluates the default
        crash predicate for :meth:`has_crashed`; otherwise it is
        :meth:`_step_scalar`.  Both give bit-identical trajectories.
        """
        tick = _compiled_tick
        if tick is None:
            return self._step_scalar(commanded_thrusts)
        binding = self._binding
        if binding is None or binding.tick is not tick:
            binding = self._binding = tick.bind(self)
        self._verdict = None             # stays cleared if the tick raises
        self._verdict = binding.advance(commanded_thrusts, self.dt,
                                        self.rotor_dynamics)
        self.time += self.dt
        return self._state.copy()

    def _step_scalar(self, commanded_thrusts: np.ndarray) -> np.ndarray:
        """The physics step as scalar Python arithmetic (the reference).

        The whole step — thrust clipping, rotor lag, and the four-stage RK4
        combination — allocates exactly two small arrays (the new
        ``rotor_thrusts`` and ``state``).  Every expression preserves the
        floating-point operation order of the vectorized formulation it
        replaced (``clip`` is ``min(max(.))``, the stage sums are evaluated
        left-to-right per element), so trajectories are bit-for-bit
        unchanged.
        """
        self._binding = None     # both arrays are rebound below
        self._verdict = None
        c = np.asarray(commanded_thrusts, dtype=np.float64)
        limit = self._max_thrust
        c0 = min(max(float(c[0]), 0.0), limit)
        c1 = min(max(float(c[1]), 0.0), limit)
        c2 = min(max(float(c[2]), 0.0), limit)
        c3 = min(max(float(c[3]), 0.0), limit)
        if self.rotor_dynamics:
            alpha = self.dt / max(self.params.motor_time_constant, self.dt)
            alpha = min(alpha, 1.0)
            rotors = self._rotors
            r0 = float(rotors[0]) + alpha * (c0 - float(rotors[0]))
            r1 = float(rotors[1]) + alpha * (c1 - float(rotors[1]))
            r2 = float(rotors[2]) + alpha * (c2 - float(rotors[2]))
            r3 = float(rotors[3]) + alpha * (c3 - float(rotors[3]))
        else:
            r0, r1, r2, r3 = c0, c1, c2, c3
        self._rotors = np.array((r0, r1, r2, r3))
        t0 = min(max(r0, 0.0), limit)
        t1 = min(max(r1, 0.0), limit)
        t2 = min(max(r2, 0.0), limit)
        t3 = min(max(r3, 0.0), limit)

        fx = float(self._external_force[0])
        fy = float(self._external_force[1])
        fz = float(self._external_force[2])
        ex = float(self._external_torque[0])
        ey = float(self._external_torque[1])
        ez = float(self._external_torque[2])
        deriv = self._derivatives_scalar

        dt = self.dt
        half = 0.5 * dt
        sixth = dt / 6.0
        s = self._state.tolist()
        k1 = deriv(s, t0, t1, t2, t3, fx, fy, fz, ex, ey, ez)
        stage = [a + half * b for a, b in zip(s, k1)]
        k2 = deriv(stage, t0, t1, t2, t3, fx, fy, fz, ex, ey, ez)
        stage = [a + half * b for a, b in zip(s, k2)]
        k3 = deriv(stage, t0, t1, t2, t3, fx, fy, fz, ex, ey, ez)
        stage = [a + dt * b for a, b in zip(s, k3)]
        k4 = deriv(stage, t0, t1, t2, t3, fx, fy, fz, ex, ey, ez)
        self._state = np.array(
            [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)])
        self.time += dt
        return self._state.copy()

    # -- observation helpers -------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        return self._state[POSITION].copy()

    @property
    def velocity(self) -> np.ndarray:
        return self._state[VELOCITY].copy()

    @property
    def attitude(self) -> np.ndarray:
        return self._state[ATTITUDE].copy()

    def observe(self) -> np.ndarray:
        """Full-state observation (the HIL setup transmits this over UART)."""
        return self._state.copy()

    def has_crashed(self, max_tilt: float = CRASH_THRESHOLDS[0],
                    min_altitude: float = CRASH_THRESHOLDS[1],
                    max_distance: float = CRASH_THRESHOLDS[2]) -> bool:
        """Heuristic crash detector: excessive tilt, ground hit, or fly-away.

        Runs once per physics tick, so the common all-clear path sticks to
        scalar reads; the distance check is ``sqrt(p . p)`` — bit-identical
        to ``np.linalg.norm`` for a real 1-D vector, minus the wrapper.
        After a compiled tick, the default thresholds return the verdict
        the tick computed for the state it wrote; assigning ``state``
        clears it.  (Element writes into ``plant.state`` between a step and
        this call are not seen by that verdict: assign the state instead.)
        """
        verdict = self._verdict
        if verdict is not None and (
                max_tilt, min_altitude, max_distance) == CRASH_THRESHOLDS:
            return verdict
        state = self._state
        if abs(float(state[3])) > max_tilt or abs(float(state[4])) > max_tilt:
            return True
        if float(state[2]) < min_altitude:
            return True
        position = state[POSITION]
        if math.sqrt(float(np.dot(position, position))) > max_distance:
            return True
        return bool(np.any(~np.isfinite(state)))
