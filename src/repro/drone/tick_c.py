"""The quadrotor physics tick as C: one foreign call per plant step.

Under the ``c`` kernel backend (:mod:`repro.tinympc.compiled`),
:meth:`repro.drone.quadrotor.Quadrotor.step` runs :data:`SOURCE`'s
``plant_tick`` instead of the scalar Python step: thrust clip, rotor lag,
the four RK4 stages and the default crash predicate, in place on the
plant's own ``state`` and ``rotor_thrusts`` arrays.  The library is built
and cached by :func:`repro.tinympc.compiled_c.load_plant_tick`; this module
holds the source and the per-plant binding.

Numerical contract
------------------

The tick is **bit-identical** to the scalar Python step, NaN and infinity
included, and ``tests/drone/test_physics_reference.py`` holds it to ``==``:

* every expression is the Python expression with the same operands in the
  same order (C and Python both evaluate ``a * b * c`` and ``a + b + c``
  left to right), and the build passes ``-ffp-contract=off`` so no
  multiply-add is fused;
* ``sin``/``cos``/``sqrt`` are calls into the same libm that ``math``
  uses: ``-fno-builtin`` keeps the compiler from folding, inlining, or
  merging ``sin``/``cos`` into ``sincos``;
* ``min(max(x, 0.0), limit)`` and the ``max``/``min`` of the rotor-lag
  gain are spelled as the comparisons Python's builtins make, so NaN and
  signed zeros select the same operand;
* ``math.sin``/``math.cos`` raise ``ValueError`` on an infinite angle;
  the tick reports that case and leaves ``state`` untouched, as the Python
  step's exception does (the rotor lag is already applied in both).

The crash predicate is the default-threshold :meth:`Quadrotor.has_crashed`.
Its distance test is ``sqrt(np.dot(p, p))`` in Python, and the host BLAS
may order or fuse that three-term dot product differently from plain C.
Within ``1e-12`` (relative) of the threshold the tick therefore returns
"undecided" and the plant evaluates the Python predicate instead.
"""

from __future__ import annotations

import numpy as np

from .quadrotor import CRASH_THRESHOLDS
from .variants import GRAVITY

__all__ = ["SOURCE", "CDEF", "PlantTick"]

SOURCE = r"""
#include <math.h>
#include <stdint.h>

typedef struct {
  double *state;          /* (12,) integrated in place */
  double *rotors;         /* (4,)  rotor-lag thrusts, updated in place */
  const double *force;    /* (3,)  external force, read every tick */
  const double *torque;   /* (3,)  external torque, read every tick */
  double mass, ixx, iyy, izz, gravity;
  double mix[16];         /* mixing matrix, row-major */
  double max_thrust, motor_time_constant;
  double max_tilt, min_altitude, max_distance;
} Plant;

/* min(max(x, 0.0), limit) as Python's builtins pick their operand. */
static inline double clip_thrust(double x, double limit) {
  const double m = (0.0 > x) ? 0.0 : x;
  return (limit < m) ? limit : m;
}

/* Quadrotor._derivatives_scalar, expression for expression.  Returns 1
 * where math.cos/math.sin would raise: an infinite attitude angle. */
static int derivative(const Plant *p, const double *s, const double *t,
                      const double *f, const double *e, double *k) {
  const double *mx = p->mix;
  const double mass = p->mass, ixx = p->ixx, iyy = p->iyy, izz = p->izz;
  const double total = mx[0] * t[0] + mx[1] * t[1] + mx[2] * t[2] + mx[3] * t[3];
  const double tq_x = mx[4] * t[0] + mx[5] * t[1] + mx[6] * t[2] + mx[7] * t[3];
  const double tq_y = mx[8] * t[0] + mx[9] * t[1] + mx[10] * t[2] + mx[11] * t[3];
  const double tq_z = mx[12] * t[0] + mx[13] * t[1] + mx[14] * t[2] + mx[15] * t[3];
  const double roll = s[3], pitch = s[4], yaw = s[5];
  const double vx = s[6], vy = s[7], vz = s[8];
  const double wx = s[9], wy = s[10], wz = s[11];
  if (isinf(roll) || isinf(pitch) || isinf(yaw)) return 1;
  const double cr = cos(roll), sr = sin(roll);
  const double cp = cos(pitch), sp = sin(pitch);
  const double cy = cos(yaw), sy = sin(yaw);

  const double tw_x = (cy * sp * cr + sy * sr) * total;
  const double tw_y = (sy * sp * cr - cy * sr) * total;
  const double tw_z = (cp * cr) * total;
  double ax = (tw_x + f[0]) / mass;
  double ay = (tw_y + f[1]) / mass;
  double az = (tw_z + f[2]) / mass - p->gravity;
  ax -= 0.05 * vx / mass;
  ay -= 0.05 * vy / mass;
  az -= 0.05 * vz / mass;

  const double hx = ixx * wx, hy = iyy * wy, hz = izz * wz;
  const double wd_x = (tq_x + e[0] - (wy * hz - wz * hy)) / ixx;
  const double wd_y = (tq_y + e[1] - (wz * hx - wx * hz)) / iyy;
  const double wd_z = (tq_z + e[2] - (wx * hy - wy * hx)) / izz;

  const double acp = fabs(cp);
  const double cp_safe = (cp != 0) ? copysign((1e-6 > acp) ? 1e-6 : acp, cp)
                                   : 1e-6;
  const double tp = sp / cp_safe;
  k[0] = vx; k[1] = vy; k[2] = vz;
  k[3] = 1.0 * wx + sr * tp * wy + cr * tp * wz;
  k[4] = 0.0 * wx + cr * wy + -sr * wz;
  k[5] = 0.0 * wx + sr / cp_safe * wy + cr / cp_safe * wz;
  k[6] = ax; k[7] = ay; k[8] = az;
  k[9] = wd_x; k[10] = wd_y; k[11] = wd_z;
  return 0;
}

/* Quadrotor.has_crashed at the plant's thresholds: 0 clear, 1 crashed,
 * 2 within rounding of the distance threshold (undecided). */
int32_t plant_verdict(const Plant *p) {
  const double *s = p->state;
  if (fabs(s[3]) > p->max_tilt || fabs(s[4]) > p->max_tilt) return 1;
  if (s[2] < p->min_altitude) return 1;
  for (int i = 0; i < 12; i++)
    if (!isfinite(s[i])) return 1;
  const double distance = sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]);
  if (distance > p->max_distance * (1.0 + 1e-12)) return 1;
  if (distance >= p->max_distance * (1.0 - 1e-12)) return 2;
  return 0;
}

/* Quadrotor.step: returns the crash verdict of the new state, or -1 when
 * an attitude angle went infinite (state untouched, rotors updated). */
int32_t plant_tick(Plant *p, const double *command, double dt,
                   int32_t rotor_dynamics) {
  const double limit = p->max_thrust;
  double *rotors = p->rotors;
  double c[4], t[4];
  for (int i = 0; i < 4; i++) c[i] = clip_thrust(command[i], limit);
  if (rotor_dynamics) {
    const double tau = p->motor_time_constant;
    double alpha = dt / ((dt > tau) ? dt : tau);
    alpha = (1.0 < alpha) ? 1.0 : alpha;
    for (int i = 0; i < 4; i++) rotors[i] = rotors[i] + alpha * (c[i] - rotors[i]);
  } else {
    for (int i = 0; i < 4; i++) rotors[i] = c[i];
  }
  for (int i = 0; i < 4; i++) t[i] = clip_thrust(rotors[i], limit);

  const double f[3] = {p->force[0], p->force[1], p->force[2]};
  const double e[3] = {p->torque[0], p->torque[1], p->torque[2]};
  const double half = 0.5 * dt;
  const double sixth = dt / 6.0;
  double s[12], stage[12], k1[12], k2[12], k3[12], k4[12];
  for (int i = 0; i < 12; i++) s[i] = p->state[i];
  if (derivative(p, s, t, f, e, k1)) return -1;
  for (int i = 0; i < 12; i++) stage[i] = s[i] + half * k1[i];
  if (derivative(p, stage, t, f, e, k2)) return -1;
  for (int i = 0; i < 12; i++) stage[i] = s[i] + half * k2[i];
  if (derivative(p, stage, t, f, e, k3)) return -1;
  for (int i = 0; i < 12; i++) stage[i] = s[i] + dt * k3[i];
  if (derivative(p, stage, t, f, e, k4)) return -1;
  for (int i = 0; i < 12; i++)
    p->state[i] = s[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  return plant_verdict(p);
}
"""

CDEF = """
typedef struct {
  double *state;
  double *rotors;
  const double *force;
  const double *torque;
  double mass, ixx, iyy, izz, gravity;
  double mix[16];
  double max_thrust, motor_time_constant;
  double max_tilt, min_altitude, max_distance;
} Plant;
int32_t plant_verdict(const Plant *p);
int32_t plant_tick(Plant *p, const double *command, double dt,
                   int32_t rotor_dynamics);
"""

# plant_tick's return code -> the has_crashed verdict (None: undecided).
_VERDICTS = (False, True, None)

# No reusable command pointer (none taken yet, or the last was a copy).
_UNSET = object()


class PlantTick:
    """The loaded tick library; :meth:`bind` attaches it to one plant."""

    def __init__(self, lib, ffi, detail) -> None:
        self.lib = lib
        self.ffi = ffi
        self.detail = dict(detail)

    def info(self):
        return dict(self.detail)

    def bind(self, plant) -> "TickBinding":
        return TickBinding(self, plant)


class TickBinding:
    """A ``Plant`` struct pointing at one plant's arrays.

    The plant builds a binding at its first compiled tick and drops it
    whenever it rebinds an array the struct points at (``state``,
    ``rotor_thrusts``, the disturbance wrench), so a binding never reads a
    stale buffer.  The command pointer is re-taken only when the caller
    passes a different command object.
    """

    __slots__ = ("tick", "_fn", "_ffi", "_c", "_keep", "_command",
                 "_command_ptr", "_command_keep")

    def __init__(self, tick: PlantTick, plant) -> None:
        ffi = tick.ffi
        self.tick = tick
        self._fn = tick.lib.plant_tick
        self._ffi = ffi
        self._keep = []
        c = ffi.new("Plant *")
        c.state = self._point(plant.state, 12, "state")
        c.rotors = self._point(plant.rotor_thrusts, 4, "rotor thrusts")
        force, torque = plant._external_force, plant._external_torque
        # A constant disturbance may be any array-like; bound buffers are
        # already contiguous (3,) float64, so this never copies them.
        c.force = self._point(np.ascontiguousarray(force, np.float64), 3,
                              "force")
        c.torque = self._point(np.ascontiguousarray(torque, np.float64), 3,
                               "torque")
        c.mass = plant._mass
        c.ixx, c.iyy, c.izz = plant._inertia_tuple
        c.gravity = GRAVITY
        c.mix = [value for row in plant._mix_rows for value in row]
        c.max_thrust = plant._max_thrust
        c.motor_time_constant = float(plant.params.motor_time_constant)
        c.max_tilt, c.min_altitude, c.max_distance = CRASH_THRESHOLDS
        self._c = c
        self._command: object = _UNSET
        self._command_ptr = None
        self._command_keep = None

    def _point(self, array: np.ndarray, size: int, what: str):
        if (array.dtype != np.float64 or array.shape != (size,)
                or not array.flags.c_contiguous):
            raise ValueError("plant {} must be a contiguous ({},) float64 "
                             "array".format(what, size))
        buf = self._ffi.from_buffer(array)
        self._keep.append(array)
        self._keep.append(buf)
        return self._ffi.cast("double *", buf)

    def _point_command(self, command) -> None:
        if (type(command) is np.ndarray and command.dtype == np.float64
                and command.shape == (4,) and command.flags.c_contiguous):
            # Read through the caller's own array on every tick.
            array, source = command, command
        else:
            flat = np.asarray(command, dtype=np.float64).reshape(-1)
            if flat.size < 4:
                raise IndexError("commanded thrusts need 4 rotor values")
            # A converted copy: never reuse it for a later call.
            array, source = np.ascontiguousarray(flat[:4]), _UNSET
        buf = self._ffi.from_buffer(array)
        self._command_ptr = self._ffi.cast("double *", buf)
        self._command_keep = (array, buf)
        self._command = source

    def verdict(self):
        """The tick's crash verdict for the current state (``None``:
        undecided, evaluate the Python predicate)."""
        return _VERDICTS[self.tick.lib.plant_verdict(self._c)]

    def advance(self, command, dt: float, rotor_dynamics: bool):
        """One tick; returns the crash verdict (``None``: undecided)."""
        if command is not self._command:
            self._point_command(command)
        code = self._fn(self._c, self._command_ptr, dt,
                        1 if rotor_dynamics else 0)
        if code < 0:
            raise ValueError("math domain error")
        return _VERDICTS[code]
