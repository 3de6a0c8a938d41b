"""Per-row termination of batched solves on the c backend.

:meth:`BatchTinyMPCSolver.solve` dispatches each solve through one kernel
attribute, :func:`repro.tinympc.kernels.solve_rows`.  Its default is the
masked loop: every iteration runs the whole batch and rows that terminate
are snapshotted and restored.  The c backend replaces it with one foreign
call in which each requesting row iterates on its own until it terminates.
The contract under test:

* the fused call and the masked loop running the same C per-iteration
  kernels agree bit for bit: iteration counts, convergence verdicts,
  residuals, warm-start flags and every workspace buffer, over batch
  widths, active masks, warm/cold mixes, termination cadences, iteration
  caps, staggered tolerances and non-finite states;
* rows outside the ``active`` mask are untouched on both paths;
* the naive swap neutralizes the fused path, and float32 keeps the masked
  loop;
* a mixed waypoint + recovery campaign gives bitwise-equal rows fused vs
  masked, and capped vs uncapped.

When ``REPRO_KERNEL_BACKEND=c`` is set, a ``c`` backend that does not
resolve fails these tests instead of skipping them.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import CampaignSpec, run_campaign
from repro.tinympc import (
    BatchTinyMPCSolver,
    SolverSettings,
    available_backends,
    compute_cache,
    default_quadrotor_problem,
    use_compiled_kernels,
    use_naive_kernels,
)
from repro.tinympc import kernels
from repro.tinympc.compiled import resolve_backend
from repro.tinympc.workspace import RESIDUAL_FIELDS, WORKSPACE_BUFFERS

PROBLEM = default_quadrotor_problem()
CACHE = compute_cache(PROBLEM)


def _c_backend():
    """Install the c backend for a block; it must resolve when requested."""
    if resolve_backend("c")[0] is None:
        reason = "c backend unavailable: {}".format(available_backends()["c"])
        if os.environ.get("REPRO_KERNEL_BACKEND", "").lower() == "c":
            pytest.fail(reason)
        pytest.skip(reason)
    return use_compiled_kernels("c")


@contextmanager
def _masked_loop():
    """Route ``solve_rows`` through the masked default loop for a block."""
    saved = kernels.solve_rows
    kernels.solve_rows = kernels._DEFAULT_SOLVE_ROWS
    try:
        yield
    finally:
        kernels.solve_rows = saved


@contextmanager
def _counting_preludes():
    """Count per-iteration ``iteration_prelude`` dispatches in a block."""
    saved = kernels.iteration_prelude
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return saved(*args, **kwargs)

    kernels.iteration_prelude = counted
    try:
        yield calls
    finally:
        kernels.iteration_prelude = saved


def _state(solver):
    """Every bit a solve can change: workspace, residuals, warm flags."""
    ws = solver.workspace
    state = {name: getattr(ws, name).copy() for name in WORKSPACE_BUFFERS}
    for name in RESIDUAL_FIELDS:
        state[name] = np.array(getattr(ws, name), copy=True)
    state["_warm"] = solver._warm.copy()
    return state


def _load(solver, state):
    ws = solver.workspace
    for name in WORKSPACE_BUFFERS + RESIDUAL_FIELDS:
        np.copyto(getattr(ws, name), state[name])
    np.copyto(solver._warm, state["_warm"])


def _assert_bitwise(got, expected, rows=None, label=""):
    """``got == expected`` bit for bit (NaN payloads and signed zeros too),
    on all rows or only on ``rows``."""
    for name, array in expected.items():
        a, b = got[name], array
        if rows is not None:
            a, b = a[rows], b[rows]
        assert a.dtype == b.dtype and a.shape == b.shape, (label, name)
        assert a.tobytes() == b.tobytes(), "{}: {} differs".format(label, name)


def _solution_state(solution):
    state = {"iterations": solution.iterations,
             "converged": solution.converged,
             "warm_started": solution.warm_started,
             "active": solution.active,
             "states": solution.states, "inputs": solution.inputs}
    state.update(solution.residuals)
    return state


def _draw_case(data):
    batch = data.draw(st.integers(1, 9), label="batch")
    active = np.array(data.draw(
        st.lists(st.booleans(), min_size=batch, max_size=batch)
        .filter(any), label="active"))
    warm = np.array(data.draw(
        st.lists(st.booleans(), min_size=batch, max_size=batch),
        label="warm"))
    solver_settings = SolverSettings(
        max_iterations=data.draw(st.integers(1, 12), label="max_iterations"),
        check_termination_every=data.draw(st.sampled_from((1, 2, 3)),
                                          label="every"),
        # Tolerances spanning "first check" to "never": rows terminate at
        # different iterations, or not at all.
        abs_primal_tolerance=10.0 ** data.draw(st.floats(-5.0, -0.5),
                                               label="log_primal"),
        abs_dual_tolerance=10.0 ** data.draw(st.floats(-5.0, -0.5),
                                             label="log_dual"),
        warm_start=data.draw(st.booleans(), label="warm_start"))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    poison = data.draw(st.sampled_from((None, np.nan, np.inf, -np.inf)),
                       label="poison")
    poison_row = data.draw(st.integers(0, batch - 1), label="poison_row")
    return (batch, active, warm, solver_settings, seed, poison, poison_row)


def _inputs(batch, seed, scale):
    rng = np.random.default_rng(seed)
    x0 = scale * rng.standard_normal((batch, PROBLEM.state_dim))
    goal = np.zeros((batch, PROBLEM.state_dim))
    goal[:, 0:3] = rng.uniform(-0.5, 0.5, (batch, 3))
    return x0, goal


class TestFusedMatchesMaskedLoop:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bitwise_over_masks_caps_and_tolerances(self, data):
        (batch, active, warm, solver_settings, seed, poison,
         poison_row) = _draw_case(data)
        with _c_backend():
            assert kernels.solve_rows is not kernels._DEFAULT_SOLVE_ROWS
            fused = BatchTinyMPCSolver(PROBLEM, batch, solver_settings, CACHE)
            masked = BatchTinyMPCSolver(PROBLEM, batch, solver_settings,
                                        CACHE)
            # A realistic carried state: one all-rows solve, then the drawn
            # warm/cold mix (a cold row is one never solved).
            x0, goal = _inputs(batch, seed, 0.05)
            fused.solve(x0, Xref=goal)
            fused._warm[:] = warm
            before = _state(fused)
            _load(masked, before)

            x0, goal = _inputs(batch, seed + 1, 0.1)
            if poison is not None:
                x0[poison_row, data.draw(
                    st.integers(0, PROBLEM.state_dim - 1),
                    label="poison_col")] = poison
            with _counting_preludes() as preludes:
                got = fused.solve(x0, Xref=goal, active=active)
            assert preludes[0] == 0       # one foreign call, no iterations
            with _masked_loop():
                expected = masked.solve(x0, Xref=goal, active=active)

        _assert_bitwise(_state(fused), _state(masked), label="workspace")
        _assert_bitwise(_solution_state(got), _solution_state(expected),
                        label="solution")
        # Rows outside the mask keep every bit they had.
        inactive = np.flatnonzero(~active)
        _assert_bitwise(_state(fused), before, rows=inactive,
                        label="inactive rows")
        assert not got.iterations[inactive].any()
        assert not got.converged[inactive].any()
        assert (got.iterations[active] >= 1).all()
        assert (got.iterations[active]
                <= solver_settings.max_iterations).all()

    def test_every_row_terminating_early_still_matches(self):
        """Loose tolerances: every row stops at its first check, so the
        masked loop exits before its backward pass."""
        loose = SolverSettings(abs_primal_tolerance=10.0,
                               abs_dual_tolerance=10.0)
        with _c_backend():
            fused = BatchTinyMPCSolver(PROBLEM, 4, loose, CACHE)
            masked = BatchTinyMPCSolver(PROBLEM, 4, loose, CACHE)
            x0, goal = _inputs(4, 5, 0.1)
            got = fused.solve(x0, Xref=goal)
            with _masked_loop():
                expected = masked.solve(x0, Xref=goal)
        assert got.converged.all() and (got.iterations == 1).all()
        _assert_bitwise(_state(fused), _state(masked))
        _assert_bitwise(_solution_state(got), _solution_state(expected))


class TestDispatch:
    def test_naive_swap_neutralizes_the_fused_path(self):
        x0, goal = _inputs(3, 11, 0.1)
        active = np.array([True, False, True])
        with use_naive_kernels():
            reference = BatchTinyMPCSolver(PROBLEM, 3, cache=CACHE).solve(
                x0, Xref=goal, active=active)
        with _c_backend():
            with use_naive_kernels():
                assert kernels.solve_rows is kernels._DEFAULT_SOLVE_ROWS
                swapped = BatchTinyMPCSolver(PROBLEM, 3, cache=CACHE).solve(
                    x0, Xref=goal, active=active)
            assert kernels.solve_rows is not kernels._DEFAULT_SOLVE_ROWS
        # Under the swap the c backend computes nothing: the solve is the
        # naive numpy reference, bit for bit.
        _assert_bitwise(_solution_state(swapped), _solution_state(reference))

    def test_float32_keeps_the_masked_loop(self):
        x0, goal = _inputs(3, 13, 0.1)
        with _c_backend():
            f32 = SolverSettings(dtype="float32")
            solver = BatchTinyMPCSolver(PROBLEM, 3, f32, CACHE)
            with _counting_preludes() as preludes:
                solution = solver.solve(x0, Xref=goal)
            assert preludes[0] == solution.iterations.max()
            f64 = BatchTinyMPCSolver(PROBLEM, 3, cache=CACHE)
            with _counting_preludes() as preludes:
                f64.solve(x0, Xref=goal)
            assert preludes[0] == 0

    def test_numpy_default_is_the_masked_loop(self):
        with use_compiled_kernels("numpy"):
            assert kernels.solve_rows is kernels._DEFAULT_SOLVE_ROWS


# Waypoint and recovery episodes over two compatibility groups (two control
# rates) that finish at different ticks, so slots free up mid-run.
MIXED = (CampaignSpec(
    name="rows-waypoint", difficulties=("easy", "medium"), seeds=(0, 1),
    frequencies_mhz=(100.0, 250.0),
    control_rates_hz=(100.0, 50.0)).expand()[:10]
    + CampaignSpec(
        name="rows-recovery", episode_kind="recovery",
        disturbance_categories=("force",), disturbance_kinds=("step",),
        mass_scales=(1.0, 1.3), sensor_noise_std=0.002,
        sensor_dropout_rate=0.05).expand()[:6])


def _result_bits(result):
    fields = ("success", "crashed", "final_distance", "actuation_power_w",
              "soc_power_w", "flight_time_s", "solve_iterations",
              "solve_times", "recovered", "time_to_recovery",
              "max_deviation")
    return tuple(repr(getattr(result, name, None)) for name in fields)


class TestCampaignRows:
    def test_fused_masked_and_capped_campaigns_are_bitwise_equal(self):
        with _c_backend():
            fused = run_campaign(MIXED)
            capped = run_campaign(MIXED, max_batch=3)
            with _masked_loop():
                masked = run_campaign(MIXED)
        assert fused.stats.batched_solves > 0
        assert capped.stats.max_batch_width <= 3
        bits = [_result_bits(r) for r in fused.results]
        assert [_result_bits(r) for r in masked.results] == bits
        assert [_result_bits(r) for r in capped.results] == bits
        assert repr(masked.rows()) == repr(fused.rows())
        assert repr(capped.rows()) == repr(fused.rows())
