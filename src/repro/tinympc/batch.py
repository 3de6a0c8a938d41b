"""Batched TinyMPC: solve ``B`` instances of one MPC problem at once.

Design-space sweeps, HIL scenario grids, and Pareto experiments all solve
the *same* problem structure (one ``A``/``B``/``Q``/``R``/horizon) from many
initial states and references.  Looping a scalar
:class:`~repro.tinympc.solver.TinyMPCSolver` over those instances spends
most of its time in Python call overhead, because the per-knot-point tensors
are tiny (4-150 elements — the very characterization the paper builds on).

:class:`BatchTinyMPCSolver` stacks ``B`` instances into ``(B, N, n)``
workspaces (:class:`~repro.tinympc.workspace.BatchTinyMPCWorkspace`) and
runs the ADMM backward/forward passes, slack/dual updates, and residual
reductions as single vectorized numpy calls through the *same* kernel
functions the scalar solver uses (:mod:`repro.tinympc.kernels`) — a batch
dimension of one is the existing solver.

Every instance stops at its own termination.  How depends on the kernel
backend, through the one dispatch point :func:`repro.tinympc.kernels
.solve_rows`:

* numpy (and numba, and float32 on c) masks: every iteration runs the
  whole batch, because vectorizing over the batch is what makes numpy
  fast, and the moment an instance satisfies the termination test its
  buffers are snapshotted; after the loop those snapshots are restored;
* the c backend solves each requesting instance to its own termination
  inside one foreign call, so a converged or inactive row costs nothing.

Both leave every instance exactly as stopping its iteration early would,
bit for bit the same on the c backend (``tests/tinympc/test_solve_rows
.py``), so batched and sequential solves agree to tight tolerances
(``tests/tinympc/test_batch.py`` asserts ``rtol=1e-10``), including
iteration counts and the warm-start state carried into the next solve.

The ``active`` mask of :meth:`BatchTinyMPCSolver.solve` additionally lets a
caller solve only a subset of instances while the rest keep their
warm-start state untouched: only the active rows' references, initial
states, cold-start zeroing and input clip are written.  The fleet
scheduler (:mod:`repro.fleet.scheduler`) relies on it to keep each HIL
episode's warm start resident in a slot of its own and solve only the
requesting slots per dispatch.
:meth:`BatchTinyMPCSolver.export_slot` / :meth:`~BatchTinyMPCSolver
.import_slot` park per-instance state outside the solver; the scheduler
uses them only when a ``max_batch`` cap leaves fewer slots than episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from . import kernels
from .cache import LQRCache, compute_cache
from .problem import MPCProblem
from .solver import SolverSettings, TinyMPCSolution, _apply_compute_dtype
from .workspace import (
    COLD_START_BUFFERS,
    RESIDUAL_FIELDS,
    WORKSPACE_BUFFERS,
    BatchTinyMPCWorkspace,
)

__all__ = ["BatchTinyMPCSolution", "BatchTinyMPCSolver", "RowSolveBuffers"]


@dataclass
class BatchTinyMPCSolution:
    """Result of one batched MPC solve over ``B`` instances.

    Arrays carry the batch axis first; ``iterations``, ``converged``,
    ``warm_started``, and ``active`` are per-instance vectors.  Entries for
    instances outside the solve's ``active`` mask are the (stale) values of
    their previous solve.
    """

    states: np.ndarray            # (B, N, n) predicted states
    inputs: np.ndarray            # (B, N-1, m) planned inputs
    iterations: np.ndarray        # (B,) ADMM iterations used (0 if inactive)
    converged: np.ndarray         # (B,) bool
    residuals: Dict[str, np.ndarray]   # each (B,)
    warm_started: np.ndarray      # (B,) bool
    active: np.ndarray            # (B,) bool — instances this solve updated

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    def __len__(self) -> int:
        return self.batch_size

    @property
    def control(self) -> np.ndarray:
        """The first planned input of every instance, shape ``(B, m)``."""
        return self.inputs[:, 0, :]

    def instance(self, index: int) -> TinyMPCSolution:
        """Extract one instance as a scalar :class:`TinyMPCSolution`."""
        return TinyMPCSolution(
            states=self.states[index].copy(),
            inputs=self.inputs[index].copy(),
            iterations=int(self.iterations[index]),
            converged=bool(self.converged[index]),
            residuals={name: float(values[index])
                       for name, values in self.residuals.items()},
            warm_started=bool(self.warm_started[index]),
        )

    def __iter__(self) -> Iterator[TinyMPCSolution]:
        return (self.instance(index) for index in range(self.batch_size))


class BatchTinyMPCSolver:
    """ADMM MPC solver for a batch of instances of one problem.

    The batch shares a single :class:`~repro.tinympc.cache.LQRCache` (the
    instances differ only in initial state and reference) and one stacked
    workspace, so every kernel runs as one numpy call per horizon step
    instead of one per instance per horizon step.
    """

    def __init__(self, problem: MPCProblem, batch_size: int,
                 settings: Optional[SolverSettings] = None,
                 cache: Optional[LQRCache] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.problem = problem
        self.batch_size = batch_size
        self.settings = settings or SolverSettings()
        self.cache = cache or compute_cache(problem)
        self.workspace = BatchTinyMPCWorkspace(problem, batch=batch_size)
        _apply_compute_dtype(self.workspace, self.settings)
        self._warm = np.zeros(batch_size, dtype=bool)
        self._rows = RowSolveBuffers(self.workspace, self.settings)
        self.total_batch_solves = 0
        self.total_instance_solves = 0
        self.total_iterations = 0

    # -- public API ---------------------------------------------------------
    def reset(self) -> None:
        """Forget all warm-start state for every instance."""
        self.workspace.reset()
        self._warm[:] = False

    def set_reference(self, Xref: np.ndarray,
                      Uref: Optional[np.ndarray] = None) -> None:
        """Set tracking references (shared or per-instance shapes)."""
        self.workspace.set_reference(Xref, Uref)

    def solve(self, x0: np.ndarray, Xref: Optional[np.ndarray] = None,
              Uref: Optional[np.ndarray] = None,
              active: Optional[np.ndarray] = None) -> BatchTinyMPCSolution:
        """Solve the batch from initial states ``x0`` (``(B, n)`` or ``(n,)``).

        ``active`` optionally masks the solve to a subset of instances: rows
        outside the mask are left exactly as their previous solve finished
        (workspace, warm-start state, and residuals untouched), and their
        solution entries are stale.  Rows of ``x0``/``Xref`` corresponding to
        inactive instances are ignored.

        As in the scalar solver, the workspace inputs are clipped to the
        input box in place on return, so the solution and the carried
        warm-start state agree.
        """
        ws = self.workspace
        settings = self.settings
        B = self.batch_size
        rows = self._rows
        if active is None:
            rows.active.fill(True)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != (B,):
                raise ValueError("active must have shape ({},)".format(B))
            if not active.any():
                raise ValueError("at least one instance must be active")
            np.copyto(rows.active, active)
        active = rows.active
        index = np.flatnonzero(active)
        rows.index[:index.size] = index
        rows.count = index.size

        # Only the requesting rows are written; the rest keep their state.
        if Xref is not None:
            ws.set_reference(Xref, Uref, rows=index)
        warm = active & self._warm if settings.warm_start else np.zeros(B, bool)
        cold_index = np.flatnonzero(active & ~warm)
        if cold_index.size:
            for name in COLD_START_BUFFERS:
                getattr(ws, name)[cold_index] = 0.0
        ws.set_initial_state(x0, rows=index)

        rows.iterations.fill(0)
        rows.converged.fill(False)
        # One dispatch point: the masked whole-batch loop by default, one
        # foreign call on the c backend, the naive kernels under the
        # benchmark harness's swap.
        kernels.solve_rows(ws, self.cache, rows)
        u = ws.u[index]
        np.clip(u, self.problem.u_min, self.problem.u_max, out=u)
        ws.u[index] = u

        self._warm[index] = True
        self.total_batch_solves += 1
        self.total_instance_solves += index.size
        self.total_iterations += int(rows.iterations.sum())
        return BatchTinyMPCSolution(
            states=ws.x.copy(),
            inputs=ws.u.copy(),
            iterations=rows.iterations.copy(),
            converged=rows.converged.copy(),
            residuals={name: np.array(getattr(ws, name), dtype=np.float64,
                                      copy=True)
                       for name in RESIDUAL_FIELDS},
            warm_started=warm,
            active=active.copy(),
        )

    # -- slot virtualization -------------------------------------------------
    #
    # When the fleet scheduler (:mod:`repro.fleet.scheduler`) runs *more*
    # episodes than the solver has slots (a ``max_batch`` cap), an episode
    # that needs a slot evicts one whose holder is not being solved: the
    # holder's warm-start state is exported, the newcomer's imported.
    # Because the export/import round-trip copies the raw workspace rows
    # bit-for-bit, a slot-virtualized solve sequence is numerically
    # identical to giving every episode a persistent slot.

    def export_slot(self, index: int,
                    out: Optional[Dict[str, np.ndarray]] = None
                    ) -> Dict[str, np.ndarray]:
        """Copy one slot's carried solver state (for later ``import_slot``).

        The snapshot contains every workspace buffer plus the slot's
        warm-start flag under the reserved key ``"_warm"``.  Passing a
        previously exported state as ``out`` copies into its arrays in
        place instead of allocating a fresh snapshot — the fleet
        scheduler's per-episode carried state reuses one set of arrays for
        an episode's whole lifetime this way.
        """
        ws = self.workspace
        if out is None:
            out = {name: getattr(ws, name)[index].copy()
                   for name in WORKSPACE_BUFFERS}
        else:
            for name in WORKSPACE_BUFFERS:
                np.copyto(out[name], getattr(ws, name)[index])
        out["_warm"] = bool(self._warm[index])
        return out

    def import_slot(self, index: int,
                    state: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Load carried solver state into a slot (``None`` = fresh/cold slot).

        A fresh slot behaves exactly like an instance that has never solved:
        the next solve cold-starts it.
        """
        if state is None:
            for name in WORKSPACE_BUFFERS:
                getattr(self.workspace, name)[index] = 0.0
            self._warm[index] = False
            return
        for name in WORKSPACE_BUFFERS:
            getattr(self.workspace, name)[index] = state[name]
        self._warm[index] = bool(state["_warm"])

    # -- diagnostics ----------------------------------------------------------
    @property
    def average_iterations(self) -> float:
        if self.total_instance_solves == 0:
            return 0.0
        return self.total_iterations / self.total_instance_solves


class RowSolveBuffers:
    """Per-solver buffers of one :meth:`BatchTinyMPCSolver.solve` dispatch.

    The solver fills ``active`` (the requesting rows as a mask) and the
    first ``count`` entries of ``index`` (the same rows as ascending
    ``int32`` indices) and zeroes ``iterations``/``converged``;
    :func:`repro.tinympc.kernels.solve_rows` then writes each requesting
    row's iteration count and termination verdict.  Allocated once per
    solver, so a compiled backend can take its pointers once (``c_pointers``
    is its cache) and the masked loop's per-iteration bookkeeping allocates
    nothing.  The remaining arrays serve the masked loop only: mask scratch
    and the freeze/restore store where terminated or inactive rows park
    their state while the rest of the batch keeps iterating.
    """

    def __init__(self, ws: BatchTinyMPCWorkspace,
                 settings: SolverSettings) -> None:
        B = ws.batch
        self.workspace = ws
        self.settings = settings
        self.active = np.zeros(B, dtype=bool)
        self.index = np.zeros(B, dtype=np.int32)
        self.count = 0
        self.iterations = np.zeros(B, dtype=np.int64)
        self.converged = np.zeros(B, dtype=bool)
        self.c_pointers = None
        self.frozen = np.empty(B, dtype=bool)
        self.live = np.empty(B, dtype=bool)
        self.newly = np.empty(B, dtype=bool)
        self._term = np.empty(B, dtype=bool)
        self._store = {name: np.empty_like(getattr(ws, name))
                       for name in WORKSPACE_BUFFERS}
        self._residual_store = {name: np.full(B, np.inf)
                                for name in RESIDUAL_FIELDS}

    def termination_into(self, out: np.ndarray) -> None:
        """``out[b] = row b satisfies the termination test`` (no allocs)."""
        ws = self.workspace
        settings = self.settings
        term = self._term
        np.less(ws.primal_residual_state, settings.abs_primal_tolerance, out=out)
        np.less(ws.primal_residual_input, settings.abs_primal_tolerance, out=term)
        np.logical_and(out, term, out=out)
        np.less(ws.dual_residual_state, settings.abs_dual_tolerance, out=term)
        np.logical_and(out, term, out=out)
        np.less(ws.dual_residual_input, settings.abs_dual_tolerance, out=term)
        np.logical_and(out, term, out=out)

    def save(self, index: np.ndarray) -> None:
        ws = self.workspace
        for name in WORKSPACE_BUFFERS:
            self._store[name][index] = getattr(ws, name)[index]
        for name in RESIDUAL_FIELDS:
            self._residual_store[name][index] = getattr(ws, name)[index]

    def restore(self, index: np.ndarray) -> None:
        ws = self.workspace
        for name in WORKSPACE_BUFFERS:
            getattr(ws, name)[index] = self._store[name][index]
        for name in RESIDUAL_FIELDS:
            getattr(ws, name)[index] = self._residual_store[name][index]
