"""Outside-in span tracing of the program's layers.

Nothing in ``src/`` is instrumented.  :func:`install` replaces the public
entry points of each layer with timing wrappers, each installed where its
caller looks the name up: methods on their class, ``model_report`` and
``evaluate_design_point`` in ``repro.fleet.design_point`` (which binds or
calls them as module globals), and the ``multiprocessing`` module seen by
``repro.fleet.workers`` and ``repro.fleet.supervisor``.

Spans nest on one stack.  A span's self time is its duration minus the
time of the spans it encloses, so the self times of all spans plus the
time no span covers add up to the wall time of the traced campaign.
Spans are aggregated as they close (per-name self time and call count) so
that a million plant steps cost no memory.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Layers a multi-process workload runs in its parent; every other layer
# runs inside the workers.
PARENT_LAYERS = ("fleet.aggregate", "fleet.workers", "fleet.durable",
                 "fleet.supervisor")


class Tracer:
    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the installed wrappers stay."""
        self._stack: List[list] = []          # [name, start_ns, child_ns]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def start(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def stop(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def covered_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9


def _wrap(tracer: Tracer, owner, attr: str, span: str,
          after: Optional[Callable] = None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer.start(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.stop()
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, traced)


def _wrap_generator(tracer: Tracer, owner, attr: str, span: str) -> None:
    """Time each resume of a generator method as one span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        stepper = original(*args, **kwargs)
        response = None
        while True:
            tracer.start(span)
            try:
                request = stepper.send(response)
            except StopIteration:
                return
            finally:
                tracer.stop()
            response = yield request

    setattr(owner, attr, traced)


class _Proxy:
    """Delegates every attribute to ``target`` except those overridden."""

    def __init__(self, target) -> None:
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TimedPool(_Proxy):
    """The parent's whole use of a worker pool, start to teardown, is one
    span: the time it waits on its workers."""

    def __init__(self, tracer: Tracer, pool) -> None:
        super().__init__(pool)
        self._tracer = tracer

    def __enter__(self):
        self._target.__enter__()
        return self

    def __exit__(self, *exc):
        try:
            return self._target.__exit__(*exc)
        finally:
            self._tracer.stop()


class _TimedQueue(_Proxy):
    def __init__(self, tracer: Tracer, queue, span: str) -> None:
        super().__init__(queue)
        self._tracer = tracer
        self._span = span

    def get(self, *args, **kwargs):
        self._tracer.start(self._span)
        try:
            return self._target.get(*args, **kwargs)
        finally:
            self._tracer.stop()


class _Context(_Proxy):
    def __init__(self, tracer: Tracer, context) -> None:
        super().__init__(context)
        self._tracer = tracer

    def Pool(self, *args, **kwargs):          # noqa: N802 - mirrors the API
        self._tracer.start("fleet.workers.wait")
        try:
            pool = self._target.Pool(*args, **kwargs)
        except BaseException:
            self._tracer.stop()
            raise
        return _TimedPool(self._tracer, pool)

    def Queue(self, *args, **kwargs):         # noqa: N802 - mirrors the API
        return _TimedQueue(self._tracer, self._target.Queue(*args, **kwargs),
                           "fleet.supervisor.wait")


class _Multiprocessing(_Proxy):
    def __init__(self, tracer: Tracer, module) -> None:
        super().__init__(module)
        self._tracer = tracer

    def get_context(self, *args, **kwargs):
        return _Context(self._tracer, self._target.get_context(*args, **kwargs))


def _backend_classes():
    from repro.arch.backend import Backend

    seen, pending = [], list(Backend.__subclasses__())
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "run" in vars(cls)]


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call once per process."""
    from repro.codegen.flow import CodegenFlow
    from repro.drone.quadrotor import Quadrotor
    from repro.fleet import (EpisodeFactory, FleetAggregator, FleetScheduler,
                             RunJournal)
    from repro.fleet import design_point, supervisor, workers
    from repro.hil.episode import EpisodeRunner
    from repro.tinympc import BatchTinyMPCSolver, TinyMPCSolver

    _wrap(tracer, Quadrotor, "step", "drone.step")
    _wrap(tracer, Quadrotor, "has_crashed", "drone.crash_check")

    def batch_solved(solution, args, kwargs):
        active = kwargs.get("active")
        width = (int(active.sum()) if active is not None
                 else len(solution.iterations))
        tracer.counts["tinympc.slots"] += width
        tracer.counts["tinympc.admm_iterations"] += int(
            solution.iterations[active].sum() if active is not None
            else solution.iterations.sum())

    def scalar_solved(solution, args, kwargs):
        tracer.counts["tinympc.slots"] += 1
        tracer.counts["tinympc.admm_iterations"] += int(solution.iterations)

    _wrap(tracer, BatchTinyMPCSolver, "solve", "tinympc.solve", batch_solved)
    _wrap(tracer, TinyMPCSolver, "solve", "tinympc.solve", scalar_solved)
    _wrap(tracer, BatchTinyMPCSolver, "import_slot", "tinympc.slot_copy")
    _wrap(tracer, BatchTinyMPCSolver, "export_slot", "tinympc.slot_copy")

    _wrap_generator(tracer, EpisodeRunner, "run", "hil.episode")

    _wrap(tracer, EpisodeFactory, "build", "fleet.campaign.build")

    def scheduled(result, args, kwargs):
        tracer.counts["fleet.scheduler.groups"] += args[0].stats.groups

    _wrap(tracer, FleetScheduler, "run", "fleet.scheduler", after=scheduled)
    _wrap(tracer, FleetAggregator, "add", "fleet.aggregate.add")
    _wrap(tracer, RunJournal, "append", "fleet.durable.append")
    workers.multiprocessing = _Multiprocessing(tracer, workers.multiprocessing)
    supervisor.multiprocessing = _Multiprocessing(
        tracer, supervisor.multiprocessing)

    evaluate = design_point.evaluate_design_point

    @functools.wraps(evaluate)
    def traced_evaluate(*args, **kwargs):
        # An evaluation that neither lowered nor modelled anything was
        # answered from the result memo.
        before = tracer.calls["codegen.lower"] + tracer.calls["arch.model"]
        tracer.start("fleet.design_point.evaluate")
        try:
            return evaluate(*args, **kwargs)
        finally:
            tracer.stop()
            if tracer.calls["codegen.lower"] + tracer.calls["arch.model"] \
                    == before:
                tracer.counts["fleet.design_point.hits"] += 1

    design_point.evaluate_design_point = traced_evaluate

    def lowered(stream, args, kwargs):
        tracer.counts["codegen.instructions"] += len(stream)

    _wrap(tracer, CodegenFlow, "lower", "codegen.lower", lowered)

    def simulated(report, args, kwargs):
        tracer.counts["arch.simulated_cycles"] += report.total_cycles

    for cls in _backend_classes():
        _wrap(tracer, cls, "run", "arch.simulate", simulated)
    _wrap(tracer, design_point, "model_report", "arch.model")


def layer_metrics(tracer: Tracer, report=None,
                  journal_bytes: int = 0) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign (see README.md)."""
    t, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    steps = calls.get("drone.step", 0)
    iterations = counts.get("tinympc.admm_iterations", 0)
    dispatches = calls.get("tinympc.solve", 0)
    evaluations = calls.get("fleet.design_point.evaluate", 0)
    metrics = {
        "drone.step_s": t("drone.step"),
        "drone.crash_check_s": t("drone.crash_check"),
        "drone.steps": steps,
        "drone.us_per_step": (t("drone.step") / steps * 1e6 if steps else 0.0),
        "tinympc.solve_s": t("tinympc.solve"),
        "tinympc.admm_iterations": iterations,
        "tinympc.us_per_slot_iteration": (
            t("tinympc.solve") / iterations * 1e6 if iterations else 0.0),
        "tinympc.dispatches": dispatches,
        "tinympc.mean_batch_width": (
            counts.get("tinympc.slots", 0) / dispatches if dispatches else 0.0),
        "tinympc.slot_copy_s": t("tinympc.slot_copy"),
        "tinympc.slot_copies": calls.get("tinympc.slot_copy", 0),
        "hil.episode.self_s": t("hil.episode"),
        "hil.episode.resumes": calls.get("hil.episode", 0),
        "fleet.campaign.build_s": t("fleet.campaign.build"),
        "fleet.campaign.builds": calls.get("fleet.campaign.build", 0),
        "fleet.scheduler.self_s": t("fleet.scheduler"),
        "fleet.scheduler.groups": counts.get("fleet.scheduler.groups", 0),
        "fleet.aggregate.add_s": t("fleet.aggregate.add"),
        "fleet.workers.wait_s": t("fleet.workers.wait"),
        "fleet.durable.append_s": t("fleet.durable.append"),
        "fleet.durable.records": calls.get("fleet.durable.append", 0),
        "fleet.durable.journal_bytes": journal_bytes,
        "fleet.supervisor.chunks": (
            report.fresh_chunks + report.replayed_chunks if report else 0),
        "fleet.supervisor.spawned_workers": (
            report.spawned_workers if report else 0),
        "fleet.supervisor.retries": report.retries if report else 0,
        "fleet.supervisor.wait_s": t("fleet.supervisor.wait"),
        "fleet.design_point.evaluate_s": t("fleet.design_point.evaluate"),
        "fleet.design_point.cache_hit_ratio": (
            counts.get("fleet.design_point.hits", 0) / evaluations
            if evaluations else 0.0),
        "codegen.lower_s": t("codegen.lower"),
        "codegen.instructions": counts.get("codegen.instructions", 0),
        "arch.simulate_s": t("arch.simulate"),
        "arch.model_s": t("arch.model"),
        "arch.simulated_cycles": counts.get("arch.simulated_cycles", 0),
    }
    return metrics
