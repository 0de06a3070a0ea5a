"""Span tracing of the program's layers from outside the program.

Each traced function is wrapped at the name its caller looks up (for
example ``dirmarl.learner.simulate_rollout``, which is where the
learner finds it, not only ``dirmarl.warehouse.simulate_rollout``).
A span records its name, start, end, parent span and lane id; spans
stay in memory and are written out once, at the end of the run.  A
target missing from the program is reported as absent, not an error.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import time

# (span name, module, attribute path, attribute extractor or None).
# An extractor maps (args, kwargs, result) to a number kept on the span.
TARGETS = [
    ("configio.load", "dirmarl", "load_config", None),
    ("graphs.build", "dirmarl", "build_artifacts",
     lambda a, k, r: (len(r.learning.edges), r.clusters.num_clusters)),
    ("experiments.run", "dirmarl", "run_experiment", lambda a, k, r: a[0]),
    ("experiments.summarize", "dirmarl", "summarize", None),
    ("validation.battery", "dirmarl", "run_validation",
     lambda a, k, r: (bool(k.get("quick", False)), sum(not c.passed for c in r))),
    ("graphs.build", "dirmarl.experiments", "build_artifacts",
     lambda a, k, r: (len(r.learning.edges), r.clusters.num_clusters)),
    ("learner.train", "dirmarl.experiments", "train", None),
    ("oracles.perturb", "dirmarl.experiments", "sample_perturbation", None),
    ("experiments.csv_write", "dirmarl.experiments", "write_run_csv",
     lambda a, k, r: os.path.getsize(a[0])),
    ("experiments.csv_read", "dirmarl.experiments", "read_run_csv", None),
    ("experiments.summary_write", "dirmarl.experiments", "write_summary", None),
    ("learner.episode", "dirmarl.learner", "run_episode", None),
    ("warehouse.rollout", "dirmarl.learner", "simulate_rollout", None),
    ("oracles.perturb", "dirmarl.learner", "sample_perturbation", None),
    ("oracles.estimate", "dirmarl.learner", "one_point", None),
    ("oracles.estimate", "dirmarl.learner", "two_point", None),
    ("oracles.estimate", "dirmarl.learner", "residual", None),
    ("learner.exchange", "dirmarl.learner", "MessageBus.exchange", None),
    ("learner.finish", "dirmarl.learner", "MessageBus.finish_episode", lambda a, k, r: r),
    ("warehouse.observe", "dirmarl.warehouse", "WarehouseEnv.observation_matrix", None),
    ("warehouse.observe", "dirmarl.warehouse", "WarehouseEnv.demand_row", None),
    ("warehouse.check", "dirmarl.warehouse", "WarehouseEnv.validate_allocations", None),
    ("warehouse.transition", "dirmarl.warehouse", "WarehouseEnv.apply_transition", None),
    ("warehouse.reward", "dirmarl.warehouse", "step_rewards", None),
    ("warehouse.noise", "dirmarl.warehouse", "WarehouseEnv.draw_noise_trace", None),
    ("policy.act", "dirmarl.policy", "BoundRbfPolicy.act_matrix", None),
    ("policy.bind", "dirmarl.policy", "RbfPolicy.bind", None),
    ("validation.moments", "dirmarl.validation", "oracle_moments",
     lambda a, k, r: k.get("num_samples", a[3] if len(a) > 3 else None)),
    ("validation.mc_gradient", "dirmarl.validation", "mc_smoothed_gradient", None),
]

# span record fields
NAME, START, END, PARENT, LANE, CHILD, ATTR = range(7)


class Tracer:
    """Collects spans while installed.  Not thread-safe: the benchmark
    and the program are single threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.lane: str | None = None
        self.on_train = None   # callback(args) -> lane id for a learner.train span
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module, path, extract in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{name} ({module}.{path})")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extract))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.lane, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, end: float) -> None:
        rec[END] = end
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += end - rec[START]

    @contextlib.contextmanager
    def span(self, name: str, lane: str | None = None):
        """Span opened by the benchmark itself (a root such as set-up)."""
        saved = self.lane
        self.lane = lane if lane is not None else saved
        rec = self._open(name)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            self._close(rec, time.perf_counter())
            self.lane = saved

    def _wrap(self, name: str, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = tracer.lane
            if name == "learner.train" and tracer.on_train is not None:
                tracer.lane = tracer.on_train(args)
            rec = tracer._open(name)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, time.perf_counter())
                rec[ATTR] = "raised " + type(exc).__name__
                tracer.lane = saved
                raise
            tracer._close(rec, time.perf_counter())
            tracer.lane = saved
            if extract is not None:
                rec[ATTR] = extract(args, kwargs, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------

    def descendants(self) -> dict[int, list[list]]:
        """Top-level span index -> every span below it.  Children are
        appended after their parent, so one forward pass suffices."""
        root_of: list[int] = []
        out: dict[int, list[list]] = {}
        for i, s in enumerate(self.spans):
            r = i if s[PARENT] < 0 else root_of[s[PARENT]]
            root_of.append(r)
            if r != i:
                out.setdefault(r, []).append(s)
            else:
                out.setdefault(r, [])
        return out

    def write(self, path: str) -> None:
        """Dump every span as gzip'd CSV: id,parent,lane,name,start,end,self."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,lane,name,start_s,end_s,self_s\n")
            for i, s in enumerate(self.spans):
                dur = s[END] - s[START]
                fh.write(f"{i},{s[PARENT]},{s[LANE] or ''},{s[NAME]},{s[START]:.9f},"
                         f"{s[END]:.9f},{dur - s[CHILD]:.9f}\n")


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s[END] - s[START]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - s[CHILD]
    return out
