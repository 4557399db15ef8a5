"""In-memory span tracer that wraps the public functions of ``robusthmm``
from outside the package.

The package's modules import functions by name (``from .penalty import
forward_image_step``), so a wrapper is installed on every module attribute
and class attribute that refers to the original function: the names callers
actually look up. Each thread keeps its own span stack, so a span's parent
is always the enclosing span of the same thread and self times stay correct
under the CLI's thread pool.

A span's duration is the wrapped call alone. Its self time is that duration
minus the part its direct children cover, where a child covers its wrapper
from entry to exit: the tracer's own bookkeeping is never charged as the
parent's self time, so self times are the program's and the tracer's cost
shows only in ``trace.overhead_s``.

``SimplexGrid.round_to_index`` runs millions of times per pass; it is traced
as an aggregated leaf (call count and total time per thread) instead of one
span record per call, which would cost hundreds of megabytes.

Counters are read from the values the wrapped calls already return or
receive, never from inside the program, so they repeat exactly across runs.

Which end-to-end ``wall_cal`` each layer metric should move (a layer a
workload never calls reads 0 there):

=================================================  ==========================
``cli.write_s`` (``Run.add_csv`` + ``add_json``)    tree-control
``cli.pmap_s``                                      verify
``models.round_s``                                  tree-control, evolve-long;
                                                    ~0 on verify
``penalty.step_self_s``                             tree-control
``penalty.render_s``                                evolve-long, tree-control
``penalty.exact_step_s``, ``oracles.*``             verify
``expectation.*_s``                                 tree-control
``control.solve_self_s``                            tree-control only
=================================================  ==========================

Peak memory of the control registry and of the tree's surfaces shows in
``peak_rss_mb`` on tree-control.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import robusthmm
from robusthmm import cli, control, expectation, hmm, models, oracles, penalty

_MODULES = (robusthmm, cli, control, expectation, hmm, models, oracles,
            penalty)

# span name -> (owner, attribute); owner is a module (function patched on
# every module that imported it) or a class (attribute patched in place)
TRACED = {
    "cli.load_config": (cli, "load_config"),
    "cli.Run.add_csv": (cli.Run, "add_csv"),
    "cli.Run.add_json": (cli.Run, "add_json"),
    "cli.Run.pmap": (cli.Run, "pmap"),
    "models.SimplexGrid.build": (models.SimplexGrid, "build"),
    "hmm.simulate_path": (hmm, "simulate_path"),
    "penalty.forward_image_step": (penalty, "forward_image_step"),
    "penalty.exact_step": (penalty, "exact_step"),
    "penalty.render_surface_csv": (penalty, "render_surface_csv"),
    "expectation.build_observation_tree": (expectation,
                                           "build_observation_tree"),
    "expectation.fill_backward": (expectation, "fill_backward"),
    "expectation.bsde_decompose": (expectation, "bsde_decompose"),
    "expectation.one_step_expectation": (expectation, "one_step_expectation"),
    "expectation.bsde_driver": (expectation, "bsde_driver"),
    "expectation.dr_expectation": (expectation, "dr_expectation"),
    "control.solve": (control, "solve"),
    "oracles.oracle_penalty": (oracles, "oracle_penalty"),
    "oracles.oracle_dr_direct": (oracles, "oracle_dr_direct"),
}
LEAF = ("models.SimplexGrid.round_to_index",
        (models.SimplexGrid, "round_to_index"))

SUP_SCANS = ("expectation.one_step_expectation", "expectation.bsde_driver",
             "expectation.dr_expectation")


class _ThreadState:
    """Span stack and leaf totals of one thread."""

    def __init__(self):
        self.stack: list[list] = []
        self.leaf_calls = 0
        self.leaf_s = 0.0


class _Local(threading.local):
    # runs once per thread on first use; registers that thread's state so
    # the totals stay readable after the thread has ended
    def __init__(self, tracer: "Tracer"):
        self.state = _ThreadState()
        with tracer.lock:
            tracer.threads.append(self.state)


def _observe_step(tracer, result, args, kwargs):
    src, gens, gammas = args[0], args[1], args[2]
    surface, report = result
    live_src = int(np.isfinite(src.values).sum())
    if isinstance(src, penalty.PenaltySurface):
        live_src *= int(np.isfinite(np.asarray(gammas, float)).sum())
    tracer.count(**{"penalty.cell_steps": live_src,
                    "penalty.live_cells": int(np.isfinite(surface.values).sum()),
                    "penalty.infeasible_cells": report.infeasible_cells})


def _observe_artifact(tracer, result, args, kwargs):
    run, name = args[0], result
    size = os.path.getsize(os.path.join(run.out_dir, name))
    tracer.count(**{"cli.files": 1, "cli.bytes": size})


def _observe_tree(tracer, result, args, kwargs):
    tracer.count(**{"expectation.tree_nodes": len(result.nodes)})


def _observe_solve(tracer, result, args, kwargs):
    problem = args[0]
    states = len(result.registry)
    tracer.count(**{"control.states": states,
                    "control.successor_calls": len(result.successors)})
    with tracer.lock:
        tracer.headroom.append(1.0 - states / problem.state_cap)


OBSERVERS = {
    "penalty.forward_image_step": _observe_step,
    "cli.Run.add_csv": _observe_artifact,
    "cli.Run.add_json": _observe_artifact,
    "expectation.build_observation_tree": _observe_tree,
    "control.solve": _observe_solve,
}


class Tracer:
    """Spans and counters for the passes run while it is installed."""

    def __init__(self):
        self.lock = threading.Lock()
        self.threads: list[_ThreadState] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.headroom: list[float] = []
        self._ids = itertools.count(1)
        self._local = _Local(self)
        self._undo: list[tuple] = []

    def count(self, **deltas) -> None:
        with self.lock:
            self.counts.update(deltas)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            entry = perf_counter()
            stack = tracer._local.state.stack
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], parent, threading.get_ident(),
                                     name, start, end, end - start - frame[1]))
            if observe is not None:
                observe(tracer, result, args, kwargs)
            # the parent is charged from wrapper entry to exit, so this
            # wrapper's bookkeeping and counting stay out of its self time
            if stack:
                stack[-1][1] += perf_counter() - entry
            return result

        return traced

    def _leaf(self, fn):
        local = self._local

        def traced(*args, **kwargs):
            entry = perf_counter()
            result = fn(*args, **kwargs)
            took = perf_counter() - entry
            state = local.state
            state.leaf_calls += 1
            state.leaf_s += took
            if state.stack:
                state.stack[-1][1] += perf_counter() - entry
            return result

        return traced

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = make(original)
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, new)

    def install(self) -> None:
        for name, (owner, attr) in TRACED.items():
            self._patch(owner, attr,
                        lambda fn, n=name: self._span(n, fn,
                                                      OBSERVERS.get(n)))
        self._patch(*LEAF[1], self._leaf)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times and counts for everything traced so far."""
        dur = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        for _, _, _, name, start, end, own in self.spans:
            dur[name] += end - start
            self_s[name] += own
            calls[name] += 1
        c = self.counts
        states, succ = c["control.states"], c["control.successor_calls"]
        return {
            "cli.load_config_s": dur["cli.load_config"],
            "cli.write_s": dur["cli.Run.add_csv"] + dur["cli.Run.add_json"],
            "cli.files": c["cli.files"],
            "cli.bytes": c["cli.bytes"],
            "cli.pmap_s": dur["cli.Run.pmap"],
            "models.grid_build_s": dur["models.SimplexGrid.build"],
            "models.round_calls": sum(t.leaf_calls for t in self.threads),
            "models.round_s": sum(t.leaf_s for t in self.threads),
            "penalty.step_calls": calls["penalty.forward_image_step"],
            "penalty.step_self_s": self_s["penalty.forward_image_step"],
            "penalty.cell_steps": c["penalty.cell_steps"],
            "penalty.live_cells": c["penalty.live_cells"],
            "penalty.infeasible_cells": c["penalty.infeasible_cells"],
            "penalty.render_calls": calls["penalty.render_surface_csv"],
            "penalty.render_s": dur["penalty.render_surface_csv"],
            "penalty.exact_step_calls": calls["penalty.exact_step"],
            "penalty.exact_step_s": dur["penalty.exact_step"],
            "expectation.tree_build_self_s":
                self_s["expectation.build_observation_tree"],
            "expectation.backward_s": dur["expectation.fill_backward"],
            "expectation.bsde_s": dur["expectation.bsde_decompose"],
            "expectation.sup_scan_calls": sum(calls[n] for n in SUP_SCANS),
            "expectation.sup_scan_s": sum(dur[n] for n in SUP_SCANS),
            "expectation.tree_nodes": c["expectation.tree_nodes"],
            "control.solve_self_s": self_s["control.solve"],
            "control.states": states,
            "control.successor_calls": succ,
            "control.dedup_ratio": states / succ if succ else 0.0,
            "control.cap_headroom": min(self.headroom, default=1.0),
            "oracles.penalty_s": dur["oracles.oracle_penalty"],
            "oracles.dr_direct_s": dur["oracles.oracle_dr_direct"],
            "hmm.simulate_s": dur["hmm.simulate_path"],
        }

    def write_spans(self, path: str, label: str) -> None:
        """Append this tracer's spans as JSON lines, one span per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, tid, name, start, end, own in self.spans:
                fh.write(json.dumps({"pass": label, "id": sid,
                                     "parent": parent, "thread": tid,
                                     "name": name, "start": start,
                                     "end": end, "self_s": own}) + "\n")
            for i, t in enumerate(self.threads):
                if t.leaf_calls:
                    fh.write(json.dumps({"pass": label, "leaf": LEAF[0],
                                         "thread_slot": i,
                                         "calls": t.leaf_calls,
                                         "total_s": t.leaf_s}) + "\n")
