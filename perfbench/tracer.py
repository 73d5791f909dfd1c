"""Per-layer spans and counts for the benchmark's traced run.

`Tracer` wraps every public function of the fieldlab modules (the names in
each module's `__all__`) for the duration of a `with` block.  Modules import
each other's functions by name (`from .rng import stream`), so a wrapper is
installed in every `fieldlab.*` namespace that holds the function, and in
`cli.VERIFIERS`; on exit every original is put back.  Wrappers use
`functools.wraps`, so `inspect.signature` (which the CLI uses to build a
checker's arguments) still sees the real parameters.  One private function
is wrapped as well: `coupling._anchored_xi_batch`, for its calls that draw
the samples of an empirical CDF, so that `coupling.cdf_s` times the CDF
estimate on its own.

Each call is a span: its duration, and its self time, which is the duration
minus the time of its child spans.  Every thread keeps its own span stack,
because `verify.map_replicate_chunks` runs kernels on a thread pool.  That
function only dispatches: the kernels it is given are wrapped as
`verify.kernel` spans in whichever thread runs them, and its own interval,
spent waiting for the pool, is not counted as self time.  Self times are
summed over threads, so on 2 threads they can add up to more than the wall
time.

Spans are folded into per-function totals as they close; `snapshot()` merges
the threads into the counts and seconds that `run.py` reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import Counter

LAYERS = ("rng", "fields", "sums", "coupling", "verify", "cli", "lattice", "theory")

# Calls of one group are timed and counted at the outermost level only, so an
# oracle that calls another oracle is not counted twice.
GROUPS = {
    "sums.block_cov": "sums.oracle",
    "sums.block_var": "sums.oracle",
    "sums.union_var": "sums.oracle",
    "sums.variance_defect": "sums.oracle",
    "coupling.cdf_table": "coupling.cdf",
    "coupling.cdf_xi_batch": "coupling.cdf",
    "coupling.estimate_cdf": "coupling.cdf",
    "coupling.run_coupling": "coupling.run",
    "coupling.block_sums": "coupling.run",
}


def _on_stream(st, gen, args, kwargs):
    replicate = args[2] if len(args) > 2 else kwargs.get("replicate", 0)
    st.keys.add((args[0], args[1], replicate))


def _on_sample_block(st, values, args, kwargs):
    st.counts["fields.replicates"] += 1
    st.counts["fields.cells"] += values.size


def _on_sample_block_batch(st, values, args, kwargs):
    st.counts["fields.replicates"] += values.shape[0]
    st.counts["fields.cells"] += values.size


def _on_innovations(st, z, args, kwargs):
    st.counts["fields.innovations"] += z.size


def _on_make_grid(st, grid, args, kwargs):
    st.counts["sums.grid_cells"] += grid.values.size


def _on_estimate_cdf(st, cdf, args, kwargs):
    st.counts["coupling.cdf_draws"] += cdf.m


def _on_run_coupling(st, run, args, kwargs):
    st.counts["coupling.domain_cells"] += run.field.values.size


def _on_checker(st, report, args, kwargs):
    st.counts["verify.claims"] += 1
    st.counts["verify.claims_failed"] += not report.passed


HOOKS = {
    "rng.stream": _on_stream,
    "fields.sample_block": _on_sample_block,
    "fields.sample_block_batch": _on_sample_block_batch,
    "fields.innovations": _on_innovations,
    "sums.make_grid": _on_make_grid,
    "coupling.estimate_cdf": _on_estimate_cdf,
    "coupling.run_coupling": _on_run_coupling,
}


class _ThreadState:
    """Open spans and folded totals of one thread."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.functions: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.depth: Counter = Counter()  # open calls per group
        self.groups: dict[str, list] = {}  # group -> [outermost calls, seconds]
        self.counts: Counter = Counter()
        self.keys: set = set()


class Tracer:
    """Context manager that traces every public fieldlab function while open."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _span(self, name: str, fn, hook=None, dispatch: bool = False):
        group = GROUPS.get(name)
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            child = [0.0]
            st.stack.append(child)
            if group:
                st.depth[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                rec = st.functions.get(name)
                if rec is None:
                    rec = st.functions[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                if not dispatch:
                    rec[2] += dt - child[0]
                if group:
                    st.depth[group] -= 1
                    if not st.depth[group]:
                        outer = st.groups.setdefault(group, [0, 0.0])
                        outer[0] += 1
                        outer[1] += dt
            if hook is not None:
                hook(st, result, args, kwargs)
            return result

        return traced

    def _dispatcher(self, fn):
        span = self._span("verify.map_replicate_chunks", fn, dispatch=True)

        @functools.wraps(fn)
        def traced(kernel, *args, **kwargs):
            return span(self._span("verify.kernel", kernel), *args, **kwargs)

        return traced

    def _cdf_draws(self, fn):
        """Span `coupling._anchored_xi_batch` when it draws for a CDF estimate.

        The same function draws the evaluation samples; those calls (their
        `field_tag` does not start with "cdf-") stay in their caller's self
        time, so `coupling.cdf_s` holds the CDF draws and estimates only.
        """
        span = self._span("coupling.cdf_xi_batch", fn)

        @functools.wraps(fn)
        def traced(*args, field_tag, **kwargs):
            call = span if field_tag.startswith("cdf-") else fn
            return call(*args, field_tag=field_tag, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        cli = importlib.import_module("fieldlab.cli")  # imports every layer
        checkers = {id(fn) for fn in cli.VERIFIERS.values()}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"fieldlab.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "verify.map_replicate_chunks":
                    wrapper = self._dispatcher(fn)
                else:
                    hook = _on_checker if id(fn) in checkers else HOOKS.get(name)
                    wrapper = self._span(name, fn, hook)
                wrappers[id(fn)] = (fn, wrapper)
        xi_batch = importlib.import_module("fieldlab.coupling")._anchored_xi_batch
        wrappers[id(xi_batch)] = (xi_batch, self._cdf_draws(xi_batch))
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "fieldlab" and not modname.startswith("fieldlab."):
                    continue
                for attr, value in list(vars(mod).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, attr, entry[1])
                        self._undo.append((mod, attr, value))
            for claim, fn in list(cli.VERIFIERS.items()):
                cli.VERIFIERS[claim] = wrappers[id(fn)][1]
                self._undo.append((cli.VERIFIERS, claim, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def snapshot(self) -> tuple[dict, dict, dict]:
        """(counts, seconds, functions) merged over threads.

        Counts, and the call counts in functions, must repeat exactly between
        runs of the same inputs.  Seconds are busy times summed over threads.
        Functions maps each traced function to [calls, seconds, self seconds].
        """
        functions: dict[str, list] = {}
        groups: dict[str, list] = {}
        counts: Counter = Counter()
        keys: set = set()
        with self._lock:
            states = list(self._states)
        for st in states:
            for table, merged in ((st.functions, functions), (st.groups, groups)):
                for name, rec in table.items():
                    acc = merged.setdefault(name, [0] * len(rec))
                    for i, x in enumerate(rec):
                        acc[i] += x
            counts.update(st.counts)
            keys |= st.keys

        def fn(name):  # [calls, seconds, self seconds]
            return functions.get(name, [0, 0.0, 0.0])

        def group(name):  # [outermost calls, seconds]
            return groups.get(name, [0, 0.0])

        out_counts = {
            "rng.streams": fn("rng.stream")[0],
            "rng.distinct_keys": len(keys),
            "fields.replicates": counts["fields.replicates"],
            "fields.cells": counts["fields.cells"],
            "fields.innovations": counts["fields.innovations"],
            "sums.grids": fn("sums.make_grid")[0],
            "sums.grid_cells": counts["sums.grid_cells"],
            "sums.max_sub_block_calls": fn("sums.max_sub_block")[0],
            "sums.partial_sums": fn("sums.partial_sum")[0],
            "sums.oracle_calls": group("sums.oracle")[0],
            "coupling.cdf_shapes": fn("coupling.estimate_cdf")[0],
            "coupling.cdf_draws": counts["coupling.cdf_draws"],
            "coupling.runs": fn("coupling.run_coupling")[0],
            "coupling.domain_cells": counts["coupling.domain_cells"],
            "verify.claims": counts["verify.claims"],
            "verify.claims_failed": counts["verify.claims_failed"],
            "trace.spans": sum(rec[0] for rec in functions.values()),
        }
        seconds = {
            f"{layer}.self_s": math.fsum(
                rec[2] for name, rec in functions.items() if name.startswith(layer + ".")
            )
            for layer in LAYERS
        }
        seconds.update({
            "rng.stream_s": fn("rng.stream")[1],
            "sums.max_sub_block_s": fn("sums.max_sub_block")[1],
            "sums.oracle_s": group("sums.oracle")[1],
            "coupling.cdf_s": group("coupling.cdf")[1],
            "coupling.wiener_s": fn("coupling.build_wiener")[1],
            "coupling.run_s": group("coupling.run")[1],
            "coupling.study_s": fn("coupling.approximation_error_study")[2],
            "verify.emit_s": fn("verify.emit_report")[1],
        })
        return out_counts, seconds, functions
