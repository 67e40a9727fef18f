"""Spans around the public functions of each ``tropifs`` module.

A function is wrapped in every module that holds it by name, not only where
it is defined (``config.validate``, ``fuzzy.hausdorff``, ``cli.build_invariant``
and so on), so no call escapes its span.  Each span records its name, its
parent span, start and end on the monotonic clock, whether it raised and,
in a memory-traced process, the tracemalloc peak reached inside it (numpy
reports its buffers to tracemalloc).  Spans stay in memory;
:meth:`Tracer.dump` returns them once, at the end of the process, together
with the work counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

import numpy as np

#: module -> public functions to wrap, named where they are defined.
WRAPPED = {
    "config": ("load_config", "build_system"),
    "serialize": (
        "system_from_jsonable",
        "density_to_jsonable",
        "aubry_to_jsonable",
        "write_json",
        "matrix_to_csv",
        "fuzzy_to_csv",
        "trace_to_csv",
    ),
    "spaces": ("build_grid", "build_shift_space", "check_metric", "hausdorff"),
    "mpifs": ("validate", "transfer_density", "d_rho"),
    "maxplus": ("kleene_plus",),
    "mane": ("transition_matrix", "mane_potential"),
    "invariant": (
        "build_invariant",
        "verify_invariant",
        "enumerate_invariants",
        "coding_map",
        "constant_weight_density",
    ),
    "fuzzy": ("fhb_attractor", "fhb_apply", "d_infty", "alpha_cut"),
}

ROOT = "cli.main"

WRITERS = ("write_json", "matrix_to_csv", "fuzzy_to_csv", "trace_to_csv")

#: Spans whose arguments or result feed a work count.
COUNTED = {
    "mane.mane_potential",
    "mane.transition_matrix",
    "fuzzy.fhb_attractor",
    "fuzzy.d_infty",
    "invariant.enumerate_invariants",
} | {f"serialize.{w}" for w in WRITERS}


#: Counts that give the size of the largest problem seen, not a total.
SIZES = ("mane.n", "mane.edges", "mane.aubry")


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def _levels(u, v) -> int:
    """Membership levels ``d_infty`` scans: attained positive values plus 0."""
    vals = np.concatenate([u.values[u.values > 0], v.values[v.values > 0], [0.0]])
    return int(np.unique(vals).size)


class Tracer:
    """Collects spans and counts for one process; install once, dump once.

    With ``memory`` the spans also record tracemalloc peaks.  tracemalloc
    slows every allocation, which distorts the times of allocation-heavy
    code, so spans are timed in processes that run without it.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        # span: [name, parent index, start, end, peak bytes, raised]
        self.spans = [[ROOT, -1, 0.0, 0.0, 0, False]]
        self.counts = {
            "mane.n": 0,
            "mane.edges": 0,
            "mane.aubry": 0,
            "fuzzy.iterations": 0,
            "fuzzy.levels": 0,
            "invariant.densities": 0,
            "serialize.bytes": 0,
        }
        # open spans: [span index, bytes at entry, running peak bytes]
        self._stack = [[0, 0, 0]]

    def _after(self, name, args, result):
        c = self.counts
        if name == "mane.mane_potential":
            c["mane.n"] = max(c["mane.n"], result.space.n)
            c["mane.aubry"] = max(c["mane.aubry"], len(result.aubry))
        elif name == "mane.transition_matrix":
            c["mane.edges"] = max(c["mane.edges"], int(np.isfinite(result.entries).sum()))
        elif name == "fuzzy.fhb_attractor":
            c["fuzzy.iterations"] += result.iterations
        elif name == "fuzzy.d_infty":
            c["fuzzy.levels"] += _levels(*args[:2])
        elif name == "invariant.enumerate_invariants":
            c["invariant.densities"] += len(result)
        else:
            c["serialize.bytes"] += os.path.getsize(args[0])

    def _wrap(self, name, fn):
        spans, stack, memory = self.spans, self._stack, self.memory
        counted = name in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans), 0, 0]
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                parent[2] = max(parent[2], peak)
                tracemalloc.reset_peak()
                frame[1] = frame[2] = current
            span = [name, parent[0], 0.0, 0.0, 0, True]
            spans.append(span)
            stack.append(frame)
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[3] = time.monotonic()
                stack.pop()
                if memory:
                    frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                    span[4] = frame[2] - frame[1]
                    parent[2] = max(parent[2], frame[2])
                    tracemalloc.reset_peak()
            if counted:
                self._after(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each listed function in every ``tropifs`` module holding it."""
        import tropifs.cli  # noqa: F401  (loads every module the CLI reaches)

        modules = [m for k, m in sys.modules.items() if k == "tropifs" or k.startswith("tropifs.")]
        for mod, fns in WRAPPED.items():
            home = sys.modules[f"tropifs.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def run(self, fn, *args):
        """Run ``fn`` as the root span (under tracemalloc with ``memory``)."""
        if self.memory:
            tracemalloc.start()
        root = self.spans[0]
        root[2] = time.monotonic()
        try:
            return fn(*args)
        finally:
            root[3] = time.monotonic()
            root[5] = False
            if self.memory:
                frame = self._stack[0]
                root[4] = max(frame[2], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def summarize(dump: dict) -> dict:
    """Per-function self time, calls and peak, plus counts, of one process.

    Self time is a span's duration minus the durations of its direct
    children.  Children of one span never overlap because the CLI runs on
    one thread (``--threads`` and ``TROPIFS_THREADS`` stay unset).
    """
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans[1:]:
        child[parent] += end - start
    out = {}
    for n in span_names():
        out[f"{n}.self_s"] = 0.0
        out[f"{n}.calls"] = 0
        out[f"{n}.peak_mib"] = 0.0
    failed = 0
    for i, (name, parent, start, end, peak, raised) in enumerate(spans[1:], start=1):
        out[f"{name}.self_s"] += (end - start) - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.peak_mib"] = max(out[f"{name}.peak_mib"], peak / 2**20)
        if name == "mpifs.validate" and raised:
            failed += 1
    root = spans[0]
    out.update(dump["counts"])
    out["mpifs.validate.attempts"] = out["mpifs.validate.calls"]
    out["mpifs.validate.failed"] = failed
    out["root_s"] = root[3] - root[2]
    out["covered_s"] = sum(out[f"{n}.self_s"] for n in span_names())
    return out


def combine(total: dict, summary: dict) -> None:
    """Add one process's :func:`summarize` to the totals of its session.

    Peaks and problem sizes (:data:`SIZES`) take the maximum; times, calls
    and the other counts add up.
    """
    for key, value in summary.items():
        if key.endswith(".peak_mib") or key in SIZES:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
