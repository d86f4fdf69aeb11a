"""Span tracing for the traced run, installed from outside the program.

``Tracer.install`` replaces each listed public function with a timing
wrapper in every loaded ``dpdl`` module that holds a reference to it, so
calls from one module into another are seen as well as calls from the
benchmark.  Each call records one span: id, name, start, end, parent span
and thread.  A span opened on a worker thread with nothing open on that
thread takes as parent the innermost span open on the thread that
installed the tracer, which is how ``score_dataset``'s fan-out is
attributed.  Spans stay in memory; ``write`` saves them when the run ends.

The end-to-end run never installs a tracer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# module.function for every wrapped public function.
TARGETS = (
    "features.synth_generate", "features.write_feature_file", "features.read_feature_file",
    "features.make_splits", "features.cutmix_pseudo_anomaly",
    "prototypes.vq_init", "prototypes.mgp_new", "prototypes.mgp_realize",
    "losses.loss_dpl_normal", "losses.loss_dpl_anomaly", "losses.loss_dfl", "losses.unitize",
    "scoring.head_loss_anomaly", "scoring.head_loss_normal", "scoring.head_loss_residual",
    "scoring.residual_grid", "scoring.anomaly_score", "scoring.write_scores_csv",
    "bridge.conditional_plan", "bridge.posterior_mode_index",
    "training.train", "training.optimizer_step", "training.save_checkpoint",
    "training.load_checkpoint",
    "evaluation.score_dataset", "evaluation.auc", "evaluation.write_report",
)

# Calls whose peak traced allocation is recorded.  tracemalloc runs only
# inside the first ALLOC_CALLS calls of each: it slows the call it watches,
# and the peak depends only on the array shapes, which repeat every step.
ALLOC_TARGETS = ("losses.loss_dpl_normal", "losses.loss_dpl_anomaly")
ALLOC_CALLS = 8


class Tracer:
    def __init__(self, package: str = "dpdl"):
        self.package = package
        self.spans: list[tuple] = []          # (id, name, start, end, parent, thread)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.alloc_calls: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, watch_alloc: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else next(reversed(tracer._home_stack), None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            track_alloc = watch_alloc and tracer.alloc_calls[name] < ALLOC_CALLS
            if track_alloc:
                tracer.alloc_calls[name] += 1
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_alloc[name] = max(tracer.peak_alloc[name], peak)
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == self.package or key.startswith(self.package + ".")]
        for target in targets:
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"{self.package}.{module_name}"], fn_name)
            wrapper = self._wrap(target, original, target in ALLOC_TARGETS)
            self._wrappers[id(original)] = wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Unwrap everything inside the block, so its calls record no spans."""
        patched = list(self._patched)
        self.uninstall()
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, self._wrappers[id(original)])
            self._patched = patched

    def write(self, path) -> None:
        """Save the spans as JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per function: calls, busy (summed duration) and self time.

    Self time is a span's duration minus the part of it covered by its
    children, whichever thread they ran on.
    """
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, _, _ in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
    return dict(stats)
