"""In-memory spans and leaf counters around stabcert's public functions.

The benchmark wraps each function at the module where its caller looks
the name up (the package binds names with ``from .x import y``, so
``sdp.extreme_eig_sym`` is the name the solver calls, not
``linalg.extreme_eig_sym``).  Calls at job, solve, probe and experiment
boundaries become spans with a parent and a shared job id.  Hot leaf
calls (eigenpairs, LMI assembly, per-sample gradients) are aggregated as
a count plus total time under the span that made them; there is no span
per leaf call.

A layer's self time is its spans' durations minus what their child spans
and leaf aggregates cover, plus the leaf totals of that layer.  Self
times over all layers, ``bench`` included, add up to the traced pass.
Wrappers record nothing while no span is open, so the output checks that
run after a pass are neither slowed into the pass nor counted.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

LAYERS = ("bench", "cli", "sdp", "iqc", "linalg", "lyapunov", "simulate", "losses", "data")


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "layer", "parent", "job", "start", "end", "children", "leaves", "info")

    def __init__(self, name: str, layer: str, parent: "Span | None", job):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = perf_counter()
        self.end = self.start
        self.children = 0.0  # summed duration of child spans
        self.leaves: dict = {}  # key -> [layer, calls, seconds]
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack plus the record of every closed span."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    @contextmanager
    def span(self, name: str, layer: str, job=None):
        parent = self.stack[-1] if self.stack else None
        if job is None and parent is not None:
            job = parent.job
        sp = Span(name, layer, parent, job)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self.stack.pop()
            self.spans.append(sp)
            if parent is not None:
                parent.children += sp.seconds

    def spanned(self, fn, name: str, layer: str, on_result=None):
        """Wrap fn so that each call under an open span becomes a child span."""

        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, kwargs, result)
                return result

        return wrapper

    def leaf(self, fn, key, layer: str):
        """Wrap fn so that calls add to a count and a time on the open span.

        key is a string, or a function of the call arguments returning one.
        """

        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            k = key if isinstance(key, str) else key(args)
            agg = self.stack[-1].leaves.get(k)
            if agg is None:
                self.stack[-1].leaves[k] = [layer, 1, dt]
            else:
                agg[1] += 1
                agg[2] += dt
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------

    def named(self, name: str) -> list:
        return [sp for sp in self.spans if sp.name == name]

    def leaf_totals(self, key: str) -> tuple[int, float]:
        calls = 0
        seconds = 0.0
        for sp in self.spans:
            agg = sp.leaves.get(key)
            if agg is not None:
                calls += agg[1]
                seconds += agg[2]
        return calls, seconds

    @staticmethod
    def self_seconds(sp: Span) -> float:
        return sp.seconds - sp.children - sum(agg[2] for agg in sp.leaves.values())

    def layer_self_seconds(self, job=None) -> dict:
        """Self time per layer, over every span or over one job's spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for sp in self.spans:
            if job is not None and sp.job != job:
                continue
            out[sp.layer] += self.self_seconds(sp)
            for layer, _, seconds in sp.leaves.values():
                out[layer] += seconds
        return out


@contextmanager
def patched(patches: list):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
