"""Outside-in span tracer for the fedmm layers.

The tracer changes no file of the program. It wraps the public functions
of each fedmm module and rebinds every module attribute that holds the
original function object: the defining module (for calls inside it, such
as ``nncore._batch_whiten_core`` calling ``whitening_matrix``) and every
module that imported the name (``engine.local_objective``,
``losses.cross_encode``, ...). A call that reaches a function through any
other route is not seen, which is why an expected layer with no calls is
reported as missing rather than as zero.

Spans carry a name, start, end, parent and round id. They are kept in
memory and written out when the run ends. Each thread keeps its own span
stack; a span opened on a pool thread with an empty stack takes the
innermost open span of the tracing thread as its parent, so client
updates run by ``engine._run_updates`` on the thread pool nest under it.

Rounds: a round opens at the first entry into ``engine.run_round`` or
``engine._run_updates`` on the tracing thread after an evaluation call (or
after the start of the run). That rule covers both round loops at
``eval_every=1``: ``run_experiment`` calls ``run_round`` once per round
and evaluates after it; ``baseline_fedavg_latefusion`` calls
``_run_updates`` once per modality and then evaluates. Spans before the
first round belong to round 0 (set-up).
"""

from __future__ import annotations

import bisect
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time

# layer (module of fedmm) -> functions wrapped in it
TRACED = {
    "engine": (
        "run_experiment",
        "baseline_fedavg_latefusion",
        "run_round",
        "_run_updates",
        "client_update",
        "aggregate",
        "init_model",
        "_baseline_submodel",
        "make_client",
        "evaluate_late_fusion",
        "write_outputs",
    ),
    "losses": ("local_objective", "ntxent"),
    "models": (
        "encode_train",
        "encode_backward",
        "cross_encode",
        "flatten_params",
        "unflatten_params",
    ),
    "nncore": (
        "whitening_matrix",
        "adam_step",
        "as_tensor",
        "dense_forward",
        "dense_backward",
    ),
    "metrics": ("evaluate",),
    "data": ("gen_synthetic", "build_scenario"),
}

ENTRY_POINTS = ("engine.run_experiment", "engine.baseline_fedavg_latefusion")
ROUND_OPENERS = ("engine.run_round", "engine._run_updates")
EVALUATORS = ("metrics.evaluate", "engine.evaluate_late_fusion")


class Span:
    """One call of a traced function; ``round_close`` is the round it ended in."""

    __slots__ = ("sid", "name", "start", "end", "parent", "round_open", "round_close", "thread")

    def __init__(self, sid, name, start, parent, round_open, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round_open = round_open
        self.round_close = round_open
        self.thread = thread


class Tracer:
    """Collects spans from the wrapped fedmm functions of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self.round_starts: list[float] = []  # round r opens at round_starts[r - 1]
        self._eval_seen = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._rebound: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function of ``TRACED`` wherever a fedmm module holds it."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{name}", original))
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        now = time.perf_counter()
        on_main = stack is self._main_stack
        if on_main:
            if name in EVALUATORS:
                self._eval_seen = True
            elif name in ROUND_OPENERS and self._eval_seen:
                self._eval_seen = False
                self.round += 1
                self.round_starts.append(now)
        if stack:
            parent = stack[-1].sid
        elif not on_main and self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = 0
        span = Span(next(self._ids), name, now, parent, self.round, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.round_close = self.round
        self._stack().pop()
        self.spans.append(span)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as gzip'd CSV: id,name,start,end,parent,round,thread."""
        with gzip.open(path, "wt") as out:
            out.write("id,name,start_s,end_s,parent,round,thread\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(
                    f"{s.sid},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},"
                    f"{s.round_open},{s.thread}\n"
                )


def _self_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """The parts of ``span`` that no child span covers (children may overlap)."""
    out = []
    cursor = span.start
    for a, b in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if span.end > cursor:
        out.append((cursor, span.end))
    return out


def self_time_by_round(tracer: Tracer) -> dict[str, dict[int, float]]:
    """Self seconds per span name and round.

    A span that stays in one round is charged to it. A span that crosses
    round boundaries (the entry point) has its uncovered intervals split at
    the round start times.
    """
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    starts = tracer.round_starts
    out: dict[str, dict[int, float]] = {}
    for s in tracer.spans:
        per_round = out.setdefault(s.name, {})
        pieces = _self_intervals(s, children.get(s.sid, []))
        if s.round_open == s.round_close:
            r = s.round_open
            per_round[r] = per_round.get(r, 0.0) + sum(b - a for a, b in pieces)
            continue
        for a, b in pieces:
            while a < b:
                r = bisect.bisect_right(starts, a)
                edge = starts[r] if r < len(starts) else b
                cut = min(b, edge)
                per_round[r] = per_round.get(r, 0.0) + (cut - a)
                a = cut
    return out


def client_wait_by_round(tracer: Tracer) -> dict[int, list[float]]:
    """Per round, how long each client update waited for a free worker.

    Within one ``engine._run_updates`` call a worker thread is free from the
    call's start and again from the end of its previous client update; the
    wait of a client update is its start minus that moment. Serial runs wait
    only for the call overhead; a thread pool adds its dispatch delay.
    """
    by_parent: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.name == "engine.client_update":
            by_parent.setdefault(s.parent, []).append(s)
    out: dict[int, list[float]] = {}
    for s in tracer.spans:
        if s.name != "engine._run_updates":
            continue
        free_at: dict[int, float] = {}
        for c in sorted(by_parent.get(s.sid, []), key=lambda c: c.start):
            ready = free_at.get(c.thread, s.start)
            out.setdefault(s.round_open, []).append(c.start - ready)
            free_at[c.thread] = c.end
    return out


def busy_seconds(tracer: Tracer, name: str) -> float:
    return sum(s.end - s.start for s in tracer.spans if s.name == name)


def call_counts(tracer: Tracer) -> dict[str, int]:
    counts = {f"{layer}.{fn}": 0 for layer, names in TRACED.items() for fn in names}
    for s in tracer.spans:
        counts[s.name] += 1
    return counts
