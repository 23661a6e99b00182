"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each ``repro`` layer (listed
in :mod:`perfbench.layers`) while a traced round runs, and restores the
originals afterwards, so untraced rounds run the program as shipped.  A
span is ``(id, parent id, name, start, end, extra)``; the layer is the
part of the name before the dot.  Spans live in memory and are written
out when the run ends.

Pool workers are forked from inside a wrapped ``run_tasks`` call, so they
inherit the installed wrappers and the span stack whose top is that
``run_tasks`` span: every span a worker records names the pool span as
its ancestor.  Each worker appends its spans to ``spans-<pid>.jsonl`` in
the output directory after every task (a worker is never told when the
pool shuts it down), and the parent folds those files in after the round.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, Any]
AfterFn = Callable[[Sequence[Any], Any], Any]

#: The tracer whose wrappers are installed.  Module-level because a
#: forked pool worker has to find the tracer it inherited.
_ACTIVE: Optional["Tracer"] = None


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.thread = threading.get_ident()
        self.spans: List[Span] = []
        self.stack: List[Tuple[int, str]] = [(0, "")]
        self._next = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def call(
        self, name: str, fn: Callable[..., Any], args: Sequence[Any],
        kwargs: Dict[str, Any], after: Optional[AfterFn] = None,
    ) -> Any:
        """Run ``fn`` inside a span called ``name``.

        A call nested directly in a span of the same name (a subclass
        engine calling ``super().run``) and calls from other threads
        (the lease heartbeat) are not recorded.
        """
        if os.getpid() != self.pid:
            self._adopt_fork()
        parent, top = self.stack[-1]
        if top == name or threading.get_ident() != self.thread:
            return fn(*args, **kwargs)
        self._next += 1
        sid = self.pid * 1_000_000_000 + self._next
        self.stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans.append(
                (sid, parent, name, start, time.perf_counter(), None)
            )
            self.stack.pop()
            raise
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((
            sid, parent, name, start, end,
            None if after is None else after(args, result),
        ))
        return result

    def _adopt_fork(self) -> None:
        """First call in a forked worker: drop the parent's spans, keep
        the inherited stack so new spans hang off the pool span."""
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.spans = []
        self._next = 0

    def flush_worker(self) -> None:
        """Append this worker's spans to its own file and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def take(self) -> List[Span]:
        """All spans recorded since the last take, the worker span files
        folded in (and deleted)."""
        spans, self.spans = self.spans, []
        for path in glob.glob(os.path.join(self.out_dir, "spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)  # type: ignore[misc]
            os.remove(path)
        return spans

    # -- installing wrappers -------------------------------------------

    def _wrap(
        self, name: str, fn: Callable[..., Any], after: Optional[AfterFn]
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, args, kwargs, after)

        return traced

    def patch_function(
        self, original: Optional[Callable[..., Any]], name: str,
        after: Optional[AfterFn] = None,
        wrapper: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace every module-level reference to ``original`` in the
        loaded ``repro`` and ``perfbench`` modules (callers import the
        public functions by name, so each importing module holds its own
        reference).  A missing function is skipped."""
        if original is None:
            return
        wrapper = wrapper or self._wrap(name, original, after)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if not modname.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def patch_method(
        self, cls: type, attr: str, name: str,
        after: Optional[AfterFn] = None,
    ) -> None:
        """Wrap a method defined on ``cls`` itself (inherited ones are
        wrapped where they are defined)."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, self._wrap(name, original, after))
        self._restore.append((cls, attr, original))

    def install(self, patches: Callable[["Tracer"], None]) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        patches(self)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        _ACTIVE = None


def run_task(fn: Callable[[Any], Any], task: Any) -> Any:
    """Pool task shim: an ``analysis.task`` span around ``fn(task)``,
    flushed to the worker's span file when run in a forked worker."""
    tracer = _ACTIVE
    if tracer is None:
        return fn(task)
    try:
        return tracer.call("analysis.task", fn, (task,), {})
    finally:
        if os.getpid() != tracer.root_pid:
            tracer.flush_worker()


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def _exclusive(
    start: float, end: float, children: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """``[start, end]`` minus the union of the child intervals."""
    out: List[Tuple[float, float]] = []
    cursor = start
    for cstart, cend in sorted(children):
        cstart, cend = max(cstart, start), min(cend, end)
        if cend <= cursor:
            continue
        if cstart > cursor:
            out.append((cursor, cstart))
        cursor = max(cursor, cend)
    if cursor < end:
        out.append((cursor, end))
    return out


def self_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """Wall-clock self time per span name.

    A span's own time is its interval minus what its child spans cover
    (children in pool workers included).  Each instant of wall time is
    split evenly among the spans running their own code at that instant,
    in the parent and in every worker, so the shares of all layers sum
    to the wall time the root spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    events: List[Tuple[float, int, str]] = []
    for sid, _parent, name, start, end, _extra in spans:
        for a, b in _exclusive(start, end, children.get(sid, [])):
            events.append((a, 1, name))
            events.append((b, -1, name))
    events.sort()
    shares: Dict[str, float] = defaultdict(float)
    active: Dict[str, int] = defaultdict(int)
    running = 0
    prev = 0.0
    for when, delta, name in events:
        if running and when > prev:
            slice_ = (when - prev) / running
            for other, count in active.items():
                if count:
                    shares[other] += slice_ * count
        active[name] += delta
        running += delta
        prev = when
    return dict(shares)
