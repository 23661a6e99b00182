"""Reusable checker scratch state for batched multi-seed runs.

Campaign throughput at small program sizes is dominated by per-check
fixed costs, and the largest single one in the kernel engines is
allocating the two ``(n, k)`` int64 frontier matrices for every seed.
A :class:`CheckContext` owns those buffers across checker instances:
``frontier_pair`` hands out correctly-shaped views of one growable flat
buffer per matrix, and :func:`repro.core.kernels.build_frontiers` wipes
them with a constant fill instead of allocating.  Between the seeds of
a batch the buffers are *reused, never trusted* — every value is
rewritten by the closure DP before the fixed point reads it, which is
what the cross-engine fresh-vs-reused parity suite asserts.

A context is deliberately engine-agnostic: every engine accepts one
through the shared :class:`repro.core.engine.Checker` constructor
(``checker.context``), and engines that have no reusable state simply
ignore it — so the same reuse-parity test runs every engine twice on
one context without special cases.

Contexts are single-threaded scratch, like the checkers themselves: one
per pool worker (or per batch), never shared across processes.
"""

from __future__ import annotations

from typing import Optional, Tuple

try:  # pragma: no cover - exercised via the no-numpy fallback test
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


class CheckContext:
    """Growable scratch buffers shared by consecutive checker runs.

    Attributes:
        checks: checker instantiations that carried this context.
        reuses: ``frontier_pair`` calls served from an existing buffer
            (0 allocations) — the state-reuse win, visible to tests.
        allocations: buffer (re-)allocations performed (growth included).
    """

    def __init__(self) -> None:
        self._flat_to = None
        self._flat_from = None
        self.checks = 0
        self.reuses = 0
        self.allocations = 0

    def frontier_pair(self, n: int, k: int) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """Borrow ``(m_to, m_from)`` as contiguous ``(n, k)`` int64 views.

        Returns ``None`` without numpy (callers fall back to their
        scalar path).  Contents are arbitrary — the caller must fill
        them (``build_frontiers`` does).  Capacity grows geometrically
        so a batch of slightly varying program sizes settles into zero
        allocations after the first few seeds.
        """
        if not HAVE_NUMPY:
            return None
        need = n * k
        if self._flat_to is None or self._flat_to.size < need:
            capacity = max(need, need + need // 4)
            self._flat_to = np.empty(capacity, dtype=np.int64)
            self._flat_from = np.empty(capacity, dtype=np.int64)
            self.allocations += 1
        else:
            self.reuses += 1
        return (
            self._flat_to[:need].reshape(n, k),
            self._flat_from[:need].reshape(n, k),
        )
