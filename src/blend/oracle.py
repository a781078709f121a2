"""Black-box function oracles.

The whole library differentiates functions it can only evaluate pointwise.
:class:`FunctionOracle` wraps such a function together with the two pieces of
metadata the algorithms need: whether concurrent evaluation is allowed, and an
exact count of how many evaluations have been consumed.
"""

from __future__ import annotations

import threading
from typing import Callable


class OracleEvaluationError(RuntimeError):
    """An oracle evaluation raised; carries the offending point.

    ``point`` is the argument that failed and ``index`` the stencil slot k
    (when the failure happened inside a grid evaluation).
    """

    def __init__(self, message: str, *, point, index: int | None = None):
        super().__init__(message)
        self.point = point
        self.index = index


class FunctionOracle:
    """A deterministic scalar black box with evaluation counting.

    Args:
        fn: The function to evaluate. Must be deterministic: the same input
            must produce a bit-identical output on every call.
        parallel_safe: Whether concurrent calls to ``fn`` are allowed. When
            False, grid evaluations are performed strictly sequentially.
        name: Optional label used in error messages and CLI output.
        batch: Optional function of a list of points that returns their
            values in one call, for an oracle that evaluates many points
            more cheaply together than one by one.  Its contract: the values
            are bit-identical to ``[fn(p) for p in points]``, and where
            ``fn`` would raise for some point, ``batch`` raises.

    The counter includes failed evaluations (it counts invocations) and is
    guarded by a lock so it stays exact under concurrent evaluation.  A call
    of :meth:`evaluate_many` counts one invocation per point, whether the
    batch succeeds or raises.
    """

    def __init__(
        self, fn: Callable, *, parallel_safe: bool = False, name: str | None = None, batch: Callable | None = None
    ):
        self._fn = fn
        self.parallel_safe = bool(parallel_safe)
        self.name = name
        self.batch = batch
        self._count = 0
        self._lock = threading.Lock()

    def evaluate(self, theta):
        """Evaluate the wrapped function, counting the invocation."""
        with self._lock:
            self._count += 1
        return self._fn(theta)

    def evaluate_many(self, points) -> list:
        """Values at every point in one call of ``batch``, which the oracle must have.

        Counts ``len(points)`` invocations.  The values are those of
        :meth:`evaluate` at each point, bit for bit.  Raises ``TypeError``
        without a ``batch`` and ``ValueError`` when the batch returns a list
        of another length.
        """
        if self.batch is None:
            raise TypeError("evaluate_many needs an oracle with a batch")
        points = list(points)
        with self._lock:
            self._count += len(points)
        values = list(self.batch(points))
        if len(values) != len(points):
            raise ValueError(f"batch returned {len(values)} values for {len(points)} points")
        return values

    @property
    def eval_count(self) -> int:
        """Number of evaluations since construction: ``evaluate`` calls plus the points of ``evaluate_many`` calls."""
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or getattr(self._fn, "__name__", "fn")
        return f"FunctionOracle({label}, parallel_safe={self.parallel_safe}, evals={self._count})"
