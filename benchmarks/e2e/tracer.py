"""Spans around layer entry points, installed from outside the program.

:class:`Tracer` replaces a named attribute (a method, a property, a
module-level function or a coroutine function) with a wrapper that
times every call, and puts the original object back on
:meth:`Tracer.restore`. Spans live on one in-memory stack, so each
layer gets its call count, inclusive time and self time (inclusive
minus the time its traced children covered). Only aggregates are kept;
the benchmark writes them out when an operation ends.

Nothing under ``src/`` knows it is being traced: the wrappers sit on
the attributes the program looks up at call time.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

_clock = time.perf_counter


class SpanStats:
    """Aggregate of one span name: calls, errors, inclusive/self/max time."""

    __slots__ = ("calls", "errors", "inclusive", "self_time", "longest")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.longest = 0.0

    def to_dict(self) -> dict:
        return {"calls": self.calls, "errors": self.errors,
                "inclusive_s": self.inclusive, "self_s": self.self_time,
                "max_s": self.longest}


class Tracer:
    """Wraps attributes with timing spans and restores them afterwards."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        #: Open spans, innermost last: ``[name, start, child_seconds]``.
        self._stack: list[list] = []
        #: ``(owner, attribute, original object)`` in install order.
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [name, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, failed: bool) -> float:
        elapsed = _clock() - frame[1]
        stack = self._stack
        if stack[-1] is frame:
            stack.pop()
        else:
            # A coroutine span resumed after another task pushed frames;
            # drop exactly this frame and leave the rest in order.
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is frame:
                    del stack[index]
                    break
        if stack:
            stack[-1][2] += elapsed
        stats = self.stats.get(frame[0])
        if stats is None:
            stats = self.stats[frame[0]] = SpanStats()
        stats.calls += 1
        stats.inclusive += elapsed
        stats.self_time += elapsed - frame[2]
        if elapsed > stats.longest:
            stats.longest = elapsed
        if failed:
            stats.errors += 1
        return elapsed

    @contextmanager
    def span(self, name: str):
        """Time a block of benchmark code as a span of its own."""
        frame = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(frame, failed)

    def _timed(self, function, name: str, after=None):
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                frame = self._open(name)
                failed = True
                try:
                    result = await function(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    self._close(frame, failed)
            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._open(name)
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
            finally:
                elapsed = self._close(frame, failed)
            if after is not None:
                after(args, result, elapsed)
            return result
        return traced

    # -- installation -------------------------------------------------------
    @staticmethod
    def _definer(owner, attribute: str):
        """The class (or module) whose own namespace holds ``attribute``.

        Patching there, never on a subclass that merely inherits it, is
        what lets :meth:`restore` put back the identical object.
        """
        for klass in getattr(owner, "__mro__", (owner,)):
            if attribute in vars(klass):
                return klass
        raise AttributeError(f"{owner!r} has no attribute {attribute!r}")

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`restore`."""
        owner = self._definer(owner, attribute)
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``owner`` is a class or a module; properties are wrapped on
        their getter. ``after(args, result, seconds)`` runs outside the
        span once a call returns, for benchmark-side bookkeeping.
        """
        original = vars(self._definer(owner, attribute))[attribute]
        if isinstance(original, property):
            replacement = property(self._timed(original.fget, name),
                                   original.fset, original.fdel,
                                   original.__doc__)
        else:
            replacement = self._timed(original, name, after)
        self.patch(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def patched(self) -> "list[tuple[object, str, object]]":
        """Live patches: ``(owner, attribute, original)``, install order."""
        return list(self._patches)

    # -- results ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {name: stats.to_dict()
                for name, stats in sorted(self.stats.items())}
