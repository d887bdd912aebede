"""Layer accounting for the traced benchmark run.

The benchmark measures layers from outside the program: for the length of
a traced pass it replaces each layer's entry points with timing wrappers
and puts the originals back afterwards.  Every wrapper charges its span to
a *leaf* such as ``"fec.decode"`` or ``"io.send"``.  A leaf's self time is
the span minus the spans of wrapped calls made inside it, so the self
times of all leaves plus the time spent outside any wrapper (the
unattributed remainder) add up to the traced wall time.

A call into a leaf from inside the same leaf (``encode_many`` calling
``encode_blocks``) is one call, not two: only the outermost span counts.

Spans are kept in memory in a :class:`repro.obs.spans.SpanRecorder` and
written out when the run ends through the :mod:`repro.obs` span NDJSON and
trace-event exporters.
"""

from __future__ import annotations

import collections
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.spans import SpanRecord, SpanRecorder

__all__ = ["Leaf", "Tracer", "CoverageError"]

#: Per-call spans kept for the export; later calls are counted in
#: ``SpanRecorder.dropped``.  Op-level spans are always kept.
SPAN_CAPACITY = 20_000

_INHERITED = object()


class CoverageError(RuntimeError):
    """A patch target is missing, or a layer that must run recorded nothing."""


@dataclass
class Leaf:
    """Accumulated cost of one wrapped entry-point group."""

    name: str
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    total_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """Timing wrappers, their leaves and counters, and the patch ledger."""

    def __init__(self, span_capacity: int = SPAN_CAPACITY):
        self.leaves: dict[str, Leaf] = {}
        self.counts: collections.Counter = collections.Counter()
        self.recorder = SpanRecorder(span_capacity)
        #: op-level spans, kept apart so the per-call capacity never drops them
        self.op_spans: list[SpanRecord] = []
        #: trace id of the op being traced; per-call spans are recorded only
        #: while it is set
        self.trace_id: str | None = None
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def leaf(self, name: str) -> Leaf:
        leaf = self.leaves.get(name)
        if leaf is None:
            leaf = self.leaves[name] = Leaf(name)
        return leaf

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (the leaf-name prefix)."""
        out: dict[str, float] = collections.defaultdict(float)
        for leaf in self.leaves.values():
            out[leaf.layer] += leaf.self_s
        return dict(out)

    def wrap(
        self,
        leaf_name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` charged to ``leaf_name``.

        ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result)``; both run only for the
        outermost call into the leaf and only when ``fn`` returned.
        """
        leaf = self.leaf(leaf_name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is leaf:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            frame = [leaf, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leaf.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                leaf.calls += 1
                leaf.total_s += elapsed
                leaf.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if self.trace_id is not None:
                    self._record(leaf, start, end)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, leaf: Leaf, start: float, end: float) -> None:
        recorder = self.recorder
        if len(recorder.records) >= recorder.capacity:
            recorder.dropped += 1
            return
        recorder.records.append(
            SpanRecord(
                name=leaf.name,
                start=start,
                end=end,
                depth=len(self._stack),
                parent=self._stack[-1][0].name if self._stack else None,
                attrs={"trace": self.trace_id, "side": leaf.layer},
                index=len(recorder.records),
            )
        )

    def record_op(self, trace_id: str, start: float, end: float, **attrs) -> None:
        self.op_spans.append(
            SpanRecord(
                name="op",
                start=start,
                end=end,
                depth=0,
                parent=None,
                attrs={"trace": trace_id, "side": "op", **attrs},
                index=len(self.op_spans),
            )
        )

    def spans(self) -> list[SpanRecord]:
        return [*self.op_spans, *self.recorder.records]

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name``, remembering the original for :meth:`restore`.

        An inherited attribute (``socket.socket.send`` comes from
        ``_socket.socket``) is shadowed, and the shadow deleted on restore.
        """
        if not hasattr(owner, name):
            raise CoverageError(f"{owner!r} has no attribute {name!r}")
        self._patches.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, replacement)

    def patch_function(self, module: Any, name: str, leaf_name: str, **hooks) -> int:
        """Wrap ``module.name`` in every loaded ``repro`` module binding it.

        Modules that did ``from module import name`` hold their own
        reference, so each binding is replaced; returns how many there were.
        """
        func = getattr(module, name, None)
        if func is None:
            raise CoverageError(f"{module.__name__} has no {name!r}")
        wrapper = self.wrap(leaf_name, func, **hooks)
        bound = 0
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(loaded).items()):
                if value is func:
                    self.patch_attr(loaded, attr, wrapper)
                    bound += 1
        return bound

    def patch_method(self, cls: type, name: str, leaf_name: str, **hooks) -> int:
        """Wrap ``name`` on ``cls`` and on every subclass that overrides it."""
        patched = 0
        for klass in _subclasses(cls):
            if name in vars(klass):
                original = vars(klass)[name]
                self.patch_attr(
                    klass, name, self.wrap(leaf_name, original, **hooks)
                )
                patched += 1
        if not patched:
            raise CoverageError(f"no class under {cls.__qualname__} defines {name!r}")
        return patched

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
