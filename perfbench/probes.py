"""Measuring the library from outside: a span recorder and wrappers around
the oracle objects and module functions the benchmark hands to it.

The wrappers count work in every run.  They read the clock only when given
a ``Spans`` recorder, which the traced run alone does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.records) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.records[idx]
        return end - start

    def self_times(self) -> list[float]:
        """Each span's duration minus its (sequential, nested) children."""
        own = [end - start for _, start, end, _ in self.records]
        for _, start, end, parent in self.records:
            if parent is not None:
                own[parent] -= end - start
        return own

    def within(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        inside = {root}
        for idx in range(root + 1, len(self.records)):
            if self.records[idx][3] in inside:
                inside.add(idx)
        return sorted(inside)

    def busy(self, name: str, root: int) -> float:
        return sum(self.duration(i) for i in self.within(root)
                   if self.records[i][0] == name)

    def to_json(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.records]


class _Counted:
    def __init__(self, spans: Spans | None, name: str):
        self.spans = spans
        self.name = name
        self.calls = 0

    def _timed(self, fn, *args):
        if self.spans is None:
            return fn(*args)
        idx = self.spans.begin(self.name)
        try:
            return fn(*args)
        finally:
            self.spans.end(idx)


class EntryProbe(_Counted):
    """Entry oracle that counts block calls and entries evaluated."""

    def __init__(self, oracle, spans: Spans | None = None):
        super().__init__(spans, "kernels.block")
        self._oracle = oracle
        self.shape = oracle.shape
        self.entries = 0

    def block(self, rows, cols):
        self.calls += 1
        self.entries += len(rows) * len(cols)
        return self._timed(self._oracle.block, rows, cols)


class OperatorProbe(_Counted):
    """Operator oracle that counts applications and vectors applied."""

    def __init__(self, oracle, spans: Spans | None = None):
        super().__init__(spans, "operator.apply")
        self._oracle = oracle
        self.shape = oracle.shape
        self.vectors = 0

    def _count(self, x):
        self.calls += 1
        self.vectors += 1 if x.ndim == 1 else x.shape[1]

    def apply(self, x):
        self._count(x)
        return self._timed(self._oracle.apply, x)

    def apply_adjoint(self, x):
        self._count(x)
        return self._timed(self._oracle.apply_adjoint, x)


def probe_for(oracle, spans: Spans | None = None):
    if hasattr(oracle, "block"):
        return EntryProbe(oracle, spans)
    return OperatorProbe(oracle, spans)


@contextmanager
def patched(module, attr: str, spans: Spans, name: str):
    """Replace ``module.attr`` by a counting, span-recording wrapper for the
    duration of the block; yields the wrapper."""
    original = getattr(module, attr)
    wrapper = _Counted(spans, name)

    def call(*args, **kwargs):
        wrapper.calls += 1
        return wrapper._timed(lambda: original(*args, **kwargs))

    setattr(module, attr, call)
    try:
        yield wrapper
    finally:
        setattr(module, attr, original)
