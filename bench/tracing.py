"""Traced run: wrap public functions of sturmrep and record spans.

Each target is patched in every ``sturmrep`` module namespace that bound it
(``from .x import y`` leaves one binding per importing module) or, for a
method, on its class; ``installed`` restores every original on exit.

Coarse calls keep one span each (id, parent, op, name, start, end).  The hot
methods ``QuadExt.sign``, ``QuadExt.floor`` and ``Mat3.__mul__`` run millions
of times, so they keep aggregated counts and times only.  Every call still
takes part in self time: a call's self time is its duration minus the time
of the traced calls nested in it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from reference import block_trace

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self", "max", "letters", "inner")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.max = 0.0
        self.letters = 0
        self.inner = 0

    def as_list(self) -> list:
        return [self.calls, self.total, self.self, self.max, self.letters, self.inner]

    def add_list(self, row) -> None:
        calls, total, self_s, max_s, letters, inner = row
        self.calls += calls
        self.total += total
        self.self += self_s
        self.max = max(self.max, max_s)
        self.letters += letters
        self.inner += inner


class Tracer:
    """Spans and aggregates of one traced run.  Single-threaded only: the
    library starts no threads, so one stack of open calls suffices."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.sizes: dict[str, dict[str, list[float]]] = {}
        self.spans: list[tuple] = []
        self.op = -1
        self.child_times: list[tuple[float, float]] = []  # (import_s, command_s)
        self._stack: list[list] = []
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _finish(self, name, frame, t0, t1, st, span: bool) -> float:
        dur = t1 - t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        st.calls += 1
        st.total += dur
        st.self += dur - frame[0]
        if dur > st.max:
            st.max = dur
        if span:
            parent = stack[-1][1] if stack else -1
            self.spans.append((frame[1], parent, self.op, name, t0, t1))
        return dur

    def _open(self, span: bool) -> list:
        sid = -1
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        return frame

    @contextmanager
    def span(self, name: str, letters: int = 0, inner: str | None = None):
        """Span opened by the benchmark around a call into a layer; `inner`
        names a stat whose letters inside this span are added to .inner."""
        st = self.stat(name)
        before = self.stat(inner).letters if inner else 0
        frame = self._open(True)
        t0 = clock()
        try:
            yield
        finally:
            self._finish(name, frame, t0, clock(), st, True)
            st.letters += letters
            if inner:
                st.inner += self.stat(inner).letters - before

    def wrap(self, name: str, fn: Callable, hot: bool = False, letters=None, sizer=None):
        st = self.stat(name)
        tracer = self

        if hot:

            def hot_wrapper(*args, **kwargs):
                frame = tracer._open(False)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._finish(name, frame, t0, clock(), st, False)

            return hot_wrapper

        sizes = self.sizes.setdefault(name, {}) if sizer else None

        def wrapper(*args, **kwargs):
            bucket = None
            if sizer is not None:
                s0 = clock()
                bucket, per = sizer(args)
                if tracer._stack:  # sizing is benchmark work, not the caller's
                    tracer._stack[-1][0] += clock() - s0
            frame = tracer._open(True)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._finish(name, frame, t0, clock(), st, True)
                if bucket is not None:
                    sizes.setdefault(bucket, []).append(dur / per)
            if letters is not None:
                st.letters += letters(args, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "stats": {k: v.as_list() for k, v in self.stats.items()},
            "sizes": self.sizes,
            "spans": self.spans,
        }

    def merge(self, data: dict, op: int) -> None:
        """Fold in a dump taken in a child process, renumbering its spans."""
        self.child_times.append((data["import_s"], data["command_s"]))
        for name, row in data["stats"].items():
            self.stat(name).add_list(row)
        for name, buckets in data["sizes"].items():
            mine = self.sizes.setdefault(name, {})
            for bucket, values in buckets.items():
                mine.setdefault(bucket, []).extend(values)
        base = self._next_id
        top = self._stack[-1][1] if self._stack else -1
        for sid, parent, _op, name, t0, t1 in data["spans"]:
            self.spans.append(
                (base + sid, base + parent if parent >= 0 else top, op, name, t0, t1)
            )
            self._next_id = max(self._next_id, base + sid + 1)


# -- targets ---------------------------------------------------------------------


# A sizer maps a call's arguments to (size bucket, divisor); the bucket keeps
# duration / divisor per call, so per-op (divisor 1) or per-letter times.


def _entry_bits(args) -> tuple[str, int]:
    bits = max(abs(x) for row in args[0].rows for x in row).bit_length()
    if bits <= 16:
        return "bits_le_16", 1
    return ("bits_le_64" if bits <= 64 else "bits_gt_64"), 1


def _trace_bits(args) -> tuple[str, int]:
    bits = block_trace([g.value for g in args[0]]).bit_length()
    if bits <= 16:
        return "trace_bits_le_16", 1
    return ("trace_bits_le_32" if bits <= 32 else "trace_bits_gt_32"), 1


def _letters_requested(args) -> tuple[str, int]:
    n = args[1]
    if n <= 512:
        return "n_le_512", max(n, 1)
    return ("n_le_1024" if n <= 1024 else "n_gt_1024"), n


def _result_len(args, result) -> int:
    return len(result) if isinstance(result, (str, tuple)) else 0


def _slice_len(args, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    name: str  # "<module>.<qualified name>", the metric prefix
    module: str
    qualname: str
    hot: bool = False
    letters: Callable | None = None
    sizer: Callable | None = None


TARGETS = (
    Target("exactfield.square_free_split", "exactfield", "square_free_split"),
    Target("exactfield.QuadExt.floor", "exactfield", "QuadExt.floor", hot=True),
    Target("exactfield.QuadExt.sign", "exactfield", "QuadExt.sign", hot=True),
    Target("words.mechanical", "words", "mechanical", letters=_result_len,
           sizer=_letters_requested),
    Target("words.iet_code", "words", "iet_code", letters=_result_len, sizer=_letters_requested),
    Target("words.PrefixStream.slice", "words", "PrefixStream.slice", letters=_slice_len),
    Target("morphisms.compose", "morphisms", "compose"),
    Target("morphisms.BinaryMorphism.apply", "morphisms", "BinaryMorphism.apply",
           letters=_result_len),
    Target("morphisms.conjugates_of", "morphisms", "conjugates_of"),
    Target("representation.rep", "representation", "rep"),
    Target("representation.Mat3.mul", "representation", "Mat3.__mul__", hot=True),
    Target("representation.check_membership", "representation", "check_membership"),
    Target("representation.decompose", "representation", "decompose",
           letters=_result_len, sizer=_entry_bits),
    Target("dynamics.params_of", "dynamics", "params_of"),
    Target("dynamics.dominant_eigen", "dynamics", "dominant_eigen", sizer=_trace_bits),
    Target("dynamics.fixed_point_params", "dynamics", "fixed_point_params"),
    Target("dynamics.iterate_fixed_point", "dynamics", "iterate_fixed_point",
           letters=_result_len),
    Target("dynamics.yasutomi_check", "dynamics", "yasutomi_check"),
    Target("sqroot.square_decomposition", "sqroot", "square_decomposition"),
    Target("sqroot.sqrt_fixing_morphism", "sqroot", "sqrt_fixing_morphism"),
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "sturmrep" or name.startswith("sturmrep."))
    ]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Patch every target for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []
    modules = _package_modules()
    try:
        for t in targets:
            home = sys.modules[f"sturmrep.{t.module}"]
            owner_name, _, attr = t.qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(t.name, original, t.hot, t.letters, t.sizer))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(t.name, original, t.hot, t.letters, t.sizer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
