"""Tracing chrkit from outside: wrappers installed on module attributes.

Every wrapped function becomes a frame on a per-thread stack.  On exit a
frame adds its duration to its parent's child time, so self time is the
duration minus what nested wrapped calls took.  Two kinds of frame:

  span     recorded as (id, name, start, end, parent id, op id, thread,
           inner) in memory; `inner` is the time of counter frames directly
           inside it, which have no span of their own
  counter  aggregated only (calls, total, self), for hot calls such as
           `mgu` where a span per call would cost more than the call

Aggregates are kept per thread and per (phase, name, enclosing span name),
so the 2-worker concurrent engine never races on a shared counter.  The
phase is whatever the benchmark set with `phase()` when the frame started.

A function is wrapped at the module attribute its caller looks up:
`from .terms import mgu` in `store` makes `chrkit.store.mgu` a binding of
its own, so patching `chrkit.terms.mgu` alone would miss those calls.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional


class _Frame:
    __slots__ = ("name", "start", "child", "inner", "sid", "span_name", "phase")

    def __init__(self, name, start, sid, span_name, phase):
        self.name = name
        self.start = start
        self.child = 0.0   # time of all wrapped calls directly inside
        self.inner = 0.0   # the part of `child` spent in counter frames
        self.sid = sid
        self.span_name = span_name  # nearest enclosing span (or self)
        self.phase = phase


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        # (phase, name, enclosing span) -> [calls, total, self]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(float)
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0
        self._phase = "none"

    # ------------------------------------------------------------ state

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def phase(self, name: str) -> None:
        """Label frames started from now on (all threads)."""
        self._phase = name

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    # ----------------------------------------------------------- frames

    def enter(self, name: str, span: bool) -> _Frame:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if span:
            with self._lock:
                sid = self._next_sid
                self._next_sid += 1
            span_name = name
        else:
            sid = None
            span_name = parent.span_name if parent is not None else "-"
        phase = parent.phase if parent is not None else self._phase
        frame = _Frame(name, self.clock(), sid, span_name, phase)
        st.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        st = self._state()
        while st.stack and st.stack.pop() is not frame:
            pass  # frames orphaned by an exception raised inside enter()
        dur = end - frame.start
        parent = st.stack[-1] if st.stack else None
        enclosing = parent.span_name if parent is not None else "-"
        rec = st.agg[(frame.phase, frame.name, enclosing)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame.child
        if parent is not None:
            parent.child += dur
            if frame.sid is None:
                parent.inner += dur
        if frame.sid is not None:
            # nearest enclosing span is the parent span id
            psid = None
            for f in reversed(st.stack):
                if f.sid is not None:
                    psid = f.sid
                    break
            # counter frames between this span and its parent span do not
            # exist (counters never call wrapped spans), so `inner` is exact
            st.spans.append((frame.sid, frame.name, frame.start, end, psid,
                             self.op, threading.get_ident(), frame.inner))
        return dur

    # --------------------------------------------------------- wrapping

    def wrap(self, fn, name: str, span: bool = True,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.exit(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, on_item: Optional[Callable] = None):
        """Each resumption of the generator is one span; the generator's own
        time is the sum over its resumptions."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.count(name + ".calls")
            while True:
                frame = tracer.enter(name, True)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.exit(frame)
                    return
                except BaseException:
                    tracer.exit(frame)
                    raise
                tracer.exit(frame)
                if on_item is not None:
                    on_item(tracer, item)
                yield item

        return wrapper

    def wrap_tally(self, fn, name: str, inside: str):
        """Counts the calls of `fn` made directly inside an `inside` frame;
        no frame of its own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._state().stack
            if stack and stack[-1].name == inside:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def aggregate(self) -> dict:
        """(phase, name, enclosing span) -> [calls, total, self] over all
        threads."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, (n, tot, own) in st.agg.items():
                rec = out[key]
                rec[0] += n
                rec[1] += tot
                rec[2] += own
        return out

    def counts(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, n in st.counts.items():
                out[key] += n
        return out

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        out = []
        for st in threads:
            out.extend(st.spans)
        out.sort(key=lambda s: s[0])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, thread, inner in self.spans():
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "thread": thread, "inner": inner}) + "\n")

