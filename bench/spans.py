"""In-memory span tracer that wraps dectlink's public functions from outside.

A span records name, start, end, parent span and op id for one call into a
layer. One high-frequency inner call (a model's path_loss inside the solver
or a sweep) is counted instead: its wrapper does a single integer increment,
and each span notes the count when it opens and closes, so the calls can be
attributed to the innermost span around them. The wrapper's own per-call
cost is measured once (calibrate) and subtracted from that span's self time.
Nothing under src/ is changed: wrappers replace the module and class
attributes while the tracer is installed, and uninstall() puts the
originals back.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter_ns

_NAME, _START, _END, _PARENT, _OP, _UNITS, _RAISED, _TICKS0, _TICKS1 = range(9)
PACKAGE = "dectlink"
CALIBRATE_CALLS = 100_000
CALIBRATE_REPEATS = 7
REPLAY_MAX_SAMPLES = 100_000
REPLAY_REPEATS = 3


def _count_wrapper(fn, cell: list):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.counted_name: str | None = None
        self.ticks = [0]  # calls through the counted wrapper so far
        self.wrapper_ns = 0.0  # per-call cost of the counted wrapper, from calibrate()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, True, self.ticks[0], 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = perf_counter_ns()
        return rec

    def _close(self, rec: list, raised: bool) -> None:
        rec[_END] = perf_counter_ns()
        rec[_TICKS1] = self.ticks[0]
        rec[_RAISED] = raised
        self._stack.pop()

    def _span_wrapper(self, name, fn, units):
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            rec = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(rec, True)
                raise
            close(rec, False)
            if units is not None:
                rec[_UNITS] = units(args, result)
            return result

        return wrapper

    def region(self, name: str, op: int):
        """Span around benchmark code, such as one whole op; use as a context manager."""
        self.op = op
        return _Region(self, name)

    # ------------------------------------------------------------ patching

    def wrap_function(self, fn, name: str, units=None) -> None:
        """Replace fn wherever a module of the dectlink package binds it."""
        wrapper = self._span_wrapper(name, fn, units)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self._span_wrapper(name, cls.__dict__[attr], None))

    def count_method(self, cls, attr: str, name: str) -> None:
        """Count calls of cls.attr without spanning them; one counted method per tracer."""
        if self.counted_name is not None:
            raise ValueError(f"already counting {self.counted_name}")
        self.counted_name = name
        self._patch(cls, attr, _count_wrapper(cls.__dict__[attr], self.ticks))

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def calibrate(self) -> float:
        """Measure what the counted wrapper adds to one method call, in ns."""

        class Probe:
            def method(self, d):
                return d

        direct = Probe().method
        Probe.method = _count_wrapper(Probe.__dict__["method"], [0])
        wrapped = Probe().method

        def best_ns(call):
            best = math.inf
            for _ in range(CALIBRATE_REPEATS):
                t0 = perf_counter_ns()
                for _ in range(CALIBRATE_CALLS):
                    call(1.0)
                best = min(best, perf_counter_ns() - t0)
            return best

        self.wrapper_ns = max(0.0, (best_ns(wrapped) - best_ns(direct)) / CALIBRATE_CALLS)
        return self.wrapper_ns

    # ------------------------------------------------------------ results

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, self_ns, units, raised, counted and correction_ns.

        Self time is a span's duration minus its direct children's, minus the
        counted wrapper's cost for the counted calls made directly inside it
        (`counted`); `correction_ns` is the time so subtracted.
        """
        child_ns = [0] * len(self.spans)
        child_ticks = [0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
                child_ticks[s[_PARENT]] += s[_TICKS1] - s[_TICKS0]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            agg = out.setdefault(s[_NAME], {"calls": 0, "self_ns": 0.0, "units": 0, "raised": 0,
                                            "counted": 0, "correction_ns": 0.0})
            counted = s[_TICKS1] - s[_TICKS0] - child_ticks[i]
            correction = counted * self.wrapper_ns
            agg["calls"] += 1
            agg["self_ns"] += s[_END] - s[_START] - child_ns[i] - correction
            agg["units"] += s[_UNITS]
            agg["raised"] += s[_RAISED]
            agg["counted"] += counted
            agg["correction_ns"] += correction
        return out

    def dump(self, path) -> None:
        """Write one JSON object per span, then the counted total and wrapper cost."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "units", "raised",
                "counted_before", "counted_after")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            fh.write(json.dumps({"counted": self.counted_name, "calls": self.ticks[0],
                                 "wrapper_ns": self.wrapper_ns}) + "\n")


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.rec, exc_type is not None)
        return False


def replay_ns_per_call(cls, attr: str, run, expected_calls: int) -> tuple[float, int]:
    """Cost of one cls.attr call at the argument mix that run() produces.

    Runs run() once while recording the arguments of every k-th call (at
    most REPLAY_MAX_SAMPLES of them), then times the unwrapped method over
    the recorded arguments; the fastest of REPLAY_REPEATS replays counts.
    Returns (ns per call, calls replayed).
    """
    fn = cls.__dict__[attr]
    stride = max(1, -(-expected_calls // REPLAY_MAX_SAMPLES))
    seen = [0]
    samples: list[tuple] = []

    def recorder(*args, **kwargs):
        seen[0] += 1
        if seen[0] % stride == 0:
            samples.append((args, kwargs))
        return fn(*args, **kwargs)

    setattr(cls, attr, recorder)
    try:
        run()
    finally:
        setattr(cls, attr, fn)
    if not samples:
        return 0.0, 0
    best = math.inf
    for _ in range(REPLAY_REPEATS):
        t0 = perf_counter_ns()
        for args, kwargs in samples:
            fn(*args, **kwargs)
        best = min(best, perf_counter_ns() - t0)
    return best / len(samples), len(samples)
