"""Span tracer for the benchmark's traced run.

Wraps public airylink functions from outside the package: each wrapper
records a span (name, start, end, parent span, thread, pass id) around
the call. Modules import each other by name (`from .channels import
beam_column`), so a wrapper is bound into every `airylink*` namespace that
holds the original function, not only the defining module. Names that
cannot be found are returned to the caller instead of being dropped, so a
refactor that moves a function shows up as "missing", not as zero calls.

Each thread keeps its own span stack: the sweep runners call into the
channel layer from pool threads, and a shared stack would charge one
thread's children against another thread's span. Self time is a span's
duration minus the durations of its direct children on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

import numpy as np

# FFT entry points counted by the tracer: transforms along one axis.
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self):
        self.pass_id = 0
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._thread_spans = []  # one list per thread that recorded a span
        self.fft_calls = 0
        self.fft_flops = 0.0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = (threading.get_ident(), [], [])  # (thread id, stack, spans)
            self._local.state = state
            with self._lock:
                self._thread_spans.append(state[2])
        return state

    def wrap(self, name: str, fn, on_return=None):
        """Return `fn` wrapped in a span called `name`. `on_return`, if
        given, receives each return value (used for counters the program
        reports through its results)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid, stack, spans = self._state()
            parent = stack[-1][0] if stack else None
            entry = [next(self._ids), time.perf_counter(), 0.0]  # id, start, child time
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - entry[1]
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (entry[0], name, entry[1], end, parent, tid, self.pass_id, duration - entry[2])
                )
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def wrap_fft(self, fn):
        """Count one-axis FFT calls and their computed flops, 5 N log2 N per
        transform of length N (a batched call counts each row)."""

        @functools.wraps(fn)
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            shape = np.shape(a)
            length = n if n is not None else shape[axis]
            batch = math.prod(shape) // shape[axis] if shape[axis] else 0
            flops = 5.0 * length * math.log2(length) * batch if length > 1 else 0.0
            with self._lock:
                self.fft_calls += 1
                self.fft_flops += flops
            return fn(a, n, axis, *args, **kwargs)

        return wrapper

    def spans(self) -> list:
        """Every recorded span: (id, name, start, end, parent id, thread id,
        pass id, self time)."""
        with self._lock:
            return sorted(s for spans in self._thread_spans for s in spans)


class Binding:
    """Installs wrappers by name and restores the originals on `restore`."""

    def __init__(self):
        self._patches = []  # (namespace, attribute, original)

    def _bind(self, original, wrapper, extra_namespaces=()) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "airylink" or name.startswith("airylink."))
        ]
        for ns in list(extra_namespaces) + namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self, tracer: Tracer, targets, hooks=None) -> list:
        """Wrap each 'module.function' in `targets` (module relative to the
        airylink package) and count airylink's FFT calls. Returns the
        targets that could not be found."""
        hooks = hooks or {}
        missing = []
        for target in targets:
            module_name, _, fn_name = target.rpartition(".")
            module = sys.modules.get(f"airylink.{module_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                missing.append(target)
                continue
            self._bind(original, tracer.wrap(target, original, hooks.get(target)))
        for fn_name in _FFT_NAMES:
            original = getattr(np.fft, fn_name)
            self._bind(original, tracer.wrap_fft(original), extra_namespaces=(np.fft,))
        return missing

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()


def fft_pair_times_us(nx: int, reps: int) -> list:
    """Times of `reps` raw numpy FFT+IFFT pairs of length `nx`, in us."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    fft, ifft = np.fft.fft, np.fft.ifft
    ifft(fft(x))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ifft(fft(x))
        times.append((time.perf_counter() - t0) * 1e6)
    return times
