"""Loading maxac from source, the closed-loop timer, spans and statistics."""

from __future__ import annotations

import bisect
import gc
import importlib
import json
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the package's modules, which are the benchmark's layers
LAYERS = ("core", "rowform", "normalize", "enumeration", "counting", "game",
          "verification", "cli")


class MissingSource(RuntimeError):
    """The checkout holds no maxac sources to benchmark."""


class CheckFailed(Exception):
    """An op returned a result that disagrees with the expected value."""


def load_package() -> SimpleNamespace:
    """Import maxac afresh from ``src/``, dropping any copy imported earlier.

    A fresh import per pass means no module-level cache or lazily built
    state can carry over from one pass of ops to the next.
    """
    if not (SRC / "maxac" / "__init__.py").is_file():
        raise MissingSource(f"no maxac package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "maxac" or n.startswith("maxac.")]:
        del sys.modules[name]
    pkg = importlib.import_module("maxac")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingSource(f"imported maxac from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"maxac.{name}") for name in LAYERS}
    gc.collect()
    gc.freeze()
    return SimpleNamespace(pkg=pkg, **mods)


class Tracer:
    """In-memory spans (name, start, end, parent index, op id).

    Spans nest because every call runs on one thread, so a span's self time
    is its duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.failures: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int, failed: bool = False) -> None:
        """Close a span; a failed one counts against its layer."""
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if failed:
            layer = self.spans[index][0].split(".", 1)[0]
            self.failures[layer] = self.failures.get(layer, 0) + 1

    def wrap(self, name: str, fn, failed_when=None, expected=()):
        """``fn`` inside a span.  A raise, unless of an ``expected`` type, or
        a true ``failed_when(result)`` counts as a failure of the span's
        layer."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, failed=not isinstance(exc, expected))
                raise
            self.end(index, failed=failed_when is not None and failed_when(result))
            return result

        return traced

    def patch(self, module, attr: str, failed_when=None) -> None:
        """Route calls that ``module`` makes through its global ``attr`` into
        a span named after the layer that defines the function."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(module, attr, self.wrap(f"{layer}.{attr}", fn, failed_when))
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            seconds, calls = out.get(name, (0.0, 0))
            out[name] = (seconds + (end - start) - inner, calls + 1)
        return out

    def write(self, path: Path) -> None:
        """All spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Seconds the reference loop takes at the speed all reported times are
# scaled to.  On the 2-vCPU 2.1 GHz VM the benchmark was tuned on, the loop
# took 0.7 ms in quiet minutes and up to 1.5 ms in busy ones.
REFERENCE_SECONDS = 0.0010
SAMPLE_EVERY = 0.025  # seconds of wall time between reference samples
SAMPLE_WINDOW = 0.25  # seconds on each side of an op whose samples count


def reference_loop() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now: the
    tuples, sorting and dict lookups the package's own code is made of."""
    start = time.perf_counter()
    rows = [(i * 7919 % 1000, i) for i in range(2000)]
    rows.sort()
    index = {row: k for k, row in enumerate(rows)}
    sum(index[row] for row in rows if row[0] % 3)
    return time.perf_counter() - start


class Speedometer:
    """The machine's current speed, from the reference loop run between ops.

    On a shared machine the same code runs up to twice as slowly in some
    minutes as in others.  Scaling an op's time by REFERENCE_SECONDS over
    the median reference time around the op removes most of that drift, so
    a time reads as it would at the reference speed.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self, every: float = 0.0) -> None:
        """Run the reference loop, unless it ran less than ``every`` ago."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= every:
            self.samples.append(reference_loop())
            self.stamps.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between ``start`` and ``end``: the samples
        within SAMPLE_WINDOW of it, and at least the nearest on each side."""
        lo = bisect.bisect_left(self.stamps, start - SAMPLE_WINDOW)
        hi = bisect.bisect_right(self.stamps, end + SAMPLE_WINDOW)
        lo = min(lo, max(0, bisect.bisect_right(self.stamps, start) - 1))
        hi = max(hi, min(len(self.stamps), bisect.bisect_left(self.stamps, end) + 1))
        return REFERENCE_SECONDS / median(self.samples[lo:hi])


class Outcome:
    """Latencies of completed ops and the failure tally of one pass.

    ``latencies`` are wall seconds as measured; ``scaled`` are the same ops
    at the reference speed (see Speedometer).  ``results`` holds (op,
    result) pairs where a traced run needs them afterwards.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.results: list = []

    def record_failure(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {label}: {detail}", file=sys.stderr)


def run_ops(ops, call, check, seconds: float) -> Outcome:
    """Closed loop, one client: each op starts after the previous op and its
    check have finished.  Only ``call`` is timed; ``check``, the reference
    samples and a garbage collection run between ops.  Stops early if
    ``seconds`` of wall time run out."""
    out = Outcome()
    speed = Speedometer()
    spans = []
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        speed.sample(SAMPLE_EVERY)
        if time.perf_counter() >= deadline:
            break
        # garbage left by the previous op is collected here, not inside
        # whichever op happens to come next
        gc.collect()
        out.attempted += 1
        start = time.perf_counter()
        try:
            result = call(index, op)
        except Exception as exc:  # an op that raises is a failed op; keep going
            out.record_failure(repr(op)[:80], "".join(
                traceback.format_exception_only(type(exc), exc)).strip())
            continue
        end = time.perf_counter()
        out.latencies.append(end - start)
        spans.append((start, end))
        try:
            check(op, result)
        except Exception as exc:  # a check that cannot even run also fails the op
            out.record_failure(repr(op)[:80], f"{type(exc).__name__}: {exc}")
    speed.sample()
    out.scaled = [(end - start) * speed.factor(start, end) for start, end in spans]
    return out


def run_paired(ops, plain, traced, check, seconds: float):
    """Each op twice, back to back in alternating order: through ``plain``
    and through ``traced``, which should use two separately imported copies
    of the package.  Pairing the calls in time keeps the machine's drift out
    of the tracing overhead.  As every op runs twice, the wall-clock limit is
    twice ``seconds``.  Returns the outcome of the traced calls and the
    untraced and traced latencies."""
    out = Outcome()
    seen = {plain: [], traced: []}
    deadline = time.perf_counter() + 2 * seconds
    for index, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            break
        out.attempted += 1
        results = {}
        try:
            for call in (plain, traced) if index % 2 else (traced, plain):
                gc.collect()
                start = time.perf_counter()
                results[call] = call(index, op)
                seen[call].append(time.perf_counter() - start)
                check(op, results[call])
        except Exception as exc:  # a failed op is counted; the run goes on
            out.record_failure(repr(op)[:80], f"{type(exc).__name__}: {exc}")
            continue
        out.results.append((op, results[traced]))
    return out, seen[plain], seen[traced]


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile that still has ten ops above it
    (the slowest op when there are fewer than eleven)."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return {
        "p50": median(ordered),
        "tail": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / len(ordered),
        "ops": len(ordered),
    }
