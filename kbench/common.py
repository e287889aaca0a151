"""Shared measurement machinery: reference kernel, statistics, guards.

Every timed operation is bracketed by a fixed pure-Python reference
kernel that lives here, outside the program under test. The host's
speed drifts by 10-30% over minutes, while the ratio of an operation's
time to nearby reference times drifts far less, so each timing is
reported "at reference speed": raw seconds scaled by
``REF_NOMINAL_S / local reference time``. Raw wall times are kept in
the run's details.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Nominal duration of one reference kernel call on the host the
#: benchmark was sized on (2 vCPU, CPython 3.11). Times "at reference
#: speed" are what an operation would take on a host where the kernel
#: runs in exactly this long.
REF_NOMINAL_S = 0.005

#: Percentiles considered for ``op_tail_ms``, lowest first.
TAIL_LADDER = (90.0, 95.0, 97.5, 99.0, 99.5, 99.9, 99.95, 99.99)

#: Samples a tail percentile needs beyond it.
TAIL_SUPPORT = 10


def _ref_graph() -> tuple[list[set[int]], list[int]]:
    """A fixed 40000-node adjacency (~30 MB of Python sets) and the nodes
    the kernel visits, from a linear congruential stream."""
    n, degree, visits = 40000, 10, 450
    adj: list[set[int]] = [set() for _ in range(n)]
    x = 12345
    for u in range(n):
        for _ in range(degree // 2):
            x = (1103515245 * x + 12345) % (1 << 31)
            v = x % n
            if v != u:
                adj[u].add(v)
                adj[v].add(u)
    order = []
    for _ in range(visits):
        x = (1103515245 * x + 12345) % (1 << 31)
        order.append(x % n)
    return adj, order


def _status_mb(pid: int | str, field: str) -> float:
    """A memory figure (``VmRSS:``, ``VmHWM:``) of a process in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not reported by /proc")


_RSS_BEFORE_KERNEL = _status_mb("self", "VmRSS:")
_REF_ADJ, _REF_ORDER = _ref_graph()
# The kernel's 40000 sets would otherwise be traversed by every garbage
# collection, including automatic ones inside timed operations.
gc.freeze()


def ref_kernel() -> int:
    """Fixed pure-Python work in the solvers' idiom: set intersections and
    dict updates scattered over a working set far larger than a CPU
    cache, as the solvers' graphs are. (A cache-resident kernel sped up
    in a fast host phase by about 1.3x as much as the workloads did.)
    Returns a checksum so nothing is elided."""
    adj = _REF_ADJ
    counts: dict[int, int] = {}
    total = 0
    for u in _REF_ORDER:
        nu = adj[u]
        for v in nu:
            common = nu & adj[v]
            total += len(common)
            counts[v] = counts.get(v, 0) + len(adj[v])
    return total + len(counts)


REF_CHECKSUM = ref_kernel()

#: Resident memory the reference kernel adds to the benchmark process;
#: :func:`program_peak_rss_mb` leaves it out.
REF_RSS_MB = _status_mb("self", "VmRSS:") - _RSS_BEFORE_KERNEL


class RefClock:
    """Reference-kernel samples taken between timed operations.

    Call :meth:`sample` before each timed operation and once after the
    last; the operation between samples ``i`` and ``i + 1`` is scaled by
    the median of the ``WINDOW`` samples on each side of it. One kernel
    run varies by 5-20% on a shared host while the host's speed drifts
    over tens of seconds, so a median over a few seconds of samples
    tracks the drift without passing single-run noise on to every
    operation.
    """

    WINDOW = 16

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time one kernel run; returns the sample's index."""
        t0 = time.perf_counter()
        checksum = ref_kernel()
        elapsed = time.perf_counter() - t0
        if checksum != REF_CHECKSUM:
            raise RuntimeError("reference kernel checksum changed")
        self.samples.append(elapsed)
        return len(self.samples) - 1

    def record(self, elapsed: float) -> int:
        """Add an externally measured kernel time (tests inject these)."""
        self.samples.append(elapsed)
        return len(self.samples) - 1

    def local(self, index: int) -> float:
        """Reference time around the operation that followed sample ``index``."""
        lo = max(0, index + 1 - self.WINDOW)
        window = self.samples[lo : index + 1 + self.WINDOW]
        return statistics.median(window)

    def scale(self, index: int, raw_seconds: float) -> float:
        """``raw_seconds`` of the operation after sample ``index``, at reference speed."""
        return raw_seconds * REF_NOMINAL_S / self.local(index)

    def summary(self) -> dict:
        ms = [s * 1e3 for s in self.samples]
        return {
            "samples": len(ms),
            "median_ms": statistics.median(ms) if ms else None,
            "min_ms": min(ms) if ms else None,
            "max_ms": max(ms) if ms else None,
        }


def quiesce() -> None:
    """Off-the-clock collection before a timed operation."""
    gc.collect()


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank, rounded first so 99.9% of 10000 is 9990, not 9991."""
    return math.ceil(round(pct * count / 100.0, 9))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the value with ``pct``% of samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, _rank(pct, len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_SUPPORT`` samples beyond it.

    ``None`` when even the lowest rung lacks support; callers then
    report the median, which needs ``2 * TAIL_SUPPORT`` samples.
    """
    best = None
    for pct in TAIL_LADDER:
        beyond = count - _rank(pct, count)
        if beyond >= TAIL_SUPPORT:
            best = pct
    return best


def tail_rank(count: int) -> float:
    """The percentile ``op_tail_ms`` reports for ``count`` samples."""
    pct = tail_percentile(count)
    return 50.0 if pct is None else pct


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` for the tail rule above."""
    pct = tail_rank(len(values))
    return percentile(values, pct), pct, len(values)


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB (Linux ``/proc``)."""
    return _status_mb(pid, "VmHWM:")


def program_peak_rss_mb() -> tuple[float, dict]:
    """Peak RSS of this process without the reference kernel's adjacency,
    which stays resident all run, and the figures it is derived from."""
    vmhwm = peak_rss_mb()
    return vmhwm - REF_RSS_MB, {"vmhwm_mb": vmhwm, "ref_kernel_mb": REF_RSS_MB}


class RepeatGuard:
    """Exact counts that must repeat across runs of one seed.

    The first run of a key (workload, seed, seconds, trace and a hash of
    the benchmark's and the program's code) in a checkout stores its
    counts under ``.kbench_state/``; every later run of the key must
    reproduce them, or the work depended on timing. A change to either
    code gives a new key, so runs of different code are never compared.
    """

    def __init__(self, root: Path, key: dict) -> None:
        blob = json.dumps(key, sort_keys=True).encode()
        name = hashlib.sha256(blob).hexdigest()[:16] + ".json"
        self.path = root / ".kbench_state" / name
        self.key = key

    def check(self, counts: dict) -> list[str]:
        """Store ``counts`` or compare with the stored ones; returns mismatches."""
        if self.path.exists():
            stored = json.loads(self.path.read_text(encoding="utf-8"))["counts"]
            return [
                f"{name}: {stored.get(name)!r} stored, {value!r} now"
                for name, value in sorted(counts.items())
                if stored.get(name) != value
            ] + [f"{name}: stored but not produced" for name in sorted(set(stored) - set(counts))]
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"key": self.key, "counts": counts}, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
        return []


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``values`` holds the metrics of the run's mode (end-to-end when
    untraced, per-layer when traced); ``counts`` are the exact counts
    the cross-run guard compares; ``details`` is the steadiness report.
    """

    values: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def code_digest(root: Path, *dirs: str) -> str:
    """Hash of every ``.py`` file under ``dirs`` (paths and contents)."""
    digest = hashlib.sha256()
    for name in dirs:
        for path in sorted((root / name).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def fail(errors: list[str], message: str) -> None:
    """Record a failed check (capped so a systematic failure stays readable)."""
    if len(errors) < 50:
        errors.append(message)
