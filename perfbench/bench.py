"""Shared pieces of the stdnet benchmark: tallies, spans, checks and the environment.

Import this module only after the thread-count environment variables are set
(``run.py`` does that), because it imports numpy.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# References are recorded for this seed only (the TrainConfig default).
REFERENCE_SEED = 0
REFERENCES_PATH = HERE / "references.json"

# Tolerances for the reference comparisons. ROADMAP item 2 allows last-bit
# drift from reordered float64 sums (sparse operators, other BLAS thread
# counts). Such drift is ~1e-16 relative per operation; after at most 30 Adam
# steps at lr 3e-5 it stays far below 1e-9, so 1e-6 keeps three orders of
# headroom while any real change of the loss, the optimizer or the sampling
# moves these values by 1e-4 or more.
LOSS_RTOL = 1e-6
# OBJ output prints 9 significant digits of coordinates of order 1.
VERTEX_ATOL = 1e-7
CHAMFER_RTOL = 1e-6
# F1, precision and recall count 2500 samples (0.04 points each): allow two
# samples to flip at a distance tie. IoU counts voxels of a 32^3 grid where a
# vertex moving by 1e-12 can flip a few boundary cells.
PERCENT_ATOL = {"f1": 0.1, "precision": 0.1, "recall": 0.1, "iou": 0.5}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        self.add(1, 0 if ok else 1, reason)
        return ok

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Tracer:
    """Spans kept in memory: name, operation id, start, end and parent span.

    Spans are opened only by the benchmark around calls into stdnet's public
    functions; nothing inside the program is instrumented.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op: str):
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def self_ms(self) -> list[tuple[str, str, float]]:
        """(op, name, self ms) per span: duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [(s["op"], s["name"], 1e3 * (s["end"] - s["start"] - c))
                for s, c in zip(self.spans, child)]

    def per_op(self, prefix: str) -> dict[str, dict[str, float]]:
        """Self ms summed by span name, for each operation whose id starts with prefix."""
        out: dict[str, dict[str, float]] = {}
        for op, name, ms in self.self_ms():
            if op is not None and op.startswith(prefix):
                by_name = out.setdefault(op, {})
                by_name[name] = by_name.get(name, 0.0) + ms
        return out

    def wall_ms(self, name: str, prefix: str = "") -> list[float]:
        """Durations of the spans with this name, in operations whose id starts with prefix."""
        return [1e3 * (s["end"] - s["start"]) for s in self.spans
                if s["name"] == name and (s["op"] or "").startswith(prefix)]

    @contextmanager
    def around(self, targets: list[tuple[object, str, str]]):
        """Replace each ``(owner, attribute, span name)`` by a wrapper that opens the span.

        The program's own code then runs with spans around the calls it makes
        through those names; the originals are restored on exit.
        """
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]

        def wrap(fn, name):
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced

        for (owner, attr, fn), (_, _, name) in zip(originals, targets):
            setattr(owner, attr, wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def trace_plan(tracer: Tracer, net, mesh, tally: Tally) -> int:
    """Time net.plan and, separately, the mesh calls it is made of; returns adjacency bytes.

    ``midpoint_subdivide`` and ``build_adjacency`` are called on the same stage
    meshes the plan derives, and their results must equal the plan's.
    """
    from stdnet.mesh import build_adjacency, midpoint_subdivide

    cfg = net.config
    with tracer.span("network.plan"):
        plan = net.plan(mesh)
    stages = [mesh]
    for _ in range(cfg.blocks - 1):
        with tracer.span("mesh.subdivide"):
            stages.append(midpoint_subdivide(stages[-1]))
    adjacency = []
    for stage in stages:
        with tracer.span("mesh.adjacency"):
            adjacency.append(build_adjacency(stage, hops=cfg.hops, mode=cfg.normalization))
    same = all(
        np.array_equal(s.faces, m.faces) and np.array_equal(s.edges, m.edges)
        and all(np.array_equal(s.adj.power(k), a.power(k)) for k in range(1, cfg.hops + 1))
        for s, m, a in zip(plan.stages, stages, adjacency))
    tally.check(same, "plan differs from its mesh-layer decomposition")
    return sum(a.power(k).nbytes for a in adjacency for k in range(1, cfg.hops + 1))


def median_of(per_op: dict[str, dict[str, float]], name: str) -> float:
    """Median over operations of one span name's self ms (0 where absent)."""
    if not per_op:
        return 0.0
    return statistics.median(d.get(name, 0.0) for d in per_op.values())


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def clocks() -> tuple[float, float]:
    """(wall, process CPU) seconds, read together."""
    return time.perf_counter(), time.process_time()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close_rel(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))


def load_references(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCES_PATH.is_file():
        return None
    return json.loads(REFERENCES_PATH.read_text()).get(workload)


def environment() -> dict:
    """Machine and library facts recorded next to every result."""
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "STDNET_THREADS")},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            sizes[f"L{level} {kind}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when it is loaded."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the program's source files, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
