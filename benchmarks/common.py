"""Shared pieces of the benchmark: paths, the closed loop, statistics,
set-up probes and the run record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: BLAS/OpenMP thread caps applied to the benchmark and every child it starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Set-up is measured in this many fresh interpreters per run, half before
#: and half after the timed loop; the median is reported.
SETUP_SAMPLES = 8

#: Failure reasons, in the order they are reported.  The last three are
#: known defects of the program: they are counted in ``failed.<reason>``,
#: ``failed_frac`` and the run record, not in the result line's ``failed``,
#: and they do not make the run incorrect.  Any other reason does both.
#:   partition_excess    2|2 see-saw above 9·2^{n−4}−1 (README "Known discrepancies")
#:   below_single_party  numeric θ-sweep bound below the single-party closed form
#:   i43_crash           ``robustness --witness i43`` parses --i43-bound as a string
REASONS = ("exception", "exit_code", "bad_output", "check", "partition_excess",
           "below_single_party", "i43_crash")
KNOWN_DEFECTS = {"partition_excess", "below_single_party", "i43_crash"}

#: Regime switch (2−√2)/4 of the Mermin bound; the closed forms hold below it.
EPS_STAR = (2 - math.sqrt(2)) / 4


def mermin4_bisep(eps: float) -> float:
    """Corrected Mermin biseparable bound for n = 4: 4(q+u), q = 1−2ε,
    u = 2√(ε(1−ε)), plateauing at 2^{5/2} above ε*."""
    if eps <= EPS_STAR:
        return 4 * (1 - 2 * eps + 2 * math.sqrt(eps * (1 - eps)))
    return 2 ** 2.5


class SetupError(RuntimeError):
    """The program under test cannot be found or loaded."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def use_working_tree() -> None:
    """Make ``import gmewit`` load ``src/`` of this checkout, nothing else.

    Must run before numpy is imported, so that the thread caps hold.
    """
    if not (SRC / "gmewit" / "__init__.py").is_file():
        raise SetupError(f"no gmewit package under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def assert_working_tree() -> None:
    """Fail unless the imported gmewit is the one under ``src/``."""
    mod = sys.modules.get("gmewit")
    if mod is not None and Path(mod.__file__).resolve().parent != (SRC / "gmewit").resolve():
        raise SetupError(f"gmewit was imported from {mod.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Ops and the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One operation: its kind, generated inputs, and what happened."""

    index: int
    round: int
    kind: str
    params: dict
    seconds: float = 0.0
    value: object = None
    error: str | None = None
    reason: str | None = None
    extra: dict = field(default_factory=dict)


def closed_loop(make_round, do_op, seconds: float | None, rounds: int | None,
                on_op_start=None) -> tuple[list[Op], float]:
    """Run whole rounds of ops one at a time until ``rounds`` rounds are done,
    or, if ``rounds`` is None, until the round boundary nearest to
    ``seconds`` (judged by the mean round so far; at least one round).

    Stopping only between rounds keeps every run's op mix identical.
    ``do_op`` returns the op's value or raises; exceptions are recorded.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    r = 0
    while True:
        for kind, params in make_round(r):
            op = Op(len(ops), r, kind, params)
            if on_op_start is not None:
                on_op_start(op)
            t0 = time.perf_counter()
            try:
                op.value = do_op(op)
            except Exception as exc:  # an op's failure is data, the loop goes on
                op.error = f"{type(exc).__name__}: {exc}"
                op.reason = "exception"
            op.seconds = time.perf_counter() - t0
            ops.append(op)
        r += 1
        elapsed = time.perf_counter() - start
        if rounds is not None and r >= rounds or rounds is None and elapsed * (1 + 0.5 / r) >= seconds:
            return ops, elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Tail latency: p90 of a run with at least 100 ops, else its maximum.

    Returns (value, percentile, samples beyond).  The highest percentile
    with ten samples beyond it would be p9 at 11 ops (cli) and, at ~1000
    ops (bounds), p99 — which on a shared host measures scheduler stalls,
    not the program.  p90 keeps ten or more samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, 0
    k = math.ceil(0.9 * n)          # xs[k-1] is the p90 sample
    return xs[k - 1], 100.0 * k / n, n - k


def throughput(ops: list[Op]) -> float:
    """Ops per round ÷ mean wall time of a round, the slowest and fastest
    tenth of the rounds left out.

    With many short rounds (bounds) the trim drops rounds hit by a host
    stall; with fewer than ten (leps, cli) it is the plain ops ÷ time, which
    uses every round.
    """
    rounds: dict[int, float] = {}
    for op in ops:
        rounds[op.round] = rounds.get(op.round, 0.0) + op.seconds
    times = sorted(rounds.values())
    k = len(times) // 10
    return len(ops) / len(times) / statistics.fmean(times[k:len(times) - k])


def end_to_end(ops: list[Op], elapsed: float, setup: list[float], rss_mib: float) -> tuple[dict, dict]:
    lat = [op.seconds for op in ops]
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(ops),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mib": rss_mib,
    }
    details = {"op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
               "samples": len(lat), "elapsed_s": elapsed, "setup_samples_s": setup}
    return metrics, details


def unexpected_failures(ops: list[Op]) -> list[Op]:
    return [op for op in ops if op.reason is not None and op.reason not in KNOWN_DEFECTS]


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0    # ru_maxrss is KiB on Linux


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_child(args: list[str], timeout: float, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped on timeout)."""
    return subprocess.run(args, cwd=cwd or ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


def probe_setup(workload: str, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, as each measures itself."""
    samples = []
    for _ in range(count):
        proc = run_child([sys.executable, str(BENCH_DIR / "probe.py"), "setup", workload],
                         timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of this checkout; None when it is not a git work tree (git would
    otherwise report an enclosing repository's commit)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import numpy as np
    info = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        pass
    return info


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "argv": sys.argv,
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
