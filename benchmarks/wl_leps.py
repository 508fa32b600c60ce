"""Workload ``leps``: seeded numeric L_ε queries, one at a time.

Each round is one query, with 2 tilt restarts: ``mermin4`` (X–Y tilt
plane) in even rounds and ``stabilizer4`` (X–Z tilt plane) in odd ones,
so that a run can stop within one query of ``--seconds``.  The
per-basis budget lies on the segment from the reference budget
(ε_X, ε_Y, ε_Z) = (6e-4, 2.3e-3, 3e-4) to uniform ε = 0.01, and the
observed value w is drawn so that L0 lies in [0.6, 0.95].
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys

import common

NAME = "leps"
TRACE_ROUNDS = 2
WITNESSES = ("mermin4", "stabilizer4")
REFERENCE = (6e-4, 2.3e-3, 3e-4)
UNIFORM_EPS = 0.01
TILT_RESTARTS = 2

#: The two L_ε points pinned by ``gmewit verify`` (acceptance settings:
#: reference budget, 8 restarts, query seed 0), as (witness, w, L_ε, tolerance).
PINNED = (("mermin4", 7.4665, 0.866, 0.01), ("stabilizer4", 10.5168, 0.881, 0.01))
PINNED_RESTARTS = 8


def make_round(seed: int):
    def round_ops(r: int):
        rng = random.Random(f"leps:{seed}:{r}")
        witness = WITNESSES[r % 2]
        t = rng.random()
        budget = tuple(ref + t * (UNIFORM_EPS - ref) for ref in REFERENCE)
        l0 = rng.uniform(0.6, 0.95)
        w = 8.0 * l0 if witness == "mermin4" else 3.0 + 8.0 * l0
        return [(witness, {"witness": witness, "w": w, "l0": l0,
                           "eps_xyz": budget, "query_seed": rng.randrange(2 ** 31)})]
    return round_ops


def setup():
    """Import the fidelity layer and warm it on the ideal-budget path."""
    from gmewit import fidelity, measurement
    ideal = measurement.ImprecisionBudget.ideal(4)
    for witness in WITNESSES:
        fidelity.numeric_l_eps(fidelity.FidelityBoundQuery(witness, 7.0, ideal))
    return {"fidelity": fidelity, "budget": measurement.ImprecisionBudget}


def do_op(ctx, op) -> float:
    p = op.params
    fidelity = ctx["fidelity"]     # looked up at call time, so traced runs see the wrappers
    budget = ctx["budget"].per_basis(*p["eps_xyz"], 4)
    query = fidelity.FidelityBoundQuery(p["witness"], p["w"], budget,
                                        tilt_restarts=TILT_RESTARTS, seed=p["query_seed"])
    return float(fidelity.numeric_l_eps(query))


def check(ctx, ops) -> None:
    for op in ops:
        if op.reason is None and not op.value <= op.params["l0"] + 1e-6:
            op.reason = "check"
            op.error = f"L_eps {op.value} > L0 {op.params['l0']} + 1e-6"


def pinned_checks() -> list[dict]:
    """The two ``verify`` points, untimed, computed in two parallel children."""
    procs = []
    try:
        for witness, w, _ref, _tol in PINNED:
            procs.append(subprocess.Popen(
                [sys.executable, str(common.BENCH_DIR / "probe.py"), "pinned", witness, repr(w)],
                cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True))
        results = []
        for (witness, w, ref, tol), proc in zip(PINNED, procs):
            out, err = proc.communicate(timeout=160)
            value = float(out.split()[-1]) if proc.returncode == 0 else None
            results.append({"witness": witness, "w": w, "expected": ref, "tolerance": tol,
                            "actual": value, "error": err.strip()[-300:] if value is None else None,
                            "passed": value is not None and abs(value - ref) <= tol})
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def pinned_value(witness: str, w: float) -> float:
    """One pinned point with the acceptance settings (run in a child)."""
    from gmewit.fidelity import FidelityBoundQuery, numeric_l_eps
    from gmewit.measurement import ImprecisionBudget
    budget = ImprecisionBudget.per_basis(*REFERENCE, 4)
    return float(numeric_l_eps(FidelityBoundQuery(witness, w, budget,
                                                  tilt_restarts=PINNED_RESTARTS)))


def quality(ops) -> dict:
    values = [op.value for op in ops if op.value is not None]
    return {"l_eps_mean": statistics.fmean(values) if values else 0.0}
