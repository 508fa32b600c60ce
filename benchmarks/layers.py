"""Metric names and units, and the per-layer metrics derived from a Tracer."""

from __future__ import annotations

import inspect
import statistics

from common import REASONS

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
}

_BOUNDS_FNS = ("stabilizer_bisep_bound_numeric", "cluster_witness_bounds",
               "w_witness_bounds", "bisep_brute_force")

PER_LAYER = {
    "linalg.eigensolve.calls": "count",
    "linalg.eigensolve.matrices": "count",
    "linalg.eigensolve.busy_s": "s",
    "linalg.kron.calls": "count",
    "linalg.kron.busy_s": "s",
    "linalg.assert_hermitian.calls": "count",
    "linalg.assert_hermitian.busy_s": "s",
    "fidelity.numeric_l_eps.self_s": "s",
    "fidelity.tilt_evals": "count",
    "fidelity.eigensolves_per_tilt_eval": "solves/eval",
    "fidelity.outer_converged_ratio": "ratio",
    "fidelity.restarts_at_best_ratio": "ratio",
    "fidelity.restart_spread": "fidelity",
    **{f"bounds.{fn}.{m}": u for fn in _BOUNDS_FNS for m, u in (("calls", "count"),
                                                                ("busy_s", "s"))},
    "bounds.sweep_eigensolves_per_row": "solves/row",
    "bounds.seesaw_iteration_use_ratio": "ratio",
    "witnesses.build.calls": "count",
    "witnesses.build.busy_s": "s",
    "robustness.threshold_visibility.busy_s": "s",
    "robustness.noisy_witness_value.calls": "count",
    "robustness.max_i43.busy_s": "s",
    "measurement.fidelity_from_counts.busy_s": "s",
    "measurement.CountTable.from_csv.busy_s": "s",
    "states.apply_noise.calls": "count",
    "states.apply_noise.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "cli.emit.busy_s": "s",
    **{f"failed.{r}": "count" for r in REASONS},
    "failed_frac": "ratio",
    "l_eps_mean": "fidelity",
    "bound_mean": "witness_units",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_tracer(tracer) -> dict:
    """Every per-layer metric that the trace alone determines.

    ``*.calls`` count calls (leaves: eigensolver calls, ``numpy.kron``
    products); ``*.busy_s`` is inclusive time of the outermost calls.
    A layer the workload never reaches reads 0.
    """
    calls, busy, within = tracer.calls, tracer.busy, tracer.within
    out = {}
    for name in ("linalg.eigensolve", "linalg.kron", "linalg.assert_hermitian",
                 "witnesses.build", "states.apply_noise"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    out["linalg.eigensolve.matrices"] = tracer.matrices
    for fn in _BOUNDS_FNS:
        out[f"bounds.{fn}.calls"] = calls[f"bounds.{fn}"]
        out[f"bounds.{fn}.busy_s"] = busy[f"bounds.{fn}"]
    for name in ("robustness.threshold_visibility", "robustness.max_i43",
                 "measurement.fidelity_from_counts", "measurement.CountTable.from_csv",
                 "cli.emit"):
        out[f"{name}.busy_s"] = busy[name]
    out["robustness.noisy_witness_value.calls"] = calls["robustness.noisy_witness_value"]
    out["fidelity.numeric_l_eps.self_s"] = tracer.self_time("fidelity.numeric_l_eps")

    # Outer L_ε search, from the observed minimize() results of each op.
    by_op: dict = {}
    for op_id, res in tracer.results["fidelity.minimize"]:
        by_op.setdefault(op_id, []).append(res)
    restarts = sum(len(v) for v in by_op.values())
    tilt_evals = sum(int(r.nfev) for v in by_op.values() for r in v)
    at_best, spreads = 0, []
    for results in by_op.values():
        funs = [float(r.fun) for r in results]
        at_best += sum(f <= min(funs) + 1e-6 for f in funs)
        spreads.append(max(funs) - min(funs))
    out["fidelity.tilt_evals"] = tilt_evals
    out["fidelity.eigensolves_per_tilt_eval"] = _ratio(
        within[("fidelity.numeric_l_eps", "linalg.eigensolve")], tilt_evals)
    out["fidelity.outer_converged_ratio"] = _ratio(
        sum(bool(r.success) for v in by_op.values() for r in v), restarts)
    out["fidelity.restarts_at_best_ratio"] = _ratio(at_best, restarts)
    out["fidelity.restart_spread"] = statistics.fmean(spreads) if spreads else 0.0

    # θ-sweep rows and the see-saw.
    sweep = ("bounds.stabilizer_bisep_bound_numeric", "bounds.cluster_witness_bounds")
    out["bounds.sweep_eigensolves_per_row"] = _ratio(
        sum(within[(s, "linalg.eigensolve")] for s in sweep), sum(calls[s] for s in sweep))
    # Every traced see-saw call uses its default restarts and iterations.
    seesaws = calls["bounds.bisep_brute_force"]
    budget = 0
    if seesaws:
        import gmewit.bounds
        params = inspect.signature(inspect.unwrap(gmewit.bounds.bisep_brute_force)).parameters
        budget = seesaws * 2 * params["restarts"].default * params["iterations"].default
    out["bounds.seesaw_iteration_use_ratio"] = _ratio(
        within[("bounds.bisep_brute_force", "linalg.eigensolve")], budget)
    return out


def failures(ops) -> dict:
    out = {f"failed.{r}": 0 for r in REASONS}
    for op in ops:
        if op.reason is not None:
            out[f"failed.{op.reason}"] += 1
    out["failed_frac"] = _ratio(sum(op.reason is not None for op in ops), len(ops))
    return out
