"""Command-line surface: bounds, witness evaluation, spoofing and robustness
tables, fidelity bounds, detector tomography and the verification suite."""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import fixture_path
from .acceptance import REFERENCE_BUDGET, run_checks
from .bounds import (cluster_witness_bounds, mermin_bisep_bound,
                     mermin_quantum_bound, spoofing_curve,
                     stabilizer_bisep_bound_numeric, stabilizer_fully_sep_bound,
                     stabilizer_single_party_bound, w_witness_bounds)
from .fidelity import (FidelityBoundQuery, closed_form_l0, fidelity_curve,
                       numeric_l_eps)
from .linalg import expectation
from .measurement import CountTable, ImprecisionBudget, fidelity_from_counts
from .robustness import (ThresholdQuery, DEFAULT_I43_BISEP_BOUND,
                         default_bisep_bound, di_thresholds, robustness_sweep,
                         threshold_visibility)
from .states import (NoiseModel, apply_noise, cluster_state_4, ghz_state,
                     spoof_state, w_state)
from .witnesses import (BUILDERS, eval_from_correlators, inm_value,
                        load_correlator_fixture)


def fmt(x) -> str:
    """12-significant-digit decimal rendering for reproducible diffs."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def emit(rows: list[dict], columns: list[str], out, output_format: str) -> None:
    if output_format == "json":
        text = json.dumps(
            [{c: (fmt(r.get(c)) if isinstance(r.get(c), float) else r.get(c))
              for c in columns} for r in rows], indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(
                fmt(r.get(c)) if not isinstance(r.get(c), str) else r.get(c)
                for c in columns))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def parse_grid(spec: str) -> np.ndarray:
    """Parse a ``start:stop:count`` grid specification."""
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise click.BadParameter("expected start:stop:count") from exc


def parse_noise(spec: str) -> NoiseModel:
    try:
        kind, p = spec.split(":")
        if kind == "white":
            kind = "depolarizing"
        return NoiseModel(kind, float(p))
    except ValueError as exc:
        raise click.BadParameter("expected kind:p, e.g. dephasing:0.9") from exc


class _Main(click.Group):
    """Reports bad input found inside a command as a one-line usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, FileNotFoundError) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Multiqubit entanglement witnesses under imprecise measurements."""


_common = [
    click.option("--out", default=None, help="Output file (default stdout)."),
    click.option("--format", "output_format", default="csv",
                 type=click.Choice(["csv", "json"])),
]

def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


BOUND_COLUMNS = ["epsilon", "bound_biseparable", "bound_single_party",
                 "bound_fully_separable", "bound_quantum", "regime"]


def _bound_row(witness: str, n: int, eps: float) -> dict:
    if witness == "mermin":
        bisep = mermin_bisep_bound(n, eps)
        return {"epsilon": eps, "bound_biseparable": bisep.value,
                "bound_single_party": bisep.value,
                "bound_fully_separable": None,
                "bound_quantum": mermin_quantum_bound(n).value,
                "regime": bisep.regime}
    if witness == "stabilizer":
        bisep = stabilizer_bisep_bound_numeric(n, eps)
        return {"epsilon": eps, "bound_biseparable": bisep.value,
                "bound_single_party": stabilizer_single_party_bound(n, eps).value,
                "bound_fully_separable": stabilizer_fully_sep_bound(n, eps).value,
                "bound_quantum": float(3 * 2 ** (n - 2) - 1),
                "regime": bisep.regime}
    if witness == "wstate":
        b = w_witness_bounds(eps)
        return {"epsilon": eps, "bound_biseparable": b["biseparable"].value,
                "bound_single_party": b["single_party"].value,
                "bound_fully_separable": b["fully_separable"].value,
                "bound_quantum": b["quantum"].value,
                "regime": b["biseparable"].regime}
    if witness == "cluster":
        b = cluster_witness_bounds(eps)
        return {"epsilon": eps, "bound_biseparable": b["biseparable"].value,
                "bound_single_party": b["single_party"].value,
                "bound_fully_separable": b["fully_separable"].value,
                "bound_quantum": 6.0,
                "regime": b["biseparable"].regime}
    raise click.BadParameter(f"unknown witness {witness!r}")


@main.command()
@click.option("--witness", required=True,
              type=click.Choice(["mermin", "stabilizer", "wstate", "cluster"]))
@click.option("--n", default=4, show_default=True)
@click.option("--eps", default=None, type=float)
@click.option("--eps-grid", default=None, help="start:stop:count grid of ε values.")
@common_options
def bound(witness, n, eps, eps_grid, out, output_format):
    """Separability bound curves for a witness family."""
    if (eps is None) == (eps_grid is None):
        raise click.BadParameter("give exactly one of --eps / --eps-grid")
    grid = [eps] if eps is not None else parse_grid(eps_grid)
    rows = [_bound_row(witness, n, float(e)) for e in grid]
    emit(rows, BOUND_COLUMNS, out, output_format)


STATES = {
    "ghz3": lambda: ghz_state(3, +1),
    "ghz4": lambda: ghz_state(4, +1),
    "ghz4-": lambda: ghz_state(4, -1),
    "w": w_state,
    "cluster": cluster_state_4,
    "spoof4": lambda: spoof_state(4),
}


@main.command()
@click.option("--witness", "witness_name", default=None,
              type=click.Choice(sorted(BUILDERS)))
@click.option("--state", "state_name", default=None,
              type=click.Choice(sorted(STATES)))
@click.option("--noise", default=None, help="Noise channel as kind:p.")
@click.option("--eps", default=0.0, type=float,
              help="Uniform tilt ε applied to every party and basis.")
@click.option("--fixture", default=None,
              help="Correlator fixture JSON (bundled name or path).")
@common_options
def witness(witness_name, state_name, noise, eps, fixture, out, output_format):
    """Witness expectation on a state or on measured correlators."""
    if fixture is not None:
        path = fixture if "/" in fixture else fixture_path(fixture)
        name, records = load_correlator_fixture(path)
        spec = BUILDERS[name]()
        value, std = eval_from_correlators(spec, records)
        rows = [{"witness": name, "source": str(fixture),
                 "value": value, "std": std}]
        emit(rows, ["witness", "source", "value", "std"], out, output_format)
        return
    if witness_name is None or state_name is None:
        raise click.BadParameter("give --fixture, or both --witness and --state")
    budget = None if eps == 0.0 else ImprecisionBudget.uniform(eps, BUILDERS[witness_name]().n)
    spec = BUILDERS[witness_name](budget)
    state = STATES[state_name]()
    if noise is not None:
        state = apply_noise(state, parse_noise(noise))
    value = expectation(spec.matrix, state)
    rows = [{"witness": witness_name, "source": state_name, "value": value,
             "std": None}]
    emit(rows, ["witness", "source", "value", "std"], out, output_format)


@main.command()
@click.option("--eps-grid", required=True, help="start:stop:count grid of ε values.")
@common_options
def spoof(eps_grid, out, output_format):
    """Predicted spoofing curve of the tilted Mermin witness."""
    rows = spoofing_curve(parse_grid(eps_grid))
    emit(rows, ["epsilon", "predicted", "bound_corrected", "bound_ideal"],
         out, output_format)


@main.command()
@click.option("--witness", "witness_name", required=True,
              type=click.Choice(["mermin4", "stabilizer4", "i42", "i43"]))
@click.option("--eps", default=0.0, type=float)
@click.option("--noise", "noise_kind", default="dephasing",
              type=click.Choice(["dephasing", "white", "depolarizing"]))
@click.option("--case", default="best-case-exact",
              type=click.Choice(["best-case-exact", "worst-case-tilted"]))
@click.option("--i43-bound", default=DEFAULT_I43_BISEP_BOUND, type=float,
              show_default=False, help="External I43 biseparable bound constant.")
@click.option("--p-grid", default=None,
              help="Optional start:stop:count sweep emitting the table format.")
@common_options
def robustness(witness_name, eps, noise_kind, case, i43_bound, p_grid, out,
               output_format):
    """Noise-visibility thresholds (and optional sweep tables)."""
    if noise_kind == "white":
        noise_kind = "depolarizing"
    if witness_name in ("i42", "i43"):
        m = 2 if witness_name == "i42" else 3
        p = di_thresholds(m, bisep_bound_i43=i43_bound)
        emit([{"witness": witness_name, "threshold": p}],
             ["witness", "threshold"], out, output_format)
        return
    if p_grid is not None:
        rows = robustness_sweep(witness_name, eps, noise_kind,
                                parse_grid(p_grid), case)
        emit(rows, ["p", "witness_value", "normalized_value", "bound",
                    "violation_flag"], out, output_format)
        return
    bound_result = default_bisep_bound(witness_name, eps)
    p = threshold_visibility(ThresholdQuery(witness_name, eps, noise_kind,
                                            case, bound_result))
    emit([{"witness": witness_name, "eps": eps, "noise": noise_kind,
           "case": case, "bound": bound_result.value, "threshold": p}],
         ["witness", "eps", "noise", "case", "bound", "threshold"],
         out, output_format)


@main.command()
@click.option("--witness", "witness_name", required=True,
              type=click.Choice(["mermin4", "stabilizer4"]))
@click.option("--value", "observed", default=None, type=float)
@click.option("--eps-x", default=None, type=float)
@click.option("--eps-y", default=None, type=float)
@click.option("--eps-z", default=None, type=float)
@click.option("--restarts", default=8, show_default=True)
@click.option("--curve", default=None,
              help="start:stop:count grid of w-fractions (emits the curve table).")
@common_options
@click.option("--seed", default=42, show_default=True,
              help="Seed of the randomized tilt-search restarts.")
def fidelity(witness_name, observed, eps_x, eps_y, eps_z, restarts, curve, out,
             output_format, seed):
    """GHZ-fidelity lower bounds L0 and L_ε from a witness value."""
    if eps_x is None and eps_y is None and eps_z is None:
        budget = REFERENCE_BUDGET
    else:
        budget = ImprecisionBudget.per_basis(eps_x or 0.0, eps_y or 0.0,
                                             eps_z or 0.0, 4)
    if curve is not None:
        rows = fidelity_curve(witness_name, budget, parse_grid(curve),
                              tilt_restarts=restarts, seed=seed)
        emit(rows, ["w_fraction", "L0", "L_eps"], out, output_format)
        return
    if observed is None:
        raise click.BadParameter("give --value or --curve")
    query = FidelityBoundQuery(witness_name, observed, budget,
                               tilt_restarts=restarts, seed=seed)
    rows = [{"witness": witness_name, "value": observed,
             "L0": closed_form_l0(witness_name, observed),
             "L_eps": float(numeric_l_eps(query))}]
    emit(rows, ["witness", "value", "L0", "L_eps"], out, output_format)


@main.command()
@click.option("--counts", required=True,
              help="CountTable CSV (bundled name or path).")
@common_options
def tomo(counts, out, output_format):
    """Detector-tomography fidelities from a coincidence count table."""
    path = counts if "/" in counts else fixture_path(counts)
    table = CountTable.from_csv(path)
    fids = fidelity_from_counts(table)
    rows = [{"projector": label, "axis": d["axis"],
             "fidelity": d["symmetric"], "pass_fail": d["pass_fail"],
             "tomography": d["tomography"]}
            for label, d in fids.items()]
    emit(rows, ["projector", "axis", "fidelity", "pass_fail", "tomography"],
         out, output_format)


@main.command()
@click.option("--n", default=4, show_default=True)
@click.option("--m", default=2, show_default=True)
@click.option("--probs", required=True,
              help="JSON file holding the P(r|s) table (nested or flat list).")
@common_options
def inm(n, m, probs, out, output_format):
    """Evaluate the I_nm correlator functional on a probability table."""
    with open(probs) as fh:
        data = np.asarray(json.load(fh), dtype=float)
    table = data.reshape((m,) * n + (2,) * n)
    emit([{"n": n, "m": m, "value": inm_value(n, m, table)}],
         ["n", "m", "value"], out, output_format)


@main.command()
@common_options
def verify(out, output_format):
    """Run the full acceptance-check suite; exit 0 iff everything passes."""
    results = run_checks()
    rows = [{"name": r.name, "passed": str(r.passed).lower(),
             "expected": r.expected, "actual": r.actual,
             "tolerance": r.tolerance} for r in results]
    emit(rows, ["name", "passed", "expected", "actual", "tolerance"],
         out, output_format)
    failed = [r for r in results if not r.passed]
    if failed:
        click.echo(f"{len(failed)} of {len(results)} checks FAILED", err=True)
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed", err=True)


if __name__ == "__main__":
    main()
