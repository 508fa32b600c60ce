"""Command-line surface: bounds, witness evaluation, spoofing and robustness
tables, fidelity bounds, detector tomography and the verification suite.

Each command imports the gmewit modules it calls in its own body, so a call
compiles and runs no module that it does not use.  This module imports no
numpy: help, usage errors and the device-independent thresholds run on click
and the standard library alone."""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click
from click.core import ParameterSource

from . import fixture_path

if TYPE_CHECKING:
    import numpy as np


def fmt(x) -> str:
    """12-significant-digit decimal rendering for reproducible diffs."""
    if x is None:
        return ""
    if isinstance(x, numbers.Integral):     # numpy registers its integer types here
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


_GRID_POINTS_CAP = 10 ** 6     # most points of a start:stop:count grid


def parse_grid(spec: str) -> np.ndarray:
    """Parse a ``start:stop:count`` grid, checked for finite ends and count
    before the ``np.linspace`` array is made."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if math.isfinite(start) and math.isfinite(stop) and 1 <= count <= _GRID_POINTS_CAP:
            import numpy as np
            return np.linspace(start, stop, count)
    except ValueError:
        pass
    raise ValueError("expected start:stop:count with finite start and stop and "
                     f"1 ≤ count ≤ {_GRID_POINTS_CAP}, got {spec!r}")


def parse_noise(spec: str):
    """Parse a ``kind:p`` noise specification into a ``states.NoiseModel``;
    ``white`` is depolarizing."""
    from .states import NoiseModel
    kind, _, p = spec.partition(":")
    try:
        p = float(p)
    except ValueError:
        raise ValueError(f"expected kind:p, e.g. dephasing:0.9, got {spec!r}") from None
    return NoiseModel("depolarizing" if kind == "white" else kind, p)


def _input_path(name: str):
    """``name`` if that file exists, else the bundled fixture of that name."""
    here, bundled = Path(name), fixture_path(name)
    for path in (here, bundled):
        if path.is_file():
            return path
    raise FileNotFoundError(f"no file {here.resolve()} nor bundled fixture {bundled}")


@contextlib.contextmanager
def _naming(path):
    """Bad content of the input file ``path``: a ValueError that starts with its name."""
    try:
        yield
    except (TypeError, ValueError) as exc:  # TypeError: a JSON object where a number belongs
        raise ValueError(f"{path}: {exc}") from exc


def _reject_given(names, context: str) -> None:
    """Bad input if a parameter in ``names``, which ``context`` ignores, was given."""
    ctx = click.get_current_context()
    given = [p.opts[0] for p in ctx.command.params if p.name in names
             and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be used {context}")


class _Main(click.Group):
    """Reports bad input found inside a command (a ValueError, or an OSError
    on an input or output file) as a one-line usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
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


def _bound_row(witness: str, n: int | None, eps: float) -> dict:
    from .bounds import family_bounds
    bounds = family_bounds(witness, n, eps)
    return {"epsilon": eps, "regime": bounds["biseparable"].regime,
            **{f"bound_{kind}": None if b is None else b.value for kind, b in bounds.items()}}


@main.command()
@click.option("--witness", required=True,
              type=click.Choice(["mermin", "stabilizer", "wstate", "cluster"]))
@click.option("--n", type=int, help="Party count [default: 4, or 3 for wstate].")
@click.option("--eps", default=None, type=float)
@click.option("--eps-grid", default=None, help="start:stop:count grid of ε values.")
@common_options
def bound(witness, n, eps, eps_grid, out, output_format):
    """Separability bound curves for a witness family."""
    if (eps is None) == (eps_grid is None):
        raise ValueError("give exactly one of --eps / --eps-grid")
    grid = [eps] if eps is not None else parse_grid(eps_grid)
    rows = [_bound_row(witness, n, float(e)) for e in grid]
    emit(rows, BOUND_COLUMNS, out, output_format)


#: ``--state`` name → its constructor, given the ``states`` module.
STATES = {
    "ghz3": lambda states: states.ghz_state(3, +1),
    "ghz4": lambda states: states.ghz_state(4, +1),
    "ghz4-": lambda states: states.ghz_state(4, -1),
    "w": lambda states: states.w_state(),
    "cluster": lambda states: states.cluster_state_4(),
    "spoof4": lambda states: states.spoof_state(4),
}


@main.command()
@click.option("--witness", "witness_name", default=None,
              type=click.Choice(["c4", "d3", "mermin3", "mermin4", "stabilizer3",
                                 "stabilizer4"]))
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
    from .witnesses import BUILDERS, eval_from_correlators, ideal, load_correlator_fixture
    if fixture is not None:
        _reject_given({"witness_name", "state_name", "noise", "eps"}, "with --fixture")
        path = _input_path(fixture)
        with _naming(path):
            name, records = load_correlator_fixture(path)
            value, std = eval_from_correlators(ideal(name), records)
        rows = [{"witness": name, "source": str(fixture),
                 "value": value, "std": std}]
        emit(rows, ["witness", "source", "value", "std"], out, output_format)
        return
    if witness_name is None or state_name is None:
        raise ValueError("give --fixture, or both --witness and --state")
    from . import states
    from .linalg import expectation
    from .measurement import ImprecisionBudget
    spec = ideal(witness_name)
    if eps != 0.0:
        spec = BUILDERS[witness_name](ImprecisionBudget.uniform(eps, spec.n))
    state = STATES[state_name](states)
    if noise is not None:
        state = states.apply_noise(state, parse_noise(noise))
    value = expectation(spec.matrix, state)
    rows = [{"witness": witness_name, "source": state_name, "value": value,
             "std": None}]
    emit(rows, ["witness", "source", "value", "std"], out, output_format)


@main.command()
@click.option("--eps-grid", required=True, help="start:stop:count grid of ε values.")
@common_options
def spoof(eps_grid, out, output_format):
    """Predicted spoofing curve of the tilted Mermin witness."""
    from .bounds import spoofing_curve
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
@click.option("--i43-bound", default=None, type=float,
              help="External I43 biseparable bound constant.")
@click.option("--p-grid", default=None,
              help="Optional start:stop:count sweep emitting the table format.")
@common_options
def robustness(witness_name, eps, noise_kind, case, i43_bound, p_grid, out,
               output_format):
    """Noise-visibility thresholds (and optional sweep tables)."""
    from .robustness import (DEFAULT_I43_BISEP_BOUND, di_thresholds, robustness_sweep,
                             threshold_visibility)
    if witness_name != "i43":
        _reject_given({"i43_bound"}, f"with --witness {witness_name}")
    if noise_kind == "white":
        noise_kind = "depolarizing"
    if witness_name in ("i42", "i43"):
        _reject_given({"eps", "noise_kind", "case", "p_grid"}, f"with --witness {witness_name}")
        m = 2 if witness_name == "i42" else 3
        if i43_bound is None:
            i43_bound = DEFAULT_I43_BISEP_BOUND
        p = di_thresholds(m, bisep_bound_i43=i43_bound)
        emit([{"witness": witness_name, "threshold": p}],
             ["witness", "threshold"], out, output_format)
        return
    grid = None if p_grid is None else parse_grid(p_grid)
    from .bounds import family_bounds
    from .witnesses import ideal
    spec = ideal(witness_name)
    row = family_bounds(spec.family, spec.n, eps)
    bound = row["biseparable"].value
    if grid is not None:
        rows = robustness_sweep(witness_name, noise_kind, grid, bound, row["quantum"].value,
                                case, eps)
        emit(rows, ["p", "witness_value", "normalized_value", "bound",
                    "violation_flag"], out, output_format)
        return
    p = threshold_visibility(witness_name, noise_kind, bound, case, eps)
    emit([{"witness": witness_name, "eps": eps, "noise": noise_kind,
           "case": case, "bound": bound, "threshold": p}],
         ["witness", "eps", "noise", "case", "bound", "threshold"],
         out, output_format)


@main.command()
@click.option("--witness", "witness_name", required=True,
              type=click.Choice(["mermin4", "stabilizer4"]))
@click.option("--value", "observed", default=None, type=float)
@click.option("--eps-x", default=None, type=float,
              help="ε_X of every party; an ε not given keeps its reference value.")
@click.option("--eps-y", default=None, type=float,
              help="ε_Y of every party; an ε not given keeps its reference value.")
@click.option("--eps-z", default=None, type=float,
              help="ε_Z of every party; an ε not given keeps its reference value.")
@click.option("--restarts", default=8, show_default=True)
@click.option("--curve", default=None,
              help="start:stop:count grid of w-fractions (emits the curve table).")
@common_options
@click.option("--seed", default=42, show_default=True,
              help="Seed of the randomized tilt-search restarts.")
def fidelity(witness_name, observed, eps_x, eps_y, eps_z, restarts, curve, out,
             output_format, seed):
    """GHZ-fidelity lower bounds L0 and L_ε from a witness value."""
    if curve is not None:
        _reject_given({"observed"}, "with --curve")
    elif observed is None:
        raise ValueError("give --value or --curve")
    from .fidelity import FidelityBoundQuery, fidelity_curve, ideal_l0, numeric_l_eps
    from .measurement import REFERENCE_BUDGET, ImprecisionBudget
    from .witnesses import ideal
    budget = ImprecisionBudget.per_basis(
        *(ref if given is None else given
          for given, ref in zip((eps_x, eps_y, eps_z), REFERENCE_BUDGET.per_party[0])),
        ideal(witness_name).n)
    if curve is not None:
        rows = fidelity_curve(witness_name, budget, parse_grid(curve),
                              tilt_restarts=restarts, seed=seed)
        emit(rows, ["w_fraction", "L0", "L_eps"], out, output_format)
        return
    query = FidelityBoundQuery(witness_name, observed, budget,
                               tilt_restarts=restarts, seed=seed)
    rows = [{"witness": witness_name, "value": observed,
             "L0": ideal_l0(witness_name, observed),
             "L_eps": float(numeric_l_eps(query))}]
    emit(rows, ["witness", "value", "L0", "L_eps"], out, output_format)


@main.command()
@click.option("--counts", required=True,
              help="CountTable CSV (bundled name or path).")
@common_options
def tomo(counts, out, output_format):
    """Detector-tomography fidelities from a coincidence count table."""
    from .measurement import CountTable, fidelity_from_counts
    path = _input_path(counts)
    with _naming(path):
        fids = fidelity_from_counts(CountTable.from_csv(path))
    rows = [{"projector": label, "fidelity": d["symmetric"], **d} for label, d in fids.items()]
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
    import numpy as np

    from .witnesses import inm_shape, inm_value
    shape = inm_shape(n, m)                 # a bad count is the option's fault, not the file's
    with _naming(probs), open(probs, encoding="utf-8") as fh:
        table = np.asarray(json.load(fh), dtype=float)
        needed = m ** n * 2 ** n            # Python ints: no overflow
        if table.size != needed:
            raise ValueError(f"holds {table.size} probabilities; n = {n}, m = {m} "
                             f"needs m^n·2^n = {needed}")
        value = inm_value(n, m, table.reshape(shape))
    emit([{"n": n, "m": m, "value": value}], ["n", "m", "value"], out, output_format)


@main.command()
@common_options
def verify(out, output_format):
    """Run the full acceptance-check suite; exit 0 iff everything passes."""
    from .acceptance import run_checks
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
