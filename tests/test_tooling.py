"""The benchmark reads gmewit names by string; each must still resolve, and
so must the witness names of the bounds' family table.  The package imports
no third-party module beyond its declared dependencies, and reads every
tolerance it declares."""

import ast
import importlib.util
import inspect
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"gmewit_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in TRACER.SPANS + TRACER.OBSERVERS + TRACER.LEAVES])
def test_tracer_targets_resolve(module, attr):
    _, _, target = TRACER._resolve(module, attr)
    assert callable(target)


def test_family_table_points_into_the_witness_registry():
    # Each family's default witness is a registry name of that family, and
    # every registered witness is found from its family and party count.
    # Every θ-swept family has its closed forms, and each of its witnesses
    # a full row of four finite bounds.  The CLI spells both tables out, so
    # that its import loads neither module; its choices must still be theirs.
    from gmewit.bounds import CLOSED_FORMS, FAMILY_WITNESS, _witness_name, family_bounds
    from gmewit.cli import main
    from gmewit.witnesses import BUILDERS, ideal
    choices = {(command, option.name): list(option.type.choices)
               for command in ("bound", "witness") for option in main.commands[command].params
               if option.name in ("witness", "witness_name")}
    assert choices == {("bound", "witness"): list(FAMILY_WITNESS),
                       ("witness", "witness_name"): sorted(BUILDERS)}
    for family, name in FAMILY_WITNESS.items():
        assert name in BUILDERS and ideal(name).family == family
    swept = set(FAMILY_WITNESS) - {"mermin"}
    assert swept <= set(CLOSED_FORMS)
    for name in BUILDERS:
        spec = ideal(name)
        assert _witness_name(spec.family, spec.n) == name
        if spec.family in swept:
            row = family_bounds(spec.family, spec.n, 0.01)
            assert all(b is not None and math.isfinite(b.value) for b in row.values()), name


@pytest.mark.parametrize("name", ["restarts", "iterations"])
def test_seesaw_budget_defaults_stay_integers(name):
    # benchmarks/layers.py reads these defaults to size the see-saw's
    # iteration budget in traced bounds runs.
    from gmewit.bounds import bisep_brute_force
    default = inspect.signature(bisep_brute_force).parameters[name].default
    assert isinstance(default, int) and not isinstance(default, bool)


@pytest.mark.parametrize("workload", ["wl_bounds", "wl_leps"])
def test_workload_setup_runs_every_op_kind(monkeypatch, workload):
    # Each setup() warms one op of every kind through the same gmewit calls
    # that the timed loop makes, so a renamed or re-signatured function
    # fails here rather than in a benchmark run.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    assert _load(workload).setup()


def test_cli_workload_commands_pass_its_checks(monkeypatch, tmp_path):
    # The cli workload's commands, four rounds of them, run in-process
    # through click and judged by the workload's own output checks.
    from click.testing import CliRunner

    from gmewit.cli import main
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.chdir(tmp_path)
    wl_cli = _load("wl_cli")
    from common import Op
    ctx = {"work": tmp_path, "traced": False}
    round_ops = wl_cli.make_round(0)
    ops = [Op(i, r, kind, params) for r in range(4)
           for i, (kind, params) in enumerate(round_ops(r), start=r * len(wl_cli.KINDS))]
    runner = CliRunner()
    for op in ops:
        wl_cli.before_op(ctx, op)
        result = runner.invoke(main, op.extra["argv"])
        op.value = {"returncode": result.exit_code, "stdout": result.stdout,
                    "stderr": result.stderr}
    wl_cli.check(ctx, ops)
    assert [(op.kind, op.reason, op.error) for op in ops if op.reason is not None] == []


def test_package_imports_only_its_runtime_dependencies():
    # Every import under src/gmewit, read with ast, against [project].dependencies:
    # a third-party module used by the package but declared only for tests
    # (scipy) fails here.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "gmewit").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"gmewit"} == declared == {"numpy", "click"}


def _public_definitions(path: Path):
    """(qualified name, first line, last line) of each top-level public function,
    class, method and constant in ``path``; dunders and CLI commands excluded."""
    def public(name):
        return not name.startswith("_")

    def command(node):
        return any(ast.unparse(d) == "main.command()" for d in node.decorator_list)

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name) \
                and not command(node):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and public(item.name):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and public(target.id):
                yield target.id, node.lineno, node.end_lineno


def test_no_test_only_public_api():
    # A public name of the package is used by the package or by the benchmark
    # (which may name it in a string); one that only tests call is dead code.
    sources = {path: path.read_text().splitlines()
               for folder in (ROOT / "src" / "gmewit", BENCH_DIR) for path in folder.rglob("*.py")}
    unused = []
    for path in (ROOT / "src" / "gmewit").rglob("*.py"):
        for qualname, first, last in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(qualname.split('.')[-1])}\b")
            if not any(word.search(line) for source, lines in sources.items()
                       for number, line in enumerate(lines, start=1)
                       if not (source == path and first <= number <= last)):
                unused.append(f"{path.relative_to(ROOT)}::{qualname}")
    assert unused == []


def test_every_tolerance_is_read():
    # A key of the tolerance table that no ``tol("…")`` call in the package
    # reads is dead, as is a call whose key the table lacks.
    from gmewit.tolerances import _TOLERANCES
    read = {node.args[0].value for path in (ROOT / "src" / "gmewit").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tol"}
    assert read == set(_TOLERANCES)


def test_one_bad_input_path():
    # Bad input has one path: a command raises a plain ValueError, which
    # ``_Main.invoke`` alone turns into click's one-line usage error, and
    # only the CLI prefixes the name of the file that an error came from.
    cli = ROOT / "src" / "gmewit" / "cli.py"
    tree = ast.parse(cli.read_text())
    from_click = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("click")
                  for alias in node.names}
    invoke = next(item for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "_Main" for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name == "invoke")
    inside = {id(node) for node in ast.walk(invoke)}
    click_raises = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and id(node) not in inside
                    and (ast.unparse(node.exc).startswith("click.")
                         or ast.unparse(node.exc).split("(")[0] in from_click)]
    assert click_raises == []
    path_first = []
    for path in (ROOT / "src" / "gmewit").rglob("*.py"):
        if path == cli:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for text in ast.walk(node.exc):
                    if isinstance(text, ast.JoinedStr) and len(text.values) > 1 \
                            and isinstance(text.values[0], ast.FormattedValue) \
                            and isinstance(text.values[1], ast.Constant) \
                            and str(text.values[1].value).startswith(":"):
                        path_first.append(f"{path.name}:{node.lineno}")
    assert path_first == []


def test_one_tilt_model_in_the_theta_sweep():
    # The θ-sweep reads the tilted witness that ``family_bounds`` builds
    # through ``BUILDERS``, the builder every other consumer uses: bounds.py
    # imports none of the Pauli-expansion helpers to build an operator of its
    # own, and the sweep neither reads q(ε), u(ε) nor builds a budget.
    tree = ast.parse((ROOT / "src" / "gmewit" / "bounds.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & {"LETTERS", "coefficient_tensor", "contract", "expand",
                       "partner_maps"} == set()
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_reduced_sweep")
    called = {ast.unparse(node.func) for node in ast.walk(sweep) if isinstance(node, ast.Call)}
    assert called & {"q_of", "u_of", "ImprecisionBudget"} == set()


def test_seesaw_reads_only_the_witness_matrix():
    # The see-saw chooses real arithmetic from the matrix it diagonalizes, not
    # from the witness's letters, family or tilt plane, which need not say
    # whether a tilted matrix is real.  The θ-sweep reads the same matrix
    # (and the plane, for party 1's two letters), never the terms it was
    # built from.
    tree = ast.parse((ROOT / "src" / "gmewit" / "bounds.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, forbidden in (("bisep_brute_force", {"terms", "family", "tilt_plane"}),
                            ("_reduced_sweep", {"terms", "family"})):
        read = {node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute)}
        assert "matrix" in read, name
        assert read & forbidden == set(), name


def test_one_cut_path():
    # ``_cut_maps``' block maps are applied in one function: elsewhere in
    # bounds.py ``to_a`` and ``to_b`` take part in no arithmetic and are
    # passed to no call but ``_block_operators``.  The θ-sweep takes its
    # float64 decision from the cut's ``real`` flag, with no test of its own.
    tree = ast.parse((ROOT / "src" / "gmewit" / "bounds.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    maps = {"to_a", "to_b"}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    applying = set()
    for name, fn in functions.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and names(node) & (maps | {"to_other"}):
                applying.add(name)
            if isinstance(node, ast.Call) and ast.unparse(node.func) != "_block_operators" \
                    and any(names(arg) & maps for arg in node.args + node.keywords):
                applying.add(name)
    assert applying == {"_block_operators"}
    callers = {name for name, fn in functions.items() for node in ast.walk(fn)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "_block_operators"}
    assert callers == {"_reduced_sweep", "bisep_brute_force"}
    sweep = functions["_reduced_sweep"]
    unpacked = [node.targets[0] for node in ast.walk(sweep) if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "_cut_maps"]
    assert [ast.unparse(target) for target in unpacked] == ["(_, to_b, real)"]
    assert not [node for node in ast.walk(sweep)
                if isinstance(node, ast.Attribute) and node.attr == "imag"]


def test_one_seesaw():
    # bisep_brute_force keeps its signature, and bounds.py holds one see-saw:
    # no other function runs the stacked eigh, and no branch of it skips the
    # merging of restarts that meet (each ``if`` validates or ends the loop).
    from gmewit.bounds import bisep_brute_force
    assert list(inspect.signature(bisep_brute_force).parameters) == [
        "spec", "partition", "restarts", "iterations", "seed"]
    tree = ast.parse((ROOT / "src" / "gmewit" / "bounds.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {name: {ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
              for name, fn in functions.items()}
    assert [name for name, calls in called.items()
            if any(call.startswith("np.linalg.eigh(") for call in calls)] == ["bisep_brute_force"]
    assert "tol('seesaw_duplicate')" in called["bisep_brute_force"]
    for node in ast.walk(functions["bisep_brute_force"]):
        if isinstance(node, ast.If):
            assert not node.orelse and isinstance(node.body[-1], (ast.Raise, ast.Break))


def test_robustness_has_no_search():
    # Every visibility number is one affine crossing and I₄₃'s maximum a
    # closed form: robustness.py loops no search, ``max_i43`` takes nothing
    # to search with, only ``_crossing`` says that a value never crosses its
    # bound, and ``inm_value`` reads the one vectorized sign table.  The DI
    # thresholds need no gmewit module, so the module body imports none and
    # the file never names the I_nm sign table.
    src = ROOT / "src" / "gmewit"
    text = (src / "robustness.py").read_text()
    robustness = ast.parse(text)
    assert all(node.level == 0 and not node.module.startswith("gmewit")
               for node in robustness.body if isinstance(node, ast.ImportFrom))
    assert "inm_signs" not in text
    functions = {node.name: node for node in robustness.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(node, ast.While) for node in ast.walk(robustness))
    assert ast.unparse(functions["max_i43"].args) == ""
    raisers = {name for name, fn in functions.items() for node in ast.walk(fn)
               if isinstance(node, ast.Raise) and "never crosses" in ast.unparse(node)}
    assert raisers == {"_crossing"}
    witnesses = ast.parse((src / "witnesses.py").read_text())
    inm_value = next(node for node in witnesses.body
                     if isinstance(node, ast.FunctionDef) and node.name == "inm_value")
    called = {ast.unparse(node.func) for node in ast.walk(inm_value) if isinstance(node, ast.Call)}
    assert "itertools.product" not in called
