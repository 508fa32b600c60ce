"""Workload ``cli``: the README commands as fresh ``python -m gmewit.cli``
children, one at a time, against the working tree.

A round runs each of the eleven command kinds below once.  Each kind cycles
through CSV/JSON output to stdout/``--out`` across rounds; the numeric
arguments and the ``inm`` probability table are drawn from the seed.
``fidelity`` and ``verify`` are left out: their compute is what the ``leps``
and ``bounds`` workloads measure.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, mermin4_bisep, run_child

NAME = "cli"
TRACE_ROUNDS = 1
IN_PROCESS = False
VARIANTS = (("csv", False), ("json", False), ("csv", True), ("json", True))
KINDS = ("bound_mermin", "bound_stabilizer", "witness_state", "witness_fixture", "spoof",
         "robustness_white", "robustness_dephasing", "robustness_i42", "robustness_i43",
         "tomo", "inm")

BOUND_COLUMNS = ["epsilon", "bound_biseparable", "bound_single_party",
                 "bound_fully_separable", "bound_quantum", "regime"]
WITNESS_COLUMNS = ["witness", "source", "value", "std"]
COLUMNS = {
    "bound_mermin": BOUND_COLUMNS,
    "bound_stabilizer": BOUND_COLUMNS,
    "witness_state": WITNESS_COLUMNS,
    "witness_fixture": WITNESS_COLUMNS,
    "spoof": ["epsilon", "predicted", "bound_corrected", "bound_ideal"],
    "robustness_white": ["witness", "eps", "noise", "case", "bound", "threshold"],
    "robustness_dephasing": ["witness", "eps", "noise", "case", "bound", "threshold"],
    "robustness_i42": ["witness", "threshold"],
    "robustness_i43": ["witness", "threshold"],
    "tomo": ["projector", "axis", "fidelity", "pass_fail", "tomography"],
    "inm": ["n", "m", "value"],
}

#: Spot values pinned by ``gmewit verify``.
FIXTURE_TOTALS = {"fig4_mermin.json": ("mermin4", 7.4665),
                  "fig4_stabilizer.json": ("stabilizer4", 10.5168)}
TOMO_FIDELITIES = {"D": 0.9994, "A": 0.9994, "R": 0.9976, "L": 0.9977,
                   "H": 0.9997, "V": 0.9998}
#: I43 threshold the default bound constant was reconstructed from.
I43_THRESHOLD = 0.834


def witness_on_noisy_ghz(witness: str, noise: str, p: float) -> float:
    """Exact witness value on ρ(p) = p|ghz⁺⟩⟨ghz⁺| + (1−p)·(noise) for n = 4."""
    plus, minus, trace = {"mermin4": (8.0, -8.0, 0.0), "stabilizer4": (11.0, 3.0, 0.0)}[witness]
    return p * plus + (1 - p) * (minus if noise == "dephasing" else trace)


def inm_table(rng: random.Random, n: int = 4, m: int = 2):
    """A mixture of three product distributions P(r⃗|s⃗), flat in C order of
    shape (m,)*n + (2,)*n, and its I_nm value computed from the local
    correlators."""
    weights = [rng.random() + 0.1 for _ in range(3)]
    total = sum(weights)
    weights = [w / total for w in weights]
    local = [[[rng.random() for _ in range(m)] for _ in range(n)] for _ in range(3)]
    flat = []
    for svec in itertools.product(range(m), repeat=n):
        for rvec in itertools.product(range(2), repeat=n):
            flat.append(sum(w * math.prod(p0[j][s] if r == 0 else 1 - p0[j][s]
                                          for j, (s, r) in enumerate(zip(svec, rvec)))
                            for w, p0 in zip(weights, local)))
    value = 0.0
    for svec in itertools.product(range(m), repeat=n):
        corr = sum(w * math.prod(2 * p0[j][s] - 1 for j, s in enumerate(svec))
                   for w, p0 in zip(weights, local))
        total_s = sum(svec)
        if total_s % m == 0:
            value += (-1) ** (total_s // m) * corr
        elif total_s % m == 1:
            value += (-1) ** ((total_s - 1) // m) * corr
    return flat, value


def make_round(seed: int):
    def round_ops(r: int):
        rng = random.Random(f"cli:{seed}:{r}")
        ops = []
        for k, kind in enumerate(KINDS):
            fmt, to_file = VARIANTS[(k + r + seed) % len(VARIANTS)]
            params = {"format": fmt, "to_file": to_file}
            if kind == "bound_mermin":
                params.update(witness="mermin", hi=rng.uniform(0.05, 0.146), count=50)
            elif kind == "bound_stabilizer":
                params.update(witness="stabilizer", hi=rng.uniform(0.05, 0.146), count=6)
            elif kind == "witness_state":
                params.update(witness=("mermin4", "stabilizer4")[r % 2],
                              noise=rng.choice(("dephasing", "white")),
                              p=rng.uniform(0.5, 1.0))
            elif kind == "witness_fixture":
                params.update(fixture=sorted(FIXTURE_TOTALS)[r % 2])
            elif kind == "spoof":
                params.update(hi=rng.uniform(0.05, 0.14), count=29)
            elif kind in ("robustness_white", "robustness_dephasing"):
                params.update(eps=rng.uniform(0.0, 0.01))
            elif kind == "inm":
                flat, value = inm_table(rng)
                params.update(probs=flat, expected=value, probs_file=f"probs_{r}.json")
            ops.append((kind, params))
        return ops
    return round_ops


def argv(kind: str, p: dict) -> list[str]:
    if kind.startswith("bound_"):
        args = ["bound", "--witness", p["witness"], "--eps-grid", f"0:{p['hi']!r}:{p['count']}"]
    elif kind == "witness_state":
        args = ["witness", "--witness", p["witness"], "--state", "ghz4",
                "--noise", f"{p['noise']}:{p['p']!r}"]
    elif kind == "witness_fixture":
        args = ["witness", "--fixture", p["fixture"]]
    elif kind == "spoof":
        args = ["spoof", "--eps-grid", f"0:{p['hi']!r}:{p['count']}"]
    elif kind in ("robustness_white", "robustness_dephasing"):
        args = ["robustness", "--witness", "mermin4", "--noise", kind.split("_")[1],
                "--eps", repr(p["eps"])]
    elif kind in ("robustness_i42", "robustness_i43"):
        args = ["robustness", "--witness", kind.split("_")[1]]
    elif kind == "tomo":
        args = ["tomo", "--counts", "table_a1.csv"]
    else:
        args = ["inm", "--n", "4", "--m", "2", "--probs", p["probs_file"]]
    return args + ["--format", p["format"]]


def setup():
    work = OUT_DIR / "cli-work"
    work.mkdir(parents=True, exist_ok=True)
    return {"work": work, "traced": False}


def before_op(ctx, op) -> None:
    """Untimed: write the op's input file and fix its output paths."""
    work: Path = ctx["work"]
    if op.kind == "inm":
        (work / op.params["probs_file"]).write_text(json.dumps(op.params["probs"]))
    op.extra["argv"] = argv(op.kind, op.params)
    if op.params["to_file"]:
        op.extra["out"] = f"out_{op.index}.{op.params['format']}"
        op.extra["argv"] += ["--out", op.extra["out"]]
    op.extra["trace"] = f"trace_{op.index}.json"


def do_op(ctx, op) -> dict:
    if ctx["traced"]:
        head = [sys.executable, str(BENCH_DIR / "cli_boot.py"), op.extra["trace"]]
    else:
        head = [sys.executable, "-m", "gmewit.cli"]
    proc = run_child(head + op.extra["argv"], timeout=120, cwd=ctx["work"])
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class BadOutput(ValueError):
    pass


def parse(text: str, fmt: str, columns: list[str]) -> list[dict]:
    if fmt == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadOutput(f"not JSON: {exc}") from exc
        if not isinstance(rows, list) or any(not isinstance(r, dict) or list(r) != columns
                                             for r in rows):
            raise BadOutput("JSON rows do not carry the documented columns")
        return rows
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != columns:
        raise BadOutput(f"CSV header {lines[0] if lines else None} != {columns}")
    if any(len(line) != len(columns) for line in lines[1:]):
        raise BadOutput("CSV row with the wrong number of cells")
    return [dict(zip(columns, line)) for line in lines[1:]]


def num(x) -> float:
    if x in ("", None):
        raise BadOutput("missing number")
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise BadOutput(f"not a number: {x!r}") from exc


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def grid(hi: float, count: int) -> list[float]:
    return [hi * i / (count - 1) for i in range(count)]


def check_rows(kind: str, p: dict, rows: list[dict]) -> tuple[str, str] | None:
    """None if the rows are right, else (failure reason, what is wrong)."""
    problem = _problem(kind, p, rows)
    if problem is None and kind == "bound_stabilizer":
        for row in rows:
            if num(row["bound_biseparable"]) < num(row["bound_single_party"]) - 1e-7:
                return "below_single_party", f"stabilizer row {row}"
    return None if problem is None else ("check", problem)


def _problem(kind: str, p: dict, rows: list[dict]) -> str | None:
    if kind == "bound_mermin":
        if len(rows) != p["count"]:
            return f"{len(rows)} rows"
        for eps, row in zip(grid(p["hi"], p["count"]), rows):
            want = mermin4_bisep(eps)
            if not (close(num(row["epsilon"]), eps, 1e-9) and
                    close(num(row["bound_biseparable"]), want, 1e-9) and
                    close(num(row["bound_single_party"]), want, 1e-9) and
                    num(row["bound_quantum"]) == 8.0):
                return f"mermin row {row} != bound {want} at eps={eps}"
    elif kind == "bound_stabilizer":
        if len(rows) != p["count"] or num(rows[0]["bound_biseparable"]) != 7.0:
            return "stabilizer grid length or eps=0 value"
        for row in rows:
            if (num(row["bound_biseparable"]) < num(row["bound_fully_separable"]) - 1e-7
                    or num(row["bound_quantum"]) != 11.0):
                return f"stabilizer row {row}"
    elif kind == "witness_state":
        want = witness_on_noisy_ghz(p["witness"], p["noise"], p["p"])
        if len(rows) != 1 or not close(num(rows[0]["value"]), want, 1e-9):
            return f"witness value {rows} != {want}"
    elif kind == "witness_fixture":
        name, total = FIXTURE_TOTALS[p["fixture"]]
        if len(rows) != 1 or rows[0]["witness"] != name or abs(num(rows[0]["value"]) - total) > 0.002:
            return f"fixture total {rows} != {total}"
    elif kind == "spoof":
        if len(rows) != p["count"]:
            return f"{len(rows)} rows"
        for row in rows:
            if not (close(num(row["predicted"]), num(row["bound_corrected"]), 1e-9)
                    and num(row["bound_ideal"]) == 4.0):
                return f"spoof row {row} not saturated"
    elif kind in ("robustness_white", "robustness_dephasing"):
        bound = mermin4_bisep(p["eps"])
        want = bound / 8 if kind == "robustness_white" else (bound + 8) / 16
        row = rows[0] if len(rows) == 1 else {}
        if not (close(num(row.get("bound")), bound, 1e-9) and
                abs(num(row.get("threshold")) - want) <= 1e-6):
            return f"threshold {rows} != {want}"
    elif kind == "robustness_i42":
        if len(rows) != 1 or abs(num(rows[0]["threshold"]) - (8 + 2 ** 2.5) / 16) > 1e-9:
            return f"i42 threshold {rows}"
    elif kind == "robustness_i43":
        if len(rows) != 1 or abs(num(rows[0]["threshold"]) - I43_THRESHOLD) > 1e-3:
            return f"i43 threshold {rows}"
    elif kind == "tomo":
        got = {row["projector"]: num(row["fidelity"]) for row in rows}
        if set(got) != set(TOMO_FIDELITIES) or any(
                abs(got[k] - v) > 5e-4 for k, v in TOMO_FIDELITIES.items()):
            return f"tomography fidelities {got}"
    elif kind == "inm":
        if len(rows) != 1 or not close(num(rows[0]["value"]), p["expected"], 1e-9):
            return f"I_nm {rows} != {p['expected']}"
    return None


def check(ctx, ops) -> None:
    work: Path = ctx["work"]
    for op in ops:
        if op.reason is not None:
            continue
        res = op.value
        if res["returncode"] != 0:
            crash = (op.kind == "robustness_i43" and res["returncode"] == 1
                     and "TypeError" in res["stderr"])
            op.reason = "i43_crash" if crash else "exit_code"
            op.error = f"exit {res['returncode']}: {res['stderr'].strip()[-300:]}"
            continue
        text = res["stdout"]
        if "out" in op.extra:
            path = work / op.extra["out"]
            if text or not path.is_file():
                op.reason, op.error = "bad_output", "--out file missing or stdout not empty"
                continue
            text = path.read_text()
            path.unlink()
        try:
            problem = check_rows(op.kind, op.params, parse(text, op.params["format"],
                                                           COLUMNS[op.kind]))
        except BadOutput as exc:
            op.reason, op.error = "bad_output", str(exc)
            continue
        if problem is not None:
            op.reason, op.error = problem


def child_traces(ctx, ops) -> list[dict]:
    """Read (and remove) the trace file each traced child wrote."""
    out = []
    for op in ops:
        path = ctx["work"] / op.extra["trace"]
        if path.is_file():
            data = json.loads(path.read_text())
            data["op"] = op.index
            out.append(data)
            path.unlink()
    return out


def interpreter_floor(count: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def quality(ops) -> dict:
    return {}
