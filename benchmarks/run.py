"""gmewit benchmark: one closed-loop client per workload, outputs checked.

    python3 benchmarks/run.py --workload {leps,bounds,cli} --seed N --seconds S --trace {0,1}
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds untraced, then the same rounds traced, and reports the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record
(machine, versions, seed, per-op failures) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

import common
from common import (KNOWN_DEFECTS, OUT_DIR, SETUP_SAMPLES, SetupError, closed_loop,
                    end_to_end, peak_rss_mib, probe_setup, throughput, unexpected_failures)

WORKLOADS = ("leps", "bounds", "cli")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = importlib.import_module(f"wl_{workload}")
    report: dict = {"record": common.run_record(workload, seed, seconds, int(trace))}
    # Set-up is sampled before and after the timed loop, so that its median
    # spans the whole run rather than the host's state at its start.
    setup_samples = [] if trace else probe_setup(workload, SETUP_SAMPLES // 2)
    ctx = wl.setup()
    common.assert_working_tree()
    if trace:
        ops, metrics, report["details"], unexpected = traced_run(wl, ctx, seed, wl.TRACE_ROUNDS)
    else:
        ops, elapsed = closed_loop(wl.make_round(seed), lambda op: wl.do_op(ctx, op),
                                   seconds, None, lambda op: before_op(wl, ctx, op))
        wl.check(ctx, ops)
        rss = peak_rss_mib(children=not getattr(wl, "IN_PROCESS", True))
        setup_samples += probe_setup(workload, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics, report["details"] = end_to_end(ops, elapsed, setup_samples, rss)
        unexpected = unexpected_failures(ops)

    # The pinned checks cost more than a timed run; they run with the
    # per-layer numbers, on every traced run.
    pinned = wl.pinned_checks() if trace and hasattr(wl, "pinned_checks") else []
    correct = not unexpected and all(p["passed"] for p in pinned)
    known = {r: sum(op.reason == r for op in ops) for r in KNOWN_DEFECTS}
    if any(known.values()):
        print("known defects (not counted in failed): "
              + ", ".join(f"{r} {n}" for r, n in sorted(known.items()) if n), file=sys.stderr)
    report.update(metrics=metrics, pinned=pinned, correct=correct, known_defects=known,
                  failures=[{"op": op.index, "kind": op.kind, "reason": op.reason,
                             "error": op.error} for op in ops if op.reason is not None],
                  ops=[{"op": op.index, "round": op.round, "kind": op.kind,
                        "seconds": op.seconds, "params": op.params, **op.extra} for op in ops])
    common.write_json(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", report)
    return {"correct": correct, "attempted": len(ops),
            "failed": len(unexpected_failures(ops)), "metrics": metrics}


def before_op(wl, ctx, op) -> None:
    if hasattr(wl, "before_op"):
        wl.before_op(ctx, op)


def traced_run(wl, ctx, seed: int, rounds: int):
    """``rounds`` rounds untraced, then the same rounds traced.

    Returns the traced ops, the per-layer metrics, run details and the ops
    of either phase that failed for an unexpected reason.
    """
    import layers
    from tracer import Tracer, install
    make_round = wl.make_round(seed)
    ops_u, elapsed_u = closed_loop(make_round, lambda op: wl.do_op(ctx, op), None, rounds,
                                   lambda op: before_op(wl, ctx, op))
    wl.check(ctx, ops_u)                # before the traced phase reuses the file names
    tracer = Tracer()
    in_process = getattr(wl, "IN_PROCESS", True)
    if in_process:
        install(tracer)
    else:
        ctx["traced"] = True

    def traced_op(op):
        idx = tracer.begin(f"op.{op.kind}")
        try:
            return wl.do_op(ctx, op)
        finally:
            tracer.end(idx)

    def on_start(op):
        tracer.op = op.index
        before_op(wl, ctx, op)

    ops, elapsed = closed_loop(make_round, traced_op, None, rounds, on_start)
    wl.check(ctx, ops)
    spans = list(tracer.spans)
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.command_s": 0.0}
    if not in_process:
        children = wl.child_traces(ctx, ops)
        for child in children:
            tracer.merge(child["summary"])
            spans.extend(dict(s, op=child["op"], process="child") for s in child["spans"])
        cli = {"cli.interpreter_s": wl.interpreter_floor(),
               "cli.import_s": statistics.median(c["import_s"] for c in children),
               "cli.command_s": statistics.median(c["command_s"] for c in children)}
    common.write_json(OUT_DIR / f"{wl.NAME}-seed{seed}-spans.json", spans)
    metrics = {**layers.from_tracer(tracer), **cli, **layers.failures(ops),
               "l_eps_mean": 0.0, "bound_mean": 0.0, **wl.quality(ops),
               "trace.overhead_frac": throughput(ops) / throughput(ops_u) - 1}
    details = {"untraced_elapsed_s": elapsed_u, "traced_elapsed_s": elapsed, "rounds": rounds}
    return ops, metrics, details, unexpected_failures(ops_u) + unexpected_failures(ops)


def result_line(result: dict, trace: bool) -> dict:
    import layers
    units = layers.PER_LAYER if trace else layers.END_TO_END
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            code = 1
            continue
        rows[workload] = json.loads(lines[-1])
    for workload, res in rows.items():
        print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        common.use_working_tree()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    line = result_line(result, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"benchmark wall {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    sys.exit(code)
