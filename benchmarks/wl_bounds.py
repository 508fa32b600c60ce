"""Workload ``bounds``: seeded ε rows of the separability bounds, interleaved
with the see-saw oracle on every bipartition of tilted witnesses.

Each round takes one ε in (0, (2−√2)/4] and runs, one at a time:
``stabilizer_bisep_bound_numeric`` rows for n = 3 and 4 (with the closed
forms beside them, as ``gmewit bound`` does), a ``cluster_witness_bounds``
row, a ``w_witness_bounds`` row, and ``bisep_brute_force`` on all seven
bipartitions of ``stabilizer4`` and of ``mermin4``, both tilted by the
uniform budget ε.  The L_ε code is never reached.
"""

from __future__ import annotations

import math
import random
import statistics

from common import EPS_STAR, Op, mermin4_bisep

NAME = "bounds"
TRACE_ROUNDS = 8
GOLDEN = (math.sqrt(5) - 1) / 2
PARTITION_BOUND_4 = 9 * 2 ** (4 - 4) - 1


def make_round(seed: int):
    from gmewit.bounds import all_bipartitions
    partitions = [(p.block_a, p.block_b) for p in all_bipartitions(4)]
    # ε follows a golden-ratio (Kronecker) sequence from a seeded offset: the
    # first N rounds cover (0, ε*] evenly for every N, so runs of different
    # seeds and lengths see the same mix of ε (the see-saw's cost varies
    # ~10× with ε).
    offset = random.Random(f"bounds:{seed}").random()

    def round_ops(r: int):
        eps = EPS_STAR * ((offset + r * GOLDEN) % 1.0)
        ops = [("stabilizer_row", {"n": 3, "eps": eps}),
               ("stabilizer_row", {"n": 4, "eps": eps})]
        for witness, row in (("stabilizer4", "cluster_row"), ("mermin4", "w_row")):
            ops.append((row, {"eps": eps}))
            ops.extend(("seesaw", {"witness": witness, "eps": eps, "block_a": a,
                                   "block_b": b}) for a, b in partitions)
        return ops
    return round_ops


def setup():
    """Import the bounds layer and warm it with one op of each kind."""
    from gmewit import bounds, witnesses
    from gmewit.measurement import ImprecisionBudget
    ctx = {"bounds": bounds, "witnesses": witnesses, "budget": ImprecisionBudget}
    ops = make_round(0)(0)
    for i in (0, 1, 2, 3, 10, 11):          # one op of every kind
        do_op(ctx, Op(i, 0, *ops[i]))
    return ctx


def do_op(ctx, op):
    # Functions are looked up on their modules at call time, so that the
    # tracer's wrappers (installed after set-up) are the ones called.
    b, p = ctx["bounds"], op.params
    eps = p["eps"]
    if op.kind == "stabilizer_row":
        n = p["n"]
        return {"bisep": b.stabilizer_bisep_bound_numeric(n, eps).value,
                "single_party": b.stabilizer_single_party_bound(n, eps).value,
                "fully_separable": b.stabilizer_fully_sep_bound(n, eps).value,
                "ideal": float(2 ** (n - 1) - 1)}
    if op.kind == "cluster_row":
        rows = b.cluster_witness_bounds(eps)
        return {"bisep": rows["biseparable"].value,
                "single_party": rows["single_party"].value,
                "fully_separable": rows["fully_separable"].value, "ideal": 4.0}
    if op.kind == "w_row":
        rows = b.w_witness_bounds(eps)
        return {"bisep": rows["biseparable"].value,
                "single_party": rows["single_party"].value,
                "fully_separable": rows["fully_separable"].value,
                "ideal": 1 + math.sqrt(5), "quantum": rows["quantum"].value}
    build = {"stabilizer4": "stabilizer_witness", "mermin4": "mermin_witness"}[p["witness"]]
    spec = getattr(ctx["witnesses"], build)(4, ctx["budget"].uniform(eps, 4))
    return b.bisep_brute_force(spec, b.PartitionSpec(p["block_a"], p["block_b"]))


def check(ctx, ops) -> None:
    """Numeric rows ≥ their closed forms; see-saw ≤ the biseparable bound.

    Two known defects get their own reasons: a numeric row below the
    single-party closed form (stabilizer4 for ε ≲ 2e-3, c4 for ε ≲ 6e-3),
    and 2|2 see-saw values above 9·2^{n−4}−1 (README "Known discrepancies").
    """
    stab4 = {op.round: op.value["bisep"] for op in ops
             if op.kind == "stabilizer_row" and op.params["n"] == 4 and op.error is None}
    for op in ops:
        if op.reason is not None:
            continue
        v = op.value
        if op.kind != "seesaw":
            floor = max(v["fully_separable"], v["ideal"])
            if v["bisep"] < floor - 1e-7:
                op.reason, op.error = "check", f"numeric {v['bisep']} < closed form {floor}"
            elif "quantum" in v and v["bisep"] > v["quantum"] + 1e-7:
                op.reason, op.error = "check", f"biseparable {v['bisep']} > quantum {v['quantum']}"
            elif v["bisep"] < v["single_party"] - 1e-7:
                op.reason = "below_single_party"
                op.error = (f"{op.kind} numeric {v['bisep']} < single-party closed form "
                            f"{v['single_party']} at eps={op.params['eps']}")
            continue
        if op.params["witness"] == "mermin4":
            limit = mermin4_bisep(op.params["eps"])
        elif op.round in stab4:
            limit = stab4[op.round]
        else:
            op.reason, op.error = "check", "no stabilizer4 numeric bound for this round"
            continue
        if v > limit + 1e-6:
            op.reason, op.error = "check", f"see-saw {v} > biseparable bound {limit}"
        elif (op.params["witness"] == "stabilizer4" and len(op.params["block_a"]) == 2
              and v > PARTITION_BOUND_4 + 1e-6):
            op.reason = "partition_excess"
            op.error = f"2|2 see-saw {v} > {PARTITION_BOUND_4} at eps={op.params['eps']}"


def quality(ops) -> dict:
    values = [op.value if op.kind == "seesaw" else op.value["bisep"]
              for op in ops if op.value is not None]
    return {"bound_mean": statistics.fmean(values) if values else 0.0}
