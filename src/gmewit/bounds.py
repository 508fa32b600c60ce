"""Separability bounds for the witness families: closed forms, reduced-
operator θ-sweeps, the see-saw biseparable oracle and the spoofing curve."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI, assert_hermitian
from .measurement import ImprecisionBudget, q_of, u_of
from .states import spoof_state
from .tolerances import tol
from .witnesses import BUILDERS, WitnessSpec, ideal, mermin_witness

#: Regime-switch imprecision (2−√2)/4 where the Mermin bound plateaus and
#: the stabilizer-family closed forms stop being valid.
EPS_STAR = (2 - np.sqrt(2)) / 4

#: Points of the θ-sweep's coarse grid over [0, π), before its zoom.  The
#: grid need only land in the maximum's basin: the zoom refines from there.
THETA_GRID = 181


@dataclass(frozen=True)
class BoundResult:
    """A bound, how it was found, and party 1's θ where the θ-sweep attains it."""

    value: float
    regime: str
    saturating_theta: float | None = None


def _check_eps(eps: float, upper: float = 0.5) -> None:
    if not 0.0 <= eps <= upper + 1e-15:
        raise ValueError(f"ε must lie in [0, {upper:.6f}]")


# ---------------------------------------------------------------------------
# Mermin family closed forms
# ---------------------------------------------------------------------------

def mermin_bisep_bound(n: int, eps: float) -> BoundResult:
    """Corrected biseparable bound 2^{n−2}(1−2ε+2√(ε(1−ε))), plateauing at
    the device-independent value 2^{n−3/2} for ε ≥ (2−√2)/4."""
    if not 3 <= n <= 1024:          # above 1024, 2^{n−1} leaves the float range
        raise ValueError("n must lie in [3, 1024]")
    _check_eps(eps)
    if eps <= EPS_STAR:
        value = 2 ** (n - 2) * (q_of(eps) + u_of(eps))
    else:
        value = 2 ** (n - 1.5)
    return BoundResult(float(value), "closed-form")


# ---------------------------------------------------------------------------
# Stabilizer family
# ---------------------------------------------------------------------------

def multi_qubit_partition_bound(n: int) -> BoundResult:
    """Stabilizer bound 9·2^{n−4}−1 over partitions with ≥2 qubits per block,
    independent of the imprecision."""
    if n < 4:
        raise ValueError("n must be at least 4")
    return BoundResult(float(9 * 2 ** (n - 4) - 1), "closed-form")


def stabilizer_single_party_bound(n: int, eps: float) -> BoundResult:
    """Biseparable bound with imprecision confined to the split-off party."""
    return _closed_forms(_witness_name("stabilizer", n), eps)["single_party"]


def stabilizer_fully_sep_bound(n: int, eps: float) -> BoundResult:
    """Fully-separable value on |χ(π/8)⟩^⊗n with all parties tilted."""
    return _closed_forms(_witness_name("stabilizer", n), eps)["fully_separable"]


def stabilizer_bisep_bound_numeric(n: int, eps: float) -> BoundResult:
    """The n-party stabilizer row of ``family_bounds``' biseparable bound."""
    return family_bounds("stabilizer", n, eps)["biseparable"]


# ---------------------------------------------------------------------------
# W-state witness (Appendix-F style bounds) and cluster witness
# ---------------------------------------------------------------------------

def w_witness_bounds(eps: float) -> dict[str, BoundResult]:
    """``family_bounds``' row of the D3 witness."""
    return family_bounds("wstate", None, eps)


def cluster_witness_bounds(eps: float) -> dict[str, BoundResult]:
    """``family_bounds``' row of the C4 witness."""
    return family_bounds("cluster", None, eps)


# ---------------------------------------------------------------------------
# One row of bounds per witness family
# ---------------------------------------------------------------------------

def _reduced_sweep(spec: WitnessSpec):
    """Max over θ of the top eigenvalue of the operator that party 1 in
    |χ(θ)⟩ leaves on parties 2..n of the (tilted) witness ``spec``.

    Party 1 in |χ(θ)⟩, Bloch vector sin 2θ·e_a + cos 2θ·e_b for the plane
    letters a, b, reads ⟨σ_a⟩ = sin 2θ and ⟨σ_b⟩ = cos 2θ, so it leaves
    R_𝟙 + sin 2θ·R_a + cos 2θ·R_b with R_x = ½·tr₁((σ_x ⊗ 𝟙)·W).
    """
    first, second = spec.tilt_plane
    to_b = _cut_maps(spec.matrix, PartitionSpec((0,), tuple(range(1, spec.n))))[1]
    db = 2 ** (spec.n - 1)
    ops = {a: 0.5 * (PAULI[a].T.reshape(-1) @ to_b).reshape(db, db)
           for a in ("I", first, second)}
    # Real combinations of Hermitian operators stay Hermitian: check once per row.
    # In the X–Z plane they are all real, and a real θ stack halves the grid's
    # memory and eigensolver time; one complex operator keeps them all complex.
    # The cut's ``real`` flag cannot decide this: σ_Y is imaginary, so R_Y
    # can be real where W is complex.
    for op in ops.values():
        assert_hermitian(op)
    if not any(op.imag.any() for op in ops.values()):
        ops = {a: op.real for a, op in ops.items()}

    def best_of(thetas):
        stack = np.multiply.outer(np.sin(2 * thetas), ops[first])
        stack += np.multiply.outer(np.cos(2 * thetas), ops[second])
        stack += ops["I"]
        top = np.linalg.eigvalsh(stack)[:, -1]
        i = int(np.argmax(top))
        return thetas[i], top[i]

    theta, value = best_of(np.linspace(0, np.pi, THETA_GRID, endpoint=False))
    # Zoom: 33 points over ±one spacing of the best point, 16× finer each
    # level.  Derivative-free, since the top eigenvalue can be degenerate at
    # the maximum.
    step = np.pi / THETA_GRID
    while step > 1e-10:
        theta, value = best_of(theta + np.linspace(-step, step, 33))
        step /= 16
    return float(value), float(theta)


#: Each family's witness when no party count is given: a ``BUILDERS`` name.
FAMILY_WITNESS = {"mermin": "mermin4", "stabilizer": "stabilizer4", "wstate": "d3",
                  "cluster": "c4"}

#: Each θ-swept family → its (single-party, quantum) closed forms, functions
#: of the party count n, q = 1 − 2ε and s = √(ε(1−ε)).  The single-party form
#: tilts only the split-off party; the stabilizer pair holds for every n (Tóth
#: & Gühne, PRL 94, 060501 (2005)); C4's quantum value is the untilted maximum.
CLOSED_FORMS = {
    "stabilizer": (lambda n, q, s: 2 ** (n - 2) * (1 + np.sqrt(1 + 4 * q * s)) - 1,
                   lambda n, q, s: 3 * 2 ** (n - 2) - 1),
    "wstate": (lambda n, q, s: 1 + np.sqrt(5 + 16 * q * s),
               lambda n, q, s: 2 * (1 + np.sqrt(1 + 48 * (q * s) ** 2))),
    "cluster": (lambda n, q, s: 2 * (1 + np.sqrt(1 + 4 * q * s)),
                lambda n, q, s: 6.0),
}


def _witness_name(family: str, n: int | None) -> str:
    """The ``BUILDERS`` name of the family's n-party witness: the stem of its
    default one followed by n (``n=None``: the default one)."""
    default = FAMILY_WITNESS[family]
    name = default if n is None else f"{default.rstrip('0123456789')}{n}"
    if name not in BUILDERS:
        sizes = sorted(ideal(other).n for other in BUILDERS if ideal(other).family == family)
        raise ValueError(f"the {family} family has n = {', '.join(map(str, sizes))} only")
    return name


def _closed_forms(name: str, eps: float) -> dict[str, BoundResult]:
    """Single-party, fully-separable and quantum bounds of the θ-swept
    witness ``name`` at ε ≤ ε*.

    The fully-separable value is the witness on the product ansatz
    |χ(π/8)⟩^⊗n with every party tilted in its plane: each tilted letter
    then reads a = (q + u)/√2, so the value is offset + Σ c·a^{weight}.  It
    is a symmetric-ansatz strategy value, which product states outside the
    ansatz can exceed (|0000⟩ gives 7 for stabilizer4 at ε = 0).
    """
    _check_eps(eps, EPS_STAR)
    spec = ideal(name)
    q, s = q_of(eps), np.sqrt(eps * (1 - eps))
    a = (q + u_of(eps)) / np.sqrt(2)
    fully = spec.constant_offset + sum(c * a ** (spec.n - letters.count("I"))
                                       for c, letters in spec.terms)
    single, quantum = CLOSED_FORMS[spec.family]
    return {"single_party": BoundResult(float(single(spec.n, q, s)), "closed-form"),
            "fully_separable": BoundResult(float(fully), "product-ansatz", np.pi / 8),
            "quantum": BoundResult(float(quantum(spec.n, q, s)), "closed-form")}


def family_bounds(family: str, n: int | None, eps: float) -> dict[str, BoundResult | None]:
    """Biseparable, single-party, fully-separable and quantum bounds of the
    family's n-party witness at ε, ``None`` where it has no such bound;
    ``n=None`` is the family's default witness.

    Outside the Mermin family the biseparable bound is the conjectured
    optimum of the reduced-operator θ-sweep, for ε ≤ ε*: at ε* it reaches the
    quantum value, so it bounds no larger ε.  It is never below the
    single-party closed form, which is within every budget (only party 1 is
    tilted).  ``regime`` names the sweep only where it beats the closed form
    by more than ``tol("regime_tie")``; a tie is the closed form's.  At ε = 0
    the closed form is exact, and is returned without a sweep.
    """
    if family == "mermin":
        n = ideal(FAMILY_WITNESS[family]).n if n is None else n
        bisep = mermin_bisep_bound(n, eps)
        # Theorem 1: a spoof state with only the split-off party tilted reaches it.
        return {"biseparable": bisep, "single_party": bisep, "fully_separable": None,
                "quantum": BoundResult(float(2 ** (n - 1)), "closed-form")}
    name = _witness_name(family, n)
    rows = _closed_forms(name, eps)
    single = rows["single_party"].value
    budget = ImprecisionBudget.uniform(eps, ideal(name).n)
    value, theta = (single, None) if eps == 0.0 else _reduced_sweep(BUILDERS[name](budget))
    if value - single > tol("regime_tie"):
        bisep = BoundResult(value, "numeric-theta-sweep", theta)
    else:
        bisep = BoundResult(max(value, single), "single-party-closed-form")
    return {"biseparable": bisep, **rows}


# ---------------------------------------------------------------------------
# Brute-force biseparable oracle (see-saw lower bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """A bipartition of {0..n−1} into two non-empty disjoint blocks."""

    block_a: tuple
    block_b: tuple

    def __post_init__(self):
        a, b = set(self.block_a), set(self.block_b)
        if len(a) != len(self.block_a) or len(b) != len(self.block_b):
            raise ValueError("a block names a party more than once")
        if not a or not b or a & b:
            raise ValueError("blocks must be disjoint and non-empty")
        if a | b != set(range(len(a) + len(b))):
            raise ValueError("blocks must cover {0..n−1}")

    @property
    def n(self) -> int:
        return len(self.block_a) + len(self.block_b)


def _cut_maps(matrix: np.ndarray, partition: PartitionSpec):
    """The witness ``matrix`` across a cut: with block A's parties leading,
    W[(i,k),(j,l)] maps a block-A operator X, as the row vec(Xᵀ), to
    tr_A((X ⊗ 𝟙)·W) (``to_b``), and a block-B Y to tr_B((𝟙 ⊗ Y)·W) (``to_a``).
    ``real``: W is real and equal to its partial transpose on block B (every
    X–Z witness on every cut), so both maps are float64 and take real
    vectors to real symmetric operators."""
    n = partition.n
    # Permute qubits so block A occupies the leading positions.
    order = list(partition.block_a) + list(partition.block_b)
    w_perm = matrix.reshape((2,) * 2 * n).transpose(order + [n + q for q in order])
    w_perm = w_perm.reshape(2 ** n, 2 ** n)
    da, db = 2 ** len(partition.block_a), 2 ** len(partition.block_b)
    w4 = w_perm.reshape(da, db, da, db)
    real = not w4.imag.any() and np.array_equal(w4, w4.transpose(0, 3, 2, 1))
    w4 = w4.real if real else w4
    to_a = w4.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    to_b = w4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return to_a, to_b, real


def bisep_brute_force(spec: WitnessSpec, partition: PartitionSpec,
                      restarts: int = 20, iterations: int = 100,
                      seed: int = 42) -> float:
    """See-saw lower bound on the biseparable maximum of a witness.

    Alternates between the two blocks: holding one block's state fixed, the
    optimal other-block state is the top eigenvector of the partially traced
    effective operator.  A restart stops when its value moves by less than
    1e-12, or when its product state |a⟩⊗|b⟩ meets that of an earlier
    restart still iterating (|⟨a_i|a_j⟩|² and |⟨b_i|b_j⟩|² both above
    1 − ``tol("seesaw_duplicate")``): the earlier one carries on from the
    same point, so the later one is kept at its current value.  Every value
    is still that of a product state, so the result is a lower bound on the
    true maximum, for one-sided checks only.  After the first half-step from
    the complex starts it runs in float64 where ``_cut_maps`` finds the cut
    real.
    """
    if spec.n != partition.n:
        raise ValueError("partition size does not match the witness")
    if restarts < 1 or iterations < 1:
        raise ValueError(f"the see-saw needs at least 1 restart and 1 iteration, "
                         f"got {restarts} and {iterations}")
    rng = np.random.default_rng(seed)
    to_a, to_b, real = _cut_maps(spec.matrix, partition)
    da, db = 2 ** len(partition.block_a), 2 ** len(partition.block_b)
    same = 1.0 - tol("seesaw_duplicate")
    # All restarts iterate together; one that has converged or merged is
    # dropped from ``active`` and ``vb``.  Per restart, db real then db
    # imaginary draws: the one-at-a-time stream.
    z = rng.normal(size=(restarts, 2, db))
    vb = z[:, 0] + 1j * z[:, 1]
    vb /= np.linalg.norm(vb, axis=1, keepdims=True)
    values = np.full(restarts, -np.inf)
    active = np.arange(restarts)
    for _ in range(iterations):
        if not active.size:
            break
        eff_a = (vb.conj()[:, :, None] * vb[:, None, :]).reshape(-1, db * db) @ to_a
        va = np.linalg.eigh((eff_a.real if real else eff_a).reshape(-1, da, da))[1][:, :, -1]
        eff_b = (va.conj()[:, :, None] * va[:, None, :]).reshape(-1, da * da) @ to_b
        evals, evecs = np.linalg.eigh(eff_b.reshape(-1, db, db))
        vb, new = evecs[:, :, -1], evals[:, -1]
        moving = np.abs(new - values[active]) >= 1e-12
        # Restart j meets an earlier active restart i < j.
        meets = ((np.abs(va.conj() @ va.T) ** 2 > same)
                 & (np.abs(vb.conj() @ vb.T) ** 2 > same))
        moving &= ~np.triu(meets, 1).any(axis=0)
        values[active] = new
        active, vb = active[moving], vb[moving]
    return float(np.max(values, initial=-np.inf))


def all_bipartitions(n: int):
    """Every bipartition of {0..n−1} (unordered, block A the smaller side)."""
    parts = []
    for size in range(1, n // 2 + 1):
        for block_a in itertools.combinations(range(n), size):
            block_b = tuple(q for q in range(n) if q not in block_a)
            if size == n - size and block_a[0] != 0:
                continue
            parts.append(PartitionSpec(block_a, block_b))
    return parts


# ---------------------------------------------------------------------------
# Spoofing curve (Fig.-3-style table)
# ---------------------------------------------------------------------------

def spoofing_curve(eps_grid) -> list[dict]:
    """Predicted tilted-Mermin value on the spoof state versus the bounds.

    Party 1 measures the misaligned pair (X tilted toward Y and vice versa),
    parties 2..4 ideal; by Theorem 1 the prediction equals the corrected
    biseparable bound.
    """
    psi = spoof_state(4)
    rows = []
    for eps in eps_grid:
        _check_eps(eps, EPS_STAR)
        spec = mermin_witness(4, ImprecisionBudget.single_party(eps, 4))
        predicted = float(np.real(np.vdot(psi, spec.matrix @ psi)))
        rows.append({
            "epsilon": float(eps),
            "predicted": predicted,
            "bound_corrected": mermin_bisep_bound(4, eps).value,
            "bound_ideal": mermin_bisep_bound(4, 0.0).value,
        })
    return rows
