"""Witness operators: Mermin, GHZ-stabilizer, W-state D3, cluster C4 — in
ideal and tilted form — plus evaluation on states, correlator records and
I_nm probability tables."""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI
from .measurement import AXIS_VECTORS, ImprecisionBudget, q_of, u_of
from .tolerances import tol

#: In-plane tilt partner for each witness family.
TILT_PLANES = {
    "mermin": {"X": "Y", "Y": "X"},
    "stabilizer": {"X": "Z", "Z": "X"},
    "wstate": {"X": "Y", "Y": "X"},
    "cluster": {"X": "Z", "Z": "X"},
}


@dataclass(frozen=True)
class WitnessSpec:
    """A witness: its family, Pauli-letter terms, offset and matrix."""

    name: str
    family: str           # a ``TILT_PLANES`` key
    n: int
    terms: tuple          # ((coefficient, letters), ...)
    constant_offset: float
    matrix: np.ndarray

    def __post_init__(self):
        for _, letters in self.terms:
            if len(letters) != self.n:
                raise ValueError("term letter string has wrong length")

    @property
    def tilt_plane(self) -> dict:
        """Letter → the in-plane partner it tilts toward."""
        return TILT_PLANES[self.family]


@dataclass(frozen=True)
class CorrelatorRecord:
    """A measured joint expectation value with its standard error."""

    letters: str
    value: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be non-negative")
        if abs(self.value) > 1 + 3 * self.std:
            raise ValueError("correlator value outside the physical range")


# ---------------------------------------------------------------------------
# Assembly helpers
# ---------------------------------------------------------------------------

#: Pauli letters in the order of the coefficient tensor's axes.
LETTERS = "IXYZ"


def tilt_table(plane: dict, budget: ImprecisionBudget):
    """Letter maps of every party as a function of the tilt directions of the
    ``plane`` letters, each tilted by its party's ε of the budget.

    The returned function maps (cos, sin), arrays over (party, plane letter)
    or broadcast to them, to the (n, 4, 4) letter maps M: party j's k-th
    plane letter, of axis e, has row (0, q·e + u·d) with
    d = cos[j, k]·e₁ + sin[j, k]·e₂ and e₁, e₂ the other two axes in XYZ
    order.  It also returns their derivatives ∂Mⱼ/∂ω_jk at
    (cos, sin) = (cos ω, sin ω), shape (n, len(plane), 4, 4), whose only
    non-zero row is (0, u·d′), d′ = −sin ω·e₁ + cos ω·e₂.
    """
    rows = [LETTERS.index(b) for b in plane]
    eps = np.array([[budget.eps(j, b) for b in plane] for j in range(budget.n)])
    q, u = q_of(eps)[..., None], u_of(eps)[..., None]
    # (n, len(plane), 3): q·e and u·e₁, u·e₂ of every party's tilted letters.
    aligned = q * np.array([AXIS_VECTORS[b] for b in plane])
    perp = np.array([[AXIS_VECTORS[c] for c in "XYZ" if c != b] for b in plane])
    u1, u2 = (u * perp[:, i] for i in (0, 1))
    identity = np.tile(np.eye(4), (budget.n, 1, 1))
    parties, k = np.arange(budget.n)[:, None], np.arange(len(plane))

    def table(cos, sin):
        cos, sin = cos[..., None], sin[..., None]
        maps = identity.copy()
        maps[:, rows, 1:] = aligned + cos * u1 + sin * u2
        d_maps = np.zeros((budget.n, len(plane), 4, 4))
        d_maps[parties, k, rows, 1:] = cos * u2 - sin * u1
        return maps, d_maps

    return table


def partner_maps(plane: dict, budget: ImprecisionBudget) -> np.ndarray:
    """``tilt_table``'s letter maps with every plane letter tilted toward its
    in-plane partner: d is e₁ or e₂ exactly, a (cos, sin) of (1, 0) or (0, 1)."""
    first = np.array([[c for c in "XYZ" if c != b][0] == partner
                      for b, partner in plane.items()], dtype=float)
    return tilt_table(plane, budget)(first, 1.0 - first)[0]


@functools.cache
def _pauli_basis(n: int) -> np.ndarray:
    """Read-only (4ⁿ, 4ⁿ) table: row b is the flattened Pauli string whose
    letters are the base-4 ``LETTERS`` digits of b."""
    paulis = np.stack([PAULI[c] for c in LETTERS])
    table = np.ones((1, 1, 1), dtype=complex)
    for k in range(1, n + 1):
        table = np.einsum("bij,ckl->bcikjl", table, paulis).reshape(4 ** k, 2 ** k, 2 ** k)
    table.flags.writeable = False
    return table.reshape(4 ** n, 4 ** n)


def coefficient_tensor(terms, offset: float, n: int) -> np.ndarray:
    """Real tensor over {I,X,Y,Z}ⁿ (axes in ``LETTERS`` order) of
    offset·𝟙 + Σ c·(Pauli string) over the (coefficient, letters) terms."""
    coeffs = np.zeros((4,) * n)
    coeffs[(0,) * n] = offset
    for c, letters in terms:
        coeffs[tuple(map(LETTERS.index, letters))] += c
    return coeffs


def contract(coeffs: np.ndarray, maps) -> list[np.ndarray]:
    """Map each party's letter axis through its letter map, one leading axis
    at a time; each image becomes the last axis.  Returns every stage as a
    (4, 4ⁿ⁻¹) matrix: stage j has parties 1..j mapped, rows party j+1's
    letter and columns the other axes in cyclic order, so stage n is the
    fully mapped tensor in the original axis order."""
    stages = [coeffs.reshape(4, -1)]
    for letter_map in maps:
        stages.append((stages[-1].T @ letter_map).reshape(4, -1))
    return stages


def _halves(n: int) -> tuple[int, int, int]:
    """Parties 1..k and k+1..n of the Pauli expansion, and their dimensions."""
    k = n // 2
    return k, 2 ** k, 2 ** (n - k)


def expand(mapped: np.ndarray) -> np.ndarray:
    """The matrix Σ_a C[a]·⊗ⱼ(Σ_b Mⱼ[aⱼ, b]·σ_b) of a coefficient tensor C
    under per-party letter maps M, from the mapped tensor
    ``contract(C, M)[-1]`` of 4ⁿ entries.

    After the contraction the tensor is in exact Paulis, which the cached
    Pauli tables of parties 1..⌊n/2⌋ and of the rest then expand.
    """
    n = (mapped.size.bit_length() - 1) // 2
    k, a, b = _halves(n)
    # Rows: the (r, c) entry of parties 1..k; columns: that of parties k+1..n.
    mat = _pauli_basis(k).T @ mapped.reshape(a * a, b * b) @ _pauli_basis(n - k)
    return mat.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


def pauli_expectations(factor: np.ndarray, n: int) -> np.ndarray:
    """tr(ρ·P_b) for ρ = F·F† and every Pauli string b, as a tensor over
    {I,X,Y,Z}ⁿ: the adjoint of ``expand``'s Pauli expansion, through the same
    two half-size tables."""
    k, a, b = _halves(n)
    rho_t = factor.conj() @ factor.T
    # tr(ρ·A⊗B) = Σ A[r, c]·B[r′, c′]·ρ[(c, c′), (r, r′)], with A on parties
    # 1..k and B on the rest: r holds ρ[(c, c′), (r, r′)] at ((r, c), (r′, c′)).
    r = rho_t.reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)
    return (_pauli_basis(k) @ r @ _pauli_basis(n - k).T).real.reshape((4,) * n)


def letter_map_gradients(stages, maps, expect: np.ndarray) -> np.ndarray:
    """∂tr(ρ·W)/∂Mⱼ for W = ``expand(stages[-1])``, ``stages = contract(C, maps)``,
    and every party j, with ``expect`` the Pauli expectations of ρ: an
    (n, 4, 4) array.

    W is linear in each letter map, so entry (j, a, b) contracts the
    coefficient tensor, mapped by the parties before j, with E pulled back
    through the parties after j, leaving party j's letter a against Pauli b.
    Both sides are shared between parties: the stages of the contraction,
    and E pulled back from the last party down in the same cyclic axis order.
    """
    n = len(maps)
    grads = np.empty((n, 4, 4))
    suffix = expect.reshape(-1, 4).T                 # party n's axis first
    for j in reversed(range(n)):
        grads[j] = stages[j] @ suffix.T
        if j:
            suffix = (maps[j] @ suffix).reshape(-1, 4).T
    return grads


def assemble(terms, offset: float, maps) -> np.ndarray:
    """offset·𝟙 + Σ c·⊗ⱼ(Σ_b Mⱼ[letter, b]·σ_b) over the (coefficient,
    letters) terms, for the (n, 4, 4) letter maps M of ``tilt_table``."""
    return expand(contract(coefficient_tensor(terms, offset, len(maps)), maps)[-1])


def _make_spec(name, family, n, terms, offset, budget) -> WitnessSpec:
    if budget is None:
        budget = ImprecisionBudget.ideal(n)
    elif budget.n != n:
        raise ValueError(f"the budget has {budget.n} parties, {name} has {n}")
    matrix = assemble(terms, offset, partner_maps(TILT_PLANES[family], budget))
    return WitnessSpec(name, family, n, tuple(terms), offset, matrix)


# ---------------------------------------------------------------------------
# Mermin witness
# ---------------------------------------------------------------------------

def mermin_terms(n: int):
    """The 2^{n−1} X/Y strings of the Mermin operator with their signs.

    Terms carry an even number of Y letters and sign (−1)^{#Y/2}; the order
    lists the all-X string first, then increasing Y-weight.
    """
    terms = []
    for y_count in range(0, n + 1, 2):
        sign = (-1) ** (y_count // 2)
        for positions in itertools.combinations(range(n), y_count):
            letters = "".join("Y" if p in positions else "X" for p in range(n))
            terms.append((float(sign), letters))
    return terms


def mermin_witness(n: int, budget: ImprecisionBudget | None = None) -> WitnessSpec:
    if n < 2:
        raise ValueError("n must be at least 2")
    return _make_spec(f"mermin{n}", "mermin", n, mermin_terms(n), 0.0, budget)


# ---------------------------------------------------------------------------
# GHZ stabilizer witness
# ---------------------------------------------------------------------------

def stabilizer_terms(n: int):
    """Terms of 2^{n−2}·∏X + Σ_{edge subsets} ∏ZZ (expansion of ∏(ZZ+𝟙)).

    Each subset of the chain edges contributes a Z-string with letters set by
    incidence parity; the empty subset yields the identity string whose +1
    cancels against the −1 constant offset.
    """
    terms = [(float(2 ** (n - 2)), "X" * n)]
    edges = [(j, j + 1) for j in range(n - 1)]
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            incidence = [0] * n
            for a, b in subset:
                incidence[a] += 1
                incidence[b] += 1
            letters = "".join("Z" if c % 2 else "I" for c in incidence)
            terms.append((1.0, letters))
    return terms


def stabilizer_witness(n: int, budget: ImprecisionBudget | None = None) -> WitnessSpec:
    if n < 3:
        raise ValueError("n must be at least 3")
    return _make_spec(f"stabilizer{n}", "stabilizer", n, stabilizer_terms(n), -1.0, budget)


# ---------------------------------------------------------------------------
# W-state and cluster witnesses
# ---------------------------------------------------------------------------

D3_TERMS = tuple((1.0, s) for s in ("XXI", "XIX", "IXX", "YYI", "YIY", "IYY"))
C4_TERMS = tuple((1.0, s) for s in ("XZII", "XIXZ", "IZXZ", "ZXZI", "IIZX", "ZXIX"))


def w_witness_d3(budget: ImprecisionBudget | None = None) -> WitnessSpec:
    return _make_spec("d3", "wstate", 3, D3_TERMS, 0.0, budget)


def cluster_witness_c4(budget: ImprecisionBudget | None = None) -> WitnessSpec:
    return _make_spec("c4", "cluster", 4, C4_TERMS, 0.0, budget)


BUILDERS = {
    "mermin4": lambda budget=None: mermin_witness(4, budget),
    "mermin3": lambda budget=None: mermin_witness(3, budget),
    "stabilizer4": lambda budget=None: stabilizer_witness(4, budget),
    "stabilizer3": lambda budget=None: stabilizer_witness(3, budget),
    "d3": w_witness_d3,
    "c4": cluster_witness_c4,
}


@functools.cache
def ideal(name: str) -> WitnessSpec:
    """The untilted witness of that name, built once per process and read-only."""
    if name not in BUILDERS:
        raise ValueError(f"unknown witness {name!r}; known: {', '.join(sorted(BUILDERS))}")
    spec = BUILDERS[name]()
    spec.matrix.flags.writeable = False
    return spec


# ---------------------------------------------------------------------------
# Evaluation on measured correlators
# ---------------------------------------------------------------------------

def eval_from_correlators(spec: WitnessSpec, records) -> tuple[float, float]:
    """Witness value and propagated error from correlator records.

    Each non-identity term must be matched by exactly one record with the
    same letter string; errors combine as uncorrelated Gaussians.
    """
    by_letters = {}
    for rec in records:
        if rec.letters in by_letters:
            raise ValueError(f"duplicate record for {rec.letters}")
        by_letters[rec.letters] = rec
    value = spec.constant_offset
    var = 0.0
    identity = "I" * spec.n
    for coeff, letters in spec.terms:
        if letters == identity:
            value += coeff
            continue
        rec = by_letters.get(letters)
        if rec is None:
            raise ValueError(f"missing record for term {letters}")
        value += coeff * rec.value
        var += coeff ** 2 * rec.std ** 2
    return float(value), float(np.sqrt(var))


def load_correlator_fixture(path) -> tuple[str, list[CorrelatorRecord]]:
    """Load a correlator fixture JSON: witness name plus its records."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    missing = [key for key in ("witness", "records")
               if not isinstance(data, dict) or key not in data]
    if missing:
        raise ValueError(f"no {' or '.join(missing)} key")
    if not isinstance(data["records"], list):
        raise ValueError("records is not a list")
    records = []
    for i, r in enumerate(data["records"]):
        missing = [key for key in ("letters", "value", "std")
                   if not isinstance(r, dict) or key not in r]
        if missing:
            raise ValueError(f"record {i} has no {', '.join(missing)}")
        if not isinstance(r["letters"], str):
            raise ValueError(f"record {i} letters is not a string")
        for key in ("value", "std"):
            if type(r[key]) not in (int, float):
                raise ValueError(f"record {i} {key} is not a number")
        try:
            records.append(CorrelatorRecord(r["letters"], float(r["value"]), float(r["std"])))
        except ValueError as exc:
            raise ValueError(f"record {i} {exc}") from exc
    return data["witness"], records


# ---------------------------------------------------------------------------
# I_nm multi-setting correlator functional
# ---------------------------------------------------------------------------

def inm_signs(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every input vector s⃗ ∈ {0..m−1}^n in C order, shape (m^n, n), and the
    sign of its I_nm term: (−1)^⌊s/m⌋ for s = Σs_j ≡ 0 or 1 (mod m), and 0
    (no term) for the other residue classes."""
    svecs = np.indices((m,) * n).reshape(n, -1).T
    s = svecs.sum(axis=1)
    return svecs, np.where(s % m <= 1, 1 - 2 * (s // m % 2), 0)


@functools.cache
def _max_ndim() -> int:
    """The most axes numpy allows an array (64 on numpy 2, 32 on 1.x), probed
    with zero-size arrays, which hold no data."""
    ndim = 1
    while True:
        try:
            np.empty((0,) * (ndim + 1))
        except ValueError:
            return ndim
        ndim += 1


def inm_shape(n: int, m: int) -> tuple:
    """Shape (m,)*n + (2,)*n of P(r⃗|s⃗) for n ≥ 1 parties with m ≥ 2 settings,
    whose 2n axes numpy must allow."""
    if n < 1 or m < 2:
        raise ValueError(f"n must be at least 1 and m at least 2, got n = {n}, m = {m}")
    limit = _max_ndim()
    if 2 * n > limit:
        raise ValueError(f"n must be at most {limit // 2}, since the table has 2n axes "
                         f"and numpy allows {limit}, got n = {n}, m = {m}")
    return (m,) * n + (2,) * n


def inm_value(n: int, m: int, probabilities: np.ndarray) -> float:
    """The I_nm functional on a conditional probability table P(r⃗|s⃗) of
    shape ``inm_shape(n, m)``.

    The symmetrized correlator E_s sums Σ_r (−1)^{|r|} P(r⃗|s⃗) over all
    input vectors with Σs_j = s; the functional adds them with the signs of
    ``inm_signs``.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != inm_shape(n, m):
        raise ValueError("probability table has wrong shape")
    if not np.all(np.isfinite(probabilities)) or probabilities.min() < -tol("prob_norm"):
        raise ValueError("probabilities must be finite and non-negative")
    flat = probabilities.reshape((m ** n, 2 ** n))
    sums = flat.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > tol("prob_norm"):
        raise ValueError("conditional distributions must each sum to 1")
    parity = 1 - 2 * (np.indices((2,) * n).reshape(n, -1).sum(axis=0) % 2)
    return float(inm_signs(n, m)[1] @ (flat @ parity))

