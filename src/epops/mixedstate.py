"""Mixed input states: block densities, fidelity bounds, and purification.

A mixed input is described by its sector blocks rho_{E,E'}; a sector is
an (index, dimension) pair, with no energy value.  The best deterministic
alignment fidelity to a pure target with weights q_E is bounded by
sum sqrt(q_E q_E') ||rho_{E,E'}||_1, and the bound is attained exactly
when every block is positive semidefinite in a common sector basis.  Dropping the trace-preservation requirement, the best fidelity at
any nonzero success probability is the top eigenvalue of an alignment
matrix assembled from whitened blocks, and the largest probability
attaining it follows from the top eigenspace.  When that eigenspace is
degenerate, the probability returned is that of the uniform mixture over
it, flagged as a lower bound.

The concrete application is purifying N thermal spin-1/2 copies toward a
coherent two-level target: collective rotations leave total angular
momentum blocks invariant, so everything reduces to small per-l matrices.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DisjointSpectra,
    NotBlockPositive,
    NotOdd,
    TooLarge,
)
from .spectra import EnergyProfile, Frozen, _integer, _layout, build_profile

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_SUPPORT_CUT = 1e-12
_DEGENERACY_TOL = 1e-9
#: Relative gap within which two purification fidelities tie.
FIDELITY_TIE_REL = 1e-12
#: Largest stray entry or negative eigenvalue a block-positive block may show.
_BLOCK_TOL = 1e-10
#: Bound on |log| of the thermal normalizer (2 cosh beta)^N and of the
#: product of two l = 1/2 matrix elements, which keeps both normal doubles.
_LOG_RANGE = 700.0


class BlockDensity(Frozen):
    """A density matrix with a labeled sector layout.

    ``sectors`` holds (index, dimension) pairs, stored as ints in
    increasing index order; ``matrix`` is the read-only density matrix with
    its rows and columns grouped by sector in that order, and ``slices``
    maps each index to its row range, so block (i, j) is
    ``matrix[slices[i], slices[j]]``.
    The matrix must be Hermitian, positive semidefinite within 1e-10, and
    of unit trace.
    """

    def __init__(self, sectors: Sequence[Tuple[int, int]], matrix: np.ndarray) -> None:
        sectors = tuple([(int(i), int(d)) for i, d in sorted(sectors, key=itemgetter(0))])
        slices = _layout(sectors)
        total = sum(d for _, d in sectors)
        full = np.array(matrix, dtype=complex)
        if full.shape != (total, total):
            raise DimensionMismatch(
                f"matrix of shape {full.shape} does not match total dimension {total}"
            )
        if np.abs(full - full.conj().T).max() > _HERMITICITY_TOL:
            raise DimensionMismatch("assembled matrix is not Hermitian")
        trace = float(np.trace(full).real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"assembled matrix has trace {trace}, expected 1")
        low = float(np.linalg.eigvalsh((full + full.conj().T) / 2).min())
        if low < -_TRACE_TOL:
            raise ValueError(f"assembled matrix has negative eigenvalue {low}")
        full.flags.writeable = False
        self._init(sectors=sectors, matrix=full, slices=slices)

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(self.slices)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.matrix[self.slices[i], self.slices[j]]


def block_density(
    sectors: Sequence[Tuple[int, int]],
    blocks: Mapping[Tuple[int, int], np.ndarray],
) -> BlockDensity:
    """Build a block density from (index, dimension) sectors.

    Block (j, i) defaults to the conjugate transpose of a given block
    (i, j); a pair given neither way is zero.
    """
    secs = sorted(sectors, key=itemgetter(0))
    slices = _layout(secs)
    total = sum(d for _, d in secs)
    full = np.zeros((total, total), dtype=complex)
    cleaned = {(int(i), int(j)): np.asarray(b, dtype=complex) for (i, j), b in blocks.items()}
    for (i, j), b in cleaned.items():
        if i not in slices or j not in slices:
            raise DimensionMismatch(f"block ({i}, {j}) names an unknown sector")
        shape = (slices[i].stop - slices[i].start, slices[j].stop - slices[j].start)
        if b.shape != shape:
            raise DimensionMismatch(
                f"block ({i}, {j}) has shape {b.shape}, expected {shape}"
            )
        full[slices[i], slices[j]] = b
        if (j, i) not in cleaned:
            full[slices[j], slices[i]] = b.conj().T
    return BlockDensity(secs, full)


def pure_block_density(p: EnergyProfile) -> BlockDensity:
    """The rank-one block density of a pure state with profile ``p``."""
    return BlockDensity([(i, 1) for i in p.support], np.sqrt(np.outer(p.weights, p.weights)))


def _trace_norm(block: np.ndarray) -> float:
    return float(np.linalg.svd(block, compute_uv=False).sum())


def _square_trace(block: np.ndarray) -> float:
    s = min(block.shape)
    return float(np.trace(block[:s, :s]).real)


def _weighted_block_sum(
    rho: BlockDensity, q: EnergyProfile, f: Callable[[np.ndarray], float]
) -> float:
    """Sum of sqrt(q_E q_E') f(block (E, E')) over the sectors q weights."""
    weighted = [(i, q.weight(i)) for i in rho.labels if q.weight(i) != 0.0]
    total = 0.0
    for i, qi in weighted:
        for j, qj in weighted:
            total += math.sqrt(qi * qj) * f(rho.block(i, j))
    return total


def det_fidelity_bound(rho: BlockDensity, q: EnergyProfile) -> float:
    """Upper bound on the deterministic alignment fidelity.

    Sums sqrt(q_E q_E') times the trace norm of every block; attained
    exactly when the state is block positive.
    """
    return _weighted_block_sum(rho, q, _trace_norm)


class BlockPositivity(NamedTuple):
    """Outcome of the block positivity test in the stored sector bases.

    ``certified`` True means every block is, up to its leading square
    part, positive semidefinite with nothing outside that square; a False
    value is inconclusive because only the stored bases were tried.
    """

    certified: bool
    note: str


def is_block_positive(rho: BlockDensity) -> BlockPositivity:
    """Test block positivity of every sector pair in the stored bases.

    Block (j, i) is the conjugate transpose of block (i, j), so each
    unordered pair is tested once.
    """
    for i, j in combinations_with_replacement(rho.labels, 2):
        b = rho.block(i, j)
        s = min(b.shape)
        square = b[:s, :s]
        outside = b[s:, :] if b.shape[0] > s else b[:, s:]
        if outside.size and np.abs(outside).max() > _BLOCK_TOL:
            return BlockPositivity(
                False,
                f"block ({i}, {j}) has weight outside its leading square",
            )
        if np.abs(square - square.conj().T).max() > _BLOCK_TOL:
            return BlockPositivity(
                False, f"block ({i}, {j}) is not Hermitian in the stored basis"
            )
        low = float(
            np.linalg.eigvalsh((square + square.conj().T) / 2).min()
        )
        if low < -_BLOCK_TOL:
            return BlockPositivity(
                False,
                f"block ({i}, {j}) has negative eigenvalue {low:.2e}",
            )
    return BlockPositivity(True, "all blocks positive in the stored bases")


def mixed_alignment_fidelity(rho: BlockDensity, q: EnergyProfile) -> float:
    """Deterministic alignment fidelity of a certified block-positive state.

    For such states the trace-norm bound is attained and every block
    contributes its leading-square trace; raises if the certificate is
    not available.
    """
    cert = is_block_positive(rho)
    if not cert.certified:
        raise NotBlockPositive(cert.note)
    return _weighted_block_sum(rho, q, _square_trace)


def _support_inverse_root(block: np.ndarray) -> np.ndarray:
    """(block^T)^(-1/2) on its numerical support."""
    sym = (block.T + block.T.conj().T) / 2
    vals, vecs = np.linalg.eigh(sym)
    cut = _SUPPORT_CUT * max(float(vals.max()), 0.0)
    inv = np.where(vals > cut, 1.0 / np.sqrt(np.where(vals > cut, vals, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


class _Alignment(NamedTuple):
    ranges: Dict[int, slice]  # each kept sector's rows, in index order
    whiteners: Dict[int, np.ndarray]
    matrix: np.ndarray


def _alignment(rho: BlockDensity, q: EnergyProfile) -> _Alignment:
    kept = [
        (i, d)
        for i, d in rho.sectors
        if q.weight(i) > 0.0 and float(np.trace(rho.block(i, i)).real) > _SUPPORT_CUT
    ]
    if not kept:
        raise DisjointSpectra("state and target profiles share no sector")
    ranges = _layout(kept)
    rows = np.r_[tuple(rho.slices[i] for i in ranges)]
    # The alignment matrix whitens the transpose of rho, which for a
    # Hermitian matrix is its conjugate.
    kept_rho = np.conj(rho.matrix[np.ix_(rows, rows)])
    whiteners = {i: _support_inverse_root(rho.block(i, i)) for i in ranges}
    whiten = np.zeros_like(kept_rho)
    for i, r in ranges.items():
        whiten[r, r] = whiteners[i]
    qw = np.repeat([q.weight(i) for i in ranges], [d for _, d in kept])
    matrix = np.sqrt(np.outer(qw, qw)) * (whiten @ kept_rho @ whiten)
    return _Alignment(ranges=ranges, whiteners=whiteners, matrix=matrix)


def ultimate_mixed_fidelity(rho: BlockDensity, q: EnergyProfile) -> float:
    """Best fidelity at any nonzero success probability.

    Top eigenvalue of the whitened alignment matrix; reduces to the pure
    ultimate optimum when every sector is one-dimensional.
    """
    return float(np.linalg.eigvalsh(_alignment(rho, q).matrix).max())


class MixedProbabilityResult(NamedTuple):
    """Largest success probability compatible with the ultimate fidelity.

    ``exact`` is True when the top eigenspace is one-dimensional and the
    value is the true maximum; otherwise the value is the probability of
    the uniform mixture over the eigenspace and is only a lower bound.
    """

    value: float
    fidelity: float
    exact: bool


def _probability_of(a: _Alignment, sigma: np.ndarray) -> float:
    worst = np.inf
    for i, r in a.ranges.items():
        sub = sigma[r, r]
        if float(np.trace(sub).real) <= 1e-14:
            continue
        t = a.whiteners[i]
        stretched = t @ sub @ t
        top = float(np.linalg.eigvalsh((stretched + stretched.conj().T) / 2).max())
        if top > 0.0:
            worst = min(worst, 1.0 / top)
    return 0.0 if math.isinf(worst) else float(worst)


def ultimate_mixed_probability(
    rho: BlockDensity, q: EnergyProfile
) -> MixedProbabilityResult:
    """Probability of the ultimate fidelity point.

    Scores the uniform mixture over the top eigenspace of the alignment
    matrix.  With a one-dimensional eigenspace that is the top
    eigenvector, the closed-form optimum, flagged exact; a degenerate
    eigenspace gives a lower bound.
    """
    a = _alignment(rho, q)
    vals, vecs = np.linalg.eigh(a.matrix)
    top = float(vals.max())
    basis = vecs[:, vals >= top * (1.0 - _DEGENERACY_TOL)]
    d = basis.shape[1]
    # Summing the projectors keeps d = 1 bit-identical to the top
    # eigenvector's projector; basis @ basis^H rounds differently.
    sigma = sum(np.outer(v, v.conj()) for v in basis.T) / d
    return MixedProbabilityResult(_probability_of(a, sigma), top, exact=d == 1)


# --- Collective spin sectors and thermal purification -----------------------


class SpinSector(NamedTuple):
    """One total-angular-momentum sector of N spin-1/2 systems."""

    l: float
    multiplicity: int
    g: np.ndarray  # matrix elements of exp(2 beta Jx) / Z^N, indexed m + l

    def element(self, m: float, m2: float) -> float:
        return float(self.g[int(round(m + self.l)), int(round(m2 + self.l))])


def _check_spin_count(N: int) -> None:
    _integer(N, "N=")
    if N < 1:
        raise ValueError(f"N={N} must be a positive odd integer")
    if N % 2 == 0:
        raise NotOdd(f"N={N} must be odd")


def spin_multiplicities(N: int) -> Dict[float, int]:
    """Exact degeneracy C(N, k) - C(N, k-1), k = N/2 - l, of each total
    angular momentum l for odd N."""
    _check_spin_count(N)
    return {j / 2: math.comb(N, k) - (math.comb(N, k - 1) if k else 0)
            for j, k in zip(range(1, N + 1, 2), range((N - 1) // 2, -1, -1))}


def spin_sector_model(N: int, beta: float) -> Tuple[SpinSector, ...]:
    """Per-l matrix elements of the thermal operator, already normalized.

    For each l the tridiagonal Jx restricted to the sector is
    exponentiated by eigendecomposition; at beta = 0 the identity is used
    directly so the off-diagonal elements vanish exactly.

    The elements of the l = 1/2 sector are about (2 cosh beta)^-(N-1) / 2,
    the smallest of all; a beta that would push the normalizer above, or
    the product of two such elements below, e^700 or e^-700 raises
    :class:`TooLarge` instead of returning rounded-away values.
    """
    _check_spin_count(N)
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta={beta} must be finite and nonnegative")
    log_z = beta + math.log1p(math.exp(-2.0 * beta))
    if max(N * log_z, 2.0 * ((N - 1) * log_z + math.log(2.0))) > _LOG_RANGE:
        raise TooLarge(
            f"beta={beta} puts the thermal weights of N={N} spins "
            f"outside the double range"
        )
    z = 2.0 * math.cosh(beta)
    norm = z**N
    sectors = []
    for l, mult in sorted(spin_multiplicities(N).items()):
        size = int(round(2 * l)) + 1
        if beta == 0.0:
            g = np.eye(size) / norm
        else:
            jx = np.zeros((size, size))
            for a in range(size - 1):
                m = -l + a
                coupling = 0.5 * math.sqrt(l * (l + 1) - m * (m + 1))
                jx[a + 1, a] = coupling
                jx[a, a + 1] = coupling
            vals, vecs = np.linalg.eigh(jx)
            g = (vecs * np.exp(2.0 * beta * vals)) @ vecs.T / norm
        sectors.append(SpinSector(l=l, multiplicity=mult, g=g))
    return tuple(sectors)


def coherent_target_profile() -> EnergyProfile:
    """Equal-weight two-level target, sectors labeled 2m for m = +-1/2."""
    return build_profile([-1, 1], [0.5, 0.5])


def thermal_spin_block_density(N: int, beta: float) -> BlockDensity:
    """The thermal N-spin state as an explicit block density.

    Sectors are labeled by 2m; within a sector the basis runs over
    (l, copy) with l decreasing from N/2, so every block pair aligns
    positionally and block positivity is visible in the stored basis.
    Total dimension is 2^N, so N is capped at 9 here; the closed-form
    report has no such cap.
    """
    _check_spin_count(N)
    if N > 9:
        raise TooLarge(f"N={N} assembles a 2^{N} dimensional matrix; cap is 9")
    sectors = spin_sector_model(N, beta)[::-1]
    secs = [
        (twice_m, sum(s.multiplicity for s in sectors if s.l >= abs(twice_m) / 2.0 - 1e-9))
        for twice_m in range(-N, N + 1, 2)
    ]
    slices = _layout(secs)
    full = np.zeros((2**N, 2**N))
    # The rows of (l, copy) sit at the same offset in every sector 2m with
    # |m| <= l: the multiplicities of the larger l come first.
    at = 0
    for s in sectors:
        twice_l = int(round(2 * s.l))
        for copy in range(at, at + s.multiplicity):
            rows = [slices[twice_m].start + copy for twice_m in range(-twice_l, twice_l + 1, 2)]
            full[np.ix_(rows, rows)] = s.g
        at += s.multiplicity
    return BlockDensity(secs, full)


class PurificationSector(NamedTuple):
    """Closed-form per-l data of the thermal purification."""

    l: float
    multiplicity: int
    alignment: float
    fidelity: float
    probability: float


class PurificationReport(NamedTuple):
    """Closed-form purification summary for N thermal spins."""

    N: int
    beta: float
    F_det: float
    F_prob: float
    p_max: float
    best_l: float
    sectors: Tuple[PurificationSector, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "sectors": [s._asdict() for s in self.sectors]}


def purification_report(N: int, beta: float) -> PurificationReport:
    """Deterministic and probabilistic purification optima for N spins.

    Works entirely in the per-l closed forms: the deterministic fidelity
    sums the four central matrix elements over sectors, the probabilistic
    optimum picks the l with the best normalized off-diagonal element,
    and its probability carries the full multiplicity of that l.  Ties in
    fidelity (within :data:`FIDELITY_TIE_REL` relative) resolve toward the
    larger probability.
    """
    _check_spin_count(N)
    if N > 21:
        raise TooLarge(f"N={N} exceeds the supported report range (21)")
    sectors = spin_sector_model(N, beta)
    f_det = 0.0
    rows = []
    for s in sectors:
        up = s.element(0.5, 0.5)
        down = s.element(-0.5, -0.5)
        cross = s.element(0.5, -0.5)
        f_det += 0.5 * s.multiplicity * (up + 2.0 * cross + down)
        alignment = cross / math.sqrt(up * down)
        rows.append(
            PurificationSector(
                l=s.l,
                multiplicity=s.multiplicity,
                alignment=alignment,
                fidelity=(1.0 + alignment) / 2.0,
                probability=2.0 * s.multiplicity * down,
            )
        )
    best = rows[0]
    for row in rows[1:]:
        if row.fidelity > best.fidelity * (1.0 + FIDELITY_TIE_REL) or (
            abs(row.fidelity - best.fidelity) <= FIDELITY_TIE_REL * max(best.fidelity, 1.0)
            and row.probability > best.probability
        ):
            best = row
    return PurificationReport(
        N=N,
        beta=beta,
        F_det=f_det,
        F_prob=best.fidelity,
        p_max=best.probability,
        best_l=best.l,
        sectors=tuple(rows),
    )
