"""Small-dimension Hilbert-space engine for cross-checking the formulas.

Everything else in this package works on weight profiles.  This module
builds actual state vectors and Kraus operators on a sector-decomposed
space (capped at total dimension 16) and re-derives the same quantities
from matrix algebra alone: no ratio tables, no closed forms.  The greedy
simulation recomputes each round's filter from the evolving state, so
agreement with the profile engine is a genuine two-route check.  The
optimum at fixed success probability is checked by a grid over filter
coefficients and by an exhaustive search over the fully transmitted set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .channels import SectorFilter, filter_fidelity, filter_success_probability
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    InfeasibleProbability,
    NoFeasiblePartition,
    NotTraceNonIncreasing,
    SpectrumTooLarge,
    TooLarge,
)
from .recursive import ProtocolRun, cumulative
from .spectra import EnergyProfile, common_support

_DIMENSION_CAP = 16
_SUBSET_SECTOR_CAP = 12
_GRID_POINT_CAP = 50_000_000
_ERODED_RELATIVE = 1e-12
_ROUND_TOL = 1e-10
_SUBSET_TOL = 1e-12

#: Largest gap :func:`merge_residuals` allows for each second route.
MERGE_TOLERANCES = {"kraus": 1e-12, "fidelity": 1e-12, "probability": 1e-10}


@dataclass(frozen=True)
class HilbertModel:
    """A finite space split into labeled energy sectors.

    ``dims[i]`` is the dimension of the sector labeled ``labels[i]``;
    ``values[i]`` its energy.  Total dimension is capped at 16 so that
    exhaustive matrix checks stay cheap.
    """

    labels: Tuple[int, ...]
    values: Tuple[float, ...]
    dims: Tuple[int, ...]
    offsets: Tuple[int, ...] = field(init=False)
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise DimensionMismatch("sector labels must be distinct")
        if any(d < 1 for d in self.dims):
            raise DimensionMismatch("sector dimensions must be positive")
        total = sum(self.dims)
        if total > _DIMENSION_CAP:
            raise TooLarge(
                f"total dimension {total} exceeds the oracle cap {_DIMENSION_CAP}"
            )
        offsets = []
        at = 0
        for d in self.dims:
            offsets.append(at)
            at += d
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "dimension", total)

    def sector_slice(self, label: int) -> slice:
        i = self.labels.index(label)
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    def projector(self, label: int) -> np.ndarray:
        pr = np.zeros((self.dimension, self.dimension))
        sl = self.sector_slice(label)
        pr[sl, sl] = np.eye(sl.stop - sl.start)
        return pr

    def hamiltonian(self) -> np.ndarray:
        diag = np.concatenate(
            [np.full(d, v) for v, d in zip(self.values, self.dims)]
        )
        return np.diag(diag)


def hilbert_model(
    dims: Mapping[int, int], values: Mapping[int, float] | None = None
) -> HilbertModel:
    """Build a model from ``{sector index: dimension}`` (values default to index)."""
    labels = tuple(sorted(dims))
    vals = tuple(
        float(values[i]) if values and i in values else float(i) for i in labels
    )
    return HilbertModel(labels=labels, values=vals, dims=tuple(dims[i] for i in labels))


def embed_profile(
    model: HilbertModel, p: EnergyProfile, rng: np.random.Generator | None = None
) -> np.ndarray:
    """A state vector whose sector weights reproduce the profile.

    Without a generator the weight goes on each sector's first basis
    vector; with one, the intra-sector direction and phase are random, so
    repeated embeddings exercise alignment rather than assume it.
    """
    missing = [i for i in p.support if i not in model.labels]
    if missing:
        raise DimensionMismatch(f"profile sectors {missing} absent from the model")
    psi = np.zeros(model.dimension, dtype=complex)
    for i in p.support:
        sl = model.sector_slice(i)
        d = sl.stop - sl.start
        if rng is None:
            direction = np.zeros(d, dtype=complex)
            direction[0] = 1.0
        else:
            direction = rng.normal(size=d) + 1j * rng.normal(size=d)
            direction /= np.linalg.norm(direction)
        psi[sl] = math.sqrt(p.weight(i)) * direction
    return psi


def sector_weights(model: HilbertModel, psi: np.ndarray) -> Dict[int, float]:
    """``{label: squared norm of the sector component}``."""
    out = {}
    for label in model.labels:
        sl = model.sector_slice(label)
        out[label] = float(np.vdot(psi[sl], psi[sl]).real)
    return out


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_energy_preserving(
    model: HilbertModel,
    kraus: Sequence[np.ndarray],
    tol: float = 1e-10,
    rng: np.random.Generator | None = None,
    samples: int = 6,
) -> bool:
    """Whether the Kraus family commutes with every sector projector.

    Raises if the family is not trace non-increasing.  For a
    trace-preserving family the commutant test is cross-checked against
    sector statistics on random densities; the two verdicts must agree.
    """
    total = sum(m.conj().T @ m for m in kraus)
    top = float(np.linalg.eigvalsh(total).max())
    if top > 1.0 + tol:
        raise NotTraceNonIncreasing(
            f"sum of M^dag M has top eigenvalue {top}, beyond 1"
        )
    commutant_ok = True
    for label in model.labels:
        pr = model.projector(label)
        for m in kraus:
            if np.abs(m @ pr - pr @ m).max() > tol:
                commutant_ok = False
    trace_preserving = np.abs(total - np.eye(model.dimension)).max() <= tol
    if trace_preserving:
        if rng is None:
            rng = np.random.default_rng(0)
        stats_ok = True
        for _ in range(samples):
            rho = random_density(model.dimension, rng)
            out = sum(m @ rho @ m.conj().T for m in kraus)
            for label in model.labels:
                pr = model.projector(label)
                before = float(np.trace(pr @ rho).real)
                after = float(np.trace(pr @ out).real)
                if abs(after - before) > max(tol, 1e-8):
                    stats_ok = False
        if stats_ok != commutant_ok:
            raise ConsistencyError(
                "energy preservation, sector statistics vs commutant",
                stats_ok, commutant_ok, tol,
            )
    return commutant_ok


def luders_identity_holds(
    model: HilbertModel,
    kraus: Sequence[np.ndarray],
    tol: float = 1e-10,
    rng: np.random.Generator | None = None,
    samples: int = 6,
) -> bool:
    """Success probability is unchanged by the square-root reduction.

    Replacing the family {M_i} by the single operator sqrt(sum M^dag M)
    preserves every outcome probability; checked on random densities.
    """
    total = sum(m.conj().T @ m for m in kraus)
    top = float(np.linalg.eigvalsh(total).max())
    if top > 1.0 + tol:
        raise NotTraceNonIncreasing(
            f"sum of M^dag M has top eigenvalue {top}, beyond 1"
        )
    root = _psd_sqrt(total)
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(samples):
        rho = random_density(model.dimension, rng)
        direct = math.fsum(float(np.trace(m @ rho @ m.conj().T).real) for m in kraus)
        reduced = float(np.trace(root @ rho @ root).real)
        if abs(direct - reduced) > tol:
            return False
    return True


def random_density(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class SimulatedRound:
    """One greedy round re-derived from matrices."""

    k: int
    fidelity: float
    probability: float
    kraus_weights: Dict[int, float]
    operator: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    """Greedy matrix-level protocol run."""

    rounds: Tuple[SimulatedRound, ...]
    failure_operator: np.ndarray
    completeness_residual: float
    input_state: np.ndarray
    target_state: np.ndarray


def simulate_protocol(
    model: HilbertModel,
    p: EnergyProfile,
    q: EnergyProfile,
    K: int,
    rng: np.random.Generator | None = None,
) -> SimulationResult:
    """Run the greedy best-fidelity-first protocol on explicit matrices.

    Each round rebuilds the success operator from the current residual
    state: measure the sector weights, filter every surviving sector down
    to the smallest weight ratio against the target, and rotate sector
    components onto the target's.  Nothing is taken from the profile
    engine, so per-round fidelities, probabilities, and filter weights are
    an independent route to the same numbers.
    """
    for profile in (p, q):
        missing = [i for i in profile.support if i not in model.labels]
        if missing:
            raise DimensionMismatch(
                f"profile sectors {missing} absent from the model"
            )
    phi0 = embed_profile(model, p, rng)
    psi = embed_profile(model, q, rng)
    dim = model.dimension
    prefix = np.eye(dim, dtype=complex)

    target_components: Dict[int, np.ndarray] = {}
    for i in q.support:
        sl = model.sector_slice(i)
        target_components[i] = psi[sl] / np.linalg.norm(psi[sl])

    rounds: List[SimulatedRound] = []
    for k in range(1, K + 1):
        residual = prefix @ phi0
        weights = sector_weights(model, residual)
        norm2 = math.fsum(weights.values())
        if norm2 <= 1e-12:
            break
        active = {
            label: w
            for label, w in weights.items()
            if w > _ERODED_RELATIVE * norm2
        }
        convertible = [i for i in active if q.weight(i) > 0.0]
        if not convertible:
            break
        ratios = {i: (active[i] / norm2) / q.weight(i) for i in convertible}
        r_min = min(ratios.values())

        succ = np.zeros((dim, dim), dtype=complex)
        for i in convertible:
            sl = model.sector_slice(i)
            direction = residual[sl] / np.linalg.norm(residual[sl])
            x = min(1.0, r_min * q.weight(i) / (active[i] / norm2))
            succ[sl, sl] = (
                math.sqrt(x)
                * np.outer(target_components[i], direction.conj())
            )
        operator = succ @ prefix
        out_vec = operator @ phi0
        probability = float(np.vdot(out_vec, out_vec).real)
        overlap = np.vdot(psi, out_vec)
        fidelity = float(abs(overlap) ** 2) / probability
        kraus_weights = {}
        for i in p.support:
            sl = model.sector_slice(i)
            component = np.zeros(dim, dtype=complex)
            component[sl] = phi0[sl] / np.linalg.norm(phi0[sl])
            moved = operator @ component
            kraus_weights[i] = float(np.vdot(moved, moved).real)
        rounds.append(
            SimulatedRound(
                k=k,
                fidelity=fidelity,
                probability=probability,
                kraus_weights=kraus_weights,
                operator=operator,
            )
        )
        fail = _psd_sqrt(
            np.eye(dim, dtype=complex) - succ.conj().T @ succ
        )
        prefix = fail @ prefix

    completeness = sum(r.operator.conj().T @ r.operator for r in rounds)
    completeness = completeness + prefix.conj().T @ prefix
    residual_norm = float(np.abs(completeness - np.eye(dim)).max())
    return SimulationResult(
        rounds=tuple(rounds),
        failure_operator=prefix,
        completeness_residual=residual_norm,
        input_state=phi0,
        target_state=psi,
    )


def grid_search_tradeoff(
    p: EnergyProfile,
    q: EnergyProfile,
    p_succ: float,
    resolution: float,
) -> Tuple[float, SectorFilter]:
    """Brute-force the best filter near ``p_succ`` on a coefficient grid.

    Scans every x in {0, resolution, ..., 1}^(number of input sectors),
    keeps the points whose success probability is within one resolution
    step of the request, and maximizes fidelity at the actually achieved
    probability.  Purely a cross-check for the Lagrange construction.
    """
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must lie in (0, 1]")
    support = p.support
    steps = int(round(1.0 / resolution))
    axis = np.linspace(0.0, 1.0, steps + 1)
    n = len(support)
    total_points = (steps + 1) ** n
    if total_points > _GRID_POINT_CAP:
        raise SpectrumTooLarge(
            f"grid of {total_points} points exceeds the cap {_GRID_POINT_CAP}"
        )
    pw = np.array([p.weight(i) for i in support])
    qw = np.array([q.weight(i) for i in support])
    pq = pw * qw

    best_f = -1.0
    best_x: np.ndarray | None = None
    chunk = 1 << 20
    divisors = (steps + 1) ** np.arange(n, dtype=np.int64)
    for start in range(0, total_points, chunk):
        stop = min(start + chunk, total_points)
        flat = np.arange(start, stop, dtype=np.int64)
        digits = (flat[:, None] // divisors[None, :]) % (steps + 1)
        x = axis[digits]
        achieved = x @ pw
        feasible = np.abs(achieved - p_succ) <= resolution + 1e-12
        feasible &= achieved > 0.0
        if not feasible.any():
            continue
        amp = np.sqrt(x * pq[None, :]).sum(axis=1)
        fid = np.where(feasible, amp * amp / np.where(feasible, achieved, 1.0), -1.0)
        idx = int(fid.argmax())
        if fid[idx] > best_f:
            best_f = float(fid[idx])
            best_x = x[idx].copy()
    if best_x is None:
        raise InfeasibleProbability(
            f"no grid point reaches p_succ={p_succ} within one step"
        )
    return best_f, SectorFilter({i: float(v) for i, v in zip(support, best_x)})


def exhaustive_tradeoff(p: EnergyProfile, q: EnergyProfile, p_succ: float) -> float:
    """Best two-regime fidelity at ``p_succ`` over all 2^n choices of S0.

    For each subset S0 of the n common sectors, x_E = 1 on S0 and
    x_E = c q_E/p_E elsewhere, with c fixed by ``p_succ``; a subset counts
    if every x_E stays within [0, 1].  The best Omega^2 / p_succ is the
    optimum that ``optimal_tradeoff_point`` reads off the ratio order, found
    here without assuming S0 is a prefix of it.  At most 12 common sectors.
    """
    common = common_support(p, q)
    n = len(common)
    if n > _SUBSET_SECTOR_CAP:
        raise SpectrumTooLarge(
            f"{n} common sectors exceed the subset-search cap {_SUBSET_SECTOR_CAP}"
        )
    pw = np.array([p.weight(i) for i in common])
    qw = np.array([q.weight(i) for i in common])
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    p_s0 = member @ pw
    q_s1 = (~member) @ qw
    excess = p_succ - p_s0
    c = excess / np.where(q_s1 > 0.0, q_s1, 1.0)
    min_ratio_s1 = np.where(member, np.inf, (pw / qw)[None, :]).min(axis=1)
    feasible = (excess >= -1e-12) & np.where(
        q_s1 > 0.0, c <= min_ratio_s1 * (1.0 + 1e-12), np.abs(excess) <= 1e-10
    )
    if not feasible.any():
        raise NoFeasiblePartition(
            f"no subset of the common spectrum admits p_succ={p_succ}"
        )
    om = member @ np.sqrt(pw * qw) + np.sqrt(np.clip(excess, 0.0, None) * q_s1)
    best = float(om[feasible].max())
    return best * best / p_succ


def merge_residuals(run: ProtocolRun) -> Dict[str, float]:
    """Worst gap between each closed-form merged filter and its second routes.

    For every T of ``run``: ``kraus`` compares the round filter weights
    summed over rounds 1..T with ``coarse_filter(run, T)``, ``fidelity``
    compares ``coarse_fidelity`` with the generic fidelity of that filter,
    and ``probability`` compares the filter's success probability with the
    cumulative one.  :data:`MERGE_TOLERANCES` holds the allowed gaps.
    """
    from .coarse import coarse_fidelity, coarse_filter

    p, q = run.input, run.target
    summed = np.cumsum([[r.kraus[i] for i in p.support] for r in run.rounds], axis=0)
    gaps = []
    for T, row in enumerate(summed, start=1):
        merged = coarse_filter(run, T)
        gaps.append((
            max(abs(x - merged.coefficients[i]) for i, x in zip(p.support, row)),
            abs(coarse_fidelity(run, T) - filter_fidelity(p, q, merged)),
            abs(filter_success_probability(p, merged) - cumulative(run, T)[0]),
        ))
    return dict(zip(MERGE_TOLERANCES, np.max(gaps, axis=0).tolist()))


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the oracle cross-check suite."""

    seed: int
    instances: int
    checks: Tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        out = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            out.append(f"{status} {c.name}: {c.detail}")
        return out


def random_profile_pair(
    rng: np.random.Generator, max_sectors: int = 5
) -> Tuple[EnergyProfile, EnergyProfile]:
    """A generic instance: input support contained in the target support."""
    from .spectra import build_profile

    n = int(rng.integers(2, max_sectors + 1))
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n + 1))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def _random_model(
    rng: np.random.Generator, q: EnergyProfile
) -> HilbertModel:
    dims = {i: int(rng.integers(1, 3)) for i in q.support}
    while sum(dims.values()) > _DIMENSION_CAP:
        dims = {i: 1 for i in q.support}
    return hilbert_model(dims)


def _grid_resolution(sectors: int) -> float:
    return {2: 0.01, 3: 0.01, 4: 0.02, 5: 0.05}.get(sectors, 0.1)


def run_verification(seed: int, instances: int) -> VerificationReport:
    """Drive every dual-route check on random instances.

    Draws ``instances`` random profile pairs and verifies, against the
    matrix oracle: per-round agreement of the recursive engine, each
    closed-form merged filter against the summed round filters of the
    engine and of the simulation and against its generic fidelity and
    success probability, Kraus completeness, the Lagrange construction
    against a brute-force grid and against the exhaustive subset search,
    optimality bounds against random filters and random channels, and the
    square-root reduction identity.
    """
    from .channels import deterministic_fidelity
    from .coarse import coarse_filter
    from .optimal import optimal_tradeoff_point, ultimate_optimum
    from .recursive import run_protocol

    rng = np.random.default_rng(seed)
    rounds_checked = 0
    worst_round = 0.0
    worst_merge = dict.fromkeys(MERGE_TOLERANCES, 0.0)
    worst_sim_merge = 0.0
    worst_completeness = 0.0
    worst_grid = 0.0
    worst_subset = 0.0
    grid_ok = True
    bound_margin = np.inf
    det_margin = np.inf
    luders_ok = True
    rounds_ok = True

    for _ in range(instances):
        p, q = random_profile_pair(rng)
        model = _random_model(rng, q)

        run = run_protocol(p, q, 64)
        sim = simulate_protocol(model, p, q, 64, rng)
        if len(run.rounds) != len(sim.rounds):
            rounds_ok = False
        for a, b in zip(run.rounds, sim.rounds):
            rounds_checked += 1
            dev = max(
                abs(a.fidelity - b.fidelity),
                abs(a.probability - b.probability),
                max(
                    abs(a.kraus[i] - b.kraus_weights[i]) for i in p.support
                ),
            )
            worst_round = max(worst_round, dev)
        for name, gap in merge_residuals(run).items():
            worst_merge[name] = max(worst_merge[name], gap)
        simulated = np.cumsum(
            [[b.kraus_weights[i] for i in p.support] for b in sim.rounds], axis=0
        )
        for T, row in enumerate(simulated[: len(run.rounds)], start=1):
            merged = coarse_filter(run, T).coefficients
            gaps = [abs(x - merged[i]) for i, x in zip(p.support, row)]
            worst_sim_merge = max([worst_sim_merge] + gaps)
        worst_completeness = max(worst_completeness, sim.completeness_residual)

        ops = [r.operator for r in sim.rounds] + [sim.failure_operator]
        if not luders_identity_holds(model, ops, rng=rng):
            luders_ok = False

        _, p_max, _ = ultimate_optimum(p, q)
        target = float(rng.uniform(p_max, 1.0))
        resolution = _grid_resolution(len(p.support))
        f_grid, _ = grid_search_tradeoff(p, q, target, resolution)
        best = optimal_tradeoff_point(p, q, target)
        gap = abs(f_grid - best.fidelity)
        worst_grid = max(worst_grid, gap)
        if not (f_grid <= best.fidelity + 1e-10 or gap <= 2 * resolution):
            grid_ok = False
        if best.fidelity > f_grid + 2 * resolution:
            grid_ok = False

        # Random filters can reach the optimum but never beat it.
        x = rng.uniform(0.05, 1.0, size=len(p.support))
        filt = SectorFilter({i: float(v) for i, v in zip(p.support, x)})
        achieved_p = filter_success_probability(p, filt)
        achieved_f = filter_fidelity(p, q, filt)
        best_at = optimal_tradeoff_point(p, q, achieved_p)
        bound_margin = min(bound_margin, best_at.fidelity - achieved_f)
        for point, request in ((best, target), (best_at, achieved_p)):
            worst_subset = max(
                worst_subset,
                abs(exhaustive_tradeoff(p, q, request) - point.fidelity),
            )

        # Random trace-preserving sector channels never beat the
        # deterministic fidelity.
        f_det = deterministic_fidelity(p, q)
        phi = embed_profile(model, p, rng)
        psi = embed_profile(model, q, rng)
        channel = _random_block_channel(model, rng)
        rho = sum(
            m @ np.outer(phi, phi.conj()) @ m.conj().T for m in channel
        )
        realized = float(np.vdot(psi, rho @ psi).real)
        det_margin = min(det_margin, f_det - realized)

    checks = (
        VerificationCheck(
            "recursive-vs-simulation",
            rounds_ok
            and worst_round <= _ROUND_TOL
            and worst_sim_merge <= _ROUND_TOL
            and all(worst_merge[k] <= tol for k, tol in MERGE_TOLERANCES.items()),
            f"{rounds_checked} rounds compared, worst deviation {worst_round:.2e}; "
            f"merged filters: vs simulation {worst_sim_merge:.2e}, "
            + ", ".join(f"{k} {v:.2e}" for k, v in worst_merge.items()),
        ),
        VerificationCheck(
            "kraus-completeness",
            worst_completeness <= 1e-10,
            f"worst residual {worst_completeness:.2e}",
        ),
        VerificationCheck(
            "lagrange-vs-grid",
            grid_ok and worst_subset <= _SUBSET_TOL,
            f"worst fidelity gap {worst_grid:.2e} (within twice the grid step); "
            f"exhaustive subset search gap {worst_subset:.2e} (within 1e-12)",
        ),
        VerificationCheck(
            "filter-optimality-bound",
            bound_margin >= -1e-10,
            f"smallest optimal-minus-achieved margin {bound_margin:.2e}",
        ),
        VerificationCheck(
            "deterministic-bound",
            det_margin >= -1e-10,
            f"smallest bound-minus-channel margin {det_margin:.2e}",
        ),
        VerificationCheck(
            "square-root-reduction",
            luders_ok,
            "success probabilities match under the single-operator reduction",
        ),
    )
    return VerificationReport(seed=seed, instances=instances, checks=checks)


def _random_block_channel(
    model: HilbertModel, rng: np.random.Generator, flags: int = 2
) -> List[np.ndarray]:
    """A random trace-preserving channel with sector-block Kraus operators."""
    pieces = []
    for _ in range(flags):
        blocks = []
        for d in model.dims:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            blocks.append(g)
        full = np.zeros((model.dimension, model.dimension), dtype=complex)
        for label, b in zip(model.labels, blocks):
            sl = model.sector_slice(label)
            full[sl, sl] = b
        pieces.append(full)
    gram = sum(m.conj().T @ m for m in pieces)
    vals, vecs = np.linalg.eigh(gram)
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return [m @ inv_root for m in pieces]
