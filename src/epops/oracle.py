"""Small-dimension Hilbert-space engine for cross-checking the formulas.

Everything else in this package works on weight profiles.  This module
builds actual state vectors and Kraus operators on a sector-decomposed
space (capped at total dimension 16; it carries no energy values, which
no check reads) and re-derives the same quantities from matrix algebra
alone: no ratio tables, no closed forms.  The greedy simulation
recomputes each round's filter from the evolving state, with one array
of sector weights per round, so agreement with the profile engine is a
genuine two-route check; it reports each round's Kraus weights as an
array in the input's support order.  The optimum at fixed success
probability is checked by its KKT certificate (``_kkt_residual``): the
problem is concave with linear constraints, so primal feasibility,
stationarity on the filtered sectors and dual feasibility on the fully
transmitted ones prove it optimal at machine precision.  Its fidelity is
also checked against an exhaustive search over the fully transmitted set.
``grid_search_tradeoff``, a brute-force coefficient grid, is no longer on
``verify``'s path; the benchmark's tracer still names it.

The profile engine's own second routes that ``verify`` reads live here
too: ``_filter_arrays`` builds a run's round filter weights and merged
filters once, as two arrays.  ``verify`` compares the round weights with
the simulation, and ``_merge_gaps`` compares their running sums, the
generic filter fidelity and the success probability with each merged
filter.
"""

from __future__ import annotations

import math
from typing import List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .channels import SectorFilter, filter_fidelity, filter_success_probability
from .coarse import tradeoff_curve
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    InfeasibleProbability,
    NoFeasiblePartition,
    NotTraceNonIncreasing,
    SpectrumTooLarge,
    TooLarge,
)
from .recursive import ProtocolRun, cumulative, run_protocol
from .spectra import EnergyProfile, Frozen, _layout, build_profile

_DIMENSION_CAP = 16
_SUBSET_SECTOR_CAP = 12
_GRID_POINT_CAP = 50_000_000
#: Most partial sums :func:`grid_search_tradeoff` builds and sorts at once.
_SORTED_POINTS = 1 << 18
# A point within the band sums to at most about 2, so rounding moves its
# probability by well under 1e-15: widened by this margin, each searched
# slice holds every feasible point.
_BAND_MARGIN = 1e-14
#: Largest residual sector weight, against the input's unit norm, that
#: :func:`simulate_protocol` counts as eroded.
_ERODED_WEIGHT = 1e-12
_ROUND_TOL = 1e-10
#: Largest residual :func:`_kkt_residual` allows.
_KKT_TOL = 1e-10
_SUBSET_TOL = 1e-12
#: Largest entry or eigenvalue excess the operator checks ignore.
_OPERATOR_TOL = 1e-10
#: Largest change of a sector weight the statistics route ignores.
_STATISTICS_TOL = 1e-8
#: Random densities each operator check draws.
_SAMPLES = 6
#: Kraus operators of each random sector channel.
_CHANNEL_FLAGS = 2

#: Largest gap :func:`_merge_gaps` allows for each second route.
MERGE_TOLERANCES = {"kraus": 1e-12, "fidelity": 1e-12, "probability": 1e-10}


class HilbertModel(Frozen):
    """A finite space split into labeled energy sectors.

    ``dims[i]`` is the dimension of the sector labeled ``labels[i]``.
    The labels increase, and ``slices`` maps each to its row range.  No
    check reads a sector's energy, so the model holds none.  Total
    dimension is capped at 16 so that exhaustive matrix checks stay cheap.
    """

    def __init__(self, labels: Tuple[int, ...], dims: Tuple[int, ...]) -> None:
        slices = _layout(list(zip(labels, dims)))
        total = sum(dims)
        if total > _DIMENSION_CAP:
            raise TooLarge(
                f"total dimension {total} exceeds the oracle cap {_DIMENSION_CAP}"
            )
        self._init(labels=labels, dims=dims, slices=slices, dimension=total)


def hilbert_model(dims: Mapping[int, int]) -> HilbertModel:
    """Build a model from ``{sector index: dimension}``."""
    labels = tuple(sorted(dims))
    return HilbertModel(labels=labels, dims=tuple(dims[i] for i in labels))


def embed_profile(
    model: HilbertModel, p: EnergyProfile, rng: np.random.Generator
) -> np.ndarray:
    """A state vector whose sector weights reproduce the profile.

    The intra-sector direction and phase are drawn from ``rng``, so
    repeated embeddings exercise alignment rather than assume it.
    """
    missing = [i for i in p.support if i not in model.labels]
    if missing:
        raise DimensionMismatch(f"profile sectors {missing} absent from the model")
    psi = np.zeros(model.dimension, dtype=complex)
    for i, w in zip(p.support, p.weights):
        sl = model.slices[i]
        d = sl.stop - sl.start
        direction = rng.normal(size=d) + 1j * rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        psi[sl] = math.sqrt(w) * direction
    return psi


def sector_weights(model: HilbertModel, psi: np.ndarray) -> np.ndarray:
    """The squared norm of each sector component, in ``model.labels`` order."""
    return np.array([np.vdot(psi[sl], psi[sl]).real for sl in model.slices.values()])


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _kraus_total(kraus: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The family as one array and its sum of M^dag M, which may not exceed 1."""
    ops = np.asarray(kraus)
    total = np.einsum("mji,mjk->ik", ops.conj(), ops)
    top = float(np.linalg.eigvalsh(total).max())
    if top > 1.0 + _OPERATOR_TOL:
        raise NotTraceNonIncreasing(
            f"sum of M^dag M has top eigenvalue {top}, beyond 1"
        )
    return ops, total


def _random_densities(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """:data:`_SAMPLES` full-rank random density matrices (Ginibre construction)."""
    # Each sample draws its real part, then its imaginary part.
    g = rng.normal(size=(_SAMPLES, 2, dimension, dimension))
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _output_diagonals(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Per density, the diagonal of sum M rho M^dag: sum_m,k (M rho)_ik conj(M_ik)."""
    return np.einsum("smik,mik->si", ops @ rho[:, None], ops.conj()).real


def check_energy_preserving(
    model: HilbertModel,
    kraus: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> bool:
    """Whether the Kraus family commutes with every sector projector.

    Raises if the family is not trace non-increasing.  M commutes with
    every projector P exactly when it has no entry outside the diagonal
    sector blocks: (MP - PM)_ij is +-M_ij when rows i and j lie in
    different sectors and 0 otherwise.  For a trace-preserving family this
    commutant test is cross-checked against sector statistics on random
    densities; the two verdicts must agree.
    """
    ops, total = _kraus_total(kraus)
    owner = np.repeat(np.arange(len(model.dims)), model.dims)
    outside = owner[:, None] != owner[None, :]
    commutant_ok = not (np.abs(ops[:, outside]) > _OPERATOR_TOL).any()
    if np.abs(total - np.eye(model.dimension)).max() <= _OPERATOR_TOL:
        rho = _random_densities(model.dimension, rng)
        before = np.einsum("sii->si", rho).real
        after = _output_diagonals(ops, rho)
        starts = [sl.start for sl in model.slices.values()]
        change = np.add.reduceat(after - before, starts, axis=1)
        stats_ok = not (np.abs(change) > _STATISTICS_TOL).any()
        if stats_ok != commutant_ok:
            raise ConsistencyError(
                "energy preservation, sector statistics vs commutant",
                stats_ok, commutant_ok, _OPERATOR_TOL,
            )
    return commutant_ok


def luders_identity_holds(
    model: HilbertModel,
    kraus: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> bool:
    """Success probability is unchanged by the square-root reduction.

    Replacing the family {M_i} by the single operator sqrt(sum M^dag M)
    preserves every outcome probability; checked on random densities.
    """
    ops, total = _kraus_total(kraus)
    rho = _random_densities(model.dimension, rng)
    direct = _output_diagonals(ops, rho).sum(axis=1)
    reduced = _output_diagonals(_psd_sqrt(total)[None], rho).sum(axis=1)
    return not (np.abs(direct - reduced) > _OPERATOR_TOL).any()


class SimulatedRound(NamedTuple):
    """One greedy round re-derived from matrices."""

    k: int
    fidelity: float
    probability: float
    kraus_weights: np.ndarray
    operator: np.ndarray


class SimulationResult(NamedTuple):
    """Greedy matrix-level protocol run."""

    rounds: Tuple[SimulatedRound, ...]
    failure_operator: np.ndarray
    completeness_residual: float


def simulate_protocol(
    model: HilbertModel,
    p: EnergyProfile,
    q: EnergyProfile,
    K: int,
    rng: np.random.Generator,
) -> SimulationResult:
    """Run the greedy best-fidelity-first protocol on explicit matrices.

    Each round rebuilds the success operator from the current residual
    state: measure the sector weights, filter every surviving sector down
    to the smallest weight ratio against the target, and rotate sector
    components onto the target's.  Nothing is taken from the profile
    engine, so per-round fidelities, probabilities, and filter weights are
    an independent route to the same numbers.  ``kraus_weights`` hold, in
    ``p.support`` order, the weight each round keeps of each input sector.
    """
    phi0 = embed_profile(model, p, rng)
    psi = embed_profile(model, q, rng)
    dim = model.dimension
    prefix = np.eye(dim, dtype=complex)
    slices = list(model.slices.values())
    qw = np.array([q.weight(i) for i in model.labels])
    # Unit components: the target's where it has weight, the input's as whole-space vectors.
    targets = [psi[sl] / np.linalg.norm(psi[sl]) if w > 0.0 else None
               for sl, w in zip(slices, qw)]
    inputs = np.zeros((len(p.support), dim), dtype=complex)
    for row, i in zip(inputs, p.support):
        sl = model.slices[i]
        row[sl] = phi0[sl] / np.linalg.norm(phi0[sl])

    rounds: List[SimulatedRound] = []
    for k in range(1, K + 1):
        residual = prefix @ phi0
        weights = sector_weights(model, residual)
        norm2 = math.fsum(weights)
        if norm2 <= 1e-12:
            break
        # An absolute cut: against a residual norm near 1e-5, an eroded
        # sector's rounding residue of 1e-16 would pass a relative one.
        convertible = (weights > _ERODED_WEIGHT) & (qw > 0.0)
        if not convertible.any():
            break
        share, q_share = weights[convertible] / norm2, qw[convertible]
        r_min = (share / q_share).min()
        x = np.minimum(1.0, r_min * q_share / share)

        succ = np.zeros((dim, dim), dtype=complex)
        for j, x_j in zip(np.flatnonzero(convertible).tolist(), x.tolist()):
            sl = slices[j]
            direction = residual[sl] / np.linalg.norm(residual[sl])
            succ[sl, sl] = math.sqrt(x_j) * np.outer(targets[j], direction.conj())
        operator = succ @ prefix
        out_vec = operator @ phi0
        probability = float(np.vdot(out_vec, out_vec).real)
        overlap = np.vdot(psi, out_vec)
        fidelity = float(abs(overlap) ** 2) / probability
        moved = [operator @ c for c in inputs]
        kraus_weights = np.array([np.vdot(m, m).real for m in moved])
        rounds.append(SimulatedRound(k, fidelity, probability, kraus_weights, operator))
        prefix = _psd_sqrt(np.eye(dim, dtype=complex) - succ.conj().T @ succ) @ prefix

    completeness = sum(r.operator.conj().T @ r.operator for r in rounds)
    completeness = completeness + prefix.conj().T @ prefix
    residual_norm = float(np.abs(completeness - np.eye(dim)).max())
    return SimulationResult(rounds=tuple(rounds), failure_operator=prefix,
                            completeness_residual=residual_norm)


def grid_search_tradeoff(
    p: EnergyProfile,
    q: EnergyProfile,
    p_succ: float,
    resolution: float,
) -> Tuple[float, SectorFilter]:
    """Brute-force the best filter near ``p_succ`` on a coefficient grid.

    Searches every x in {0, resolution, ..., 1}^(number of input sectors)
    for the points whose success probability is within one resolution
    step of the request (and above zero), and maximizes the fidelity
    amplitude^2 / probability at the actually achieved probability.
    Every feasible point is scored, with no shortcut along any axis.
    ``verify`` proves the optimum by :func:`_kkt_residual` instead; only
    the tests and the benchmark's tracer still reach this search.

    Point k of the flat grid has coefficient ``axis[d_i]`` on sector i,
    where d_i is the i-th base-``size`` digit of k, so sector 0 varies
    fastest.  The probability and the amplitude of a point are summed
    over the sectors in order 0..n-1 from per-sector tables x p_i and
    sqrt(x p_i q_i).  The partial sums over the low sectors, as many of
    them as give at most 2^18 points (at least sector 0, and all of them
    on a small grid), are built once.  Each value of the remaining sectors
    adds the same terms to every partial sum, so its feasible points lie
    in one window of probability, widened by a margin far above rounding.
    The partial sums inside some window are sorted by probability, which
    the added terms keep, so bisection (of the gap to ``p_succ`` at the
    band edges, of the probability at zero) finds each window's feasible
    points as one run, the only points scored.  Ties keep the first
    maximum in flat order.
    """
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must lie in (0, 1]")
    support = p.support
    size = int(round(1.0 / resolution)) + 1
    axis = np.linspace(0.0, 1.0, size)
    n = len(support)
    total_points = size**n
    if total_points > _GRID_POINT_CAP:
        raise SpectrumTooLarge(
            f"grid of {total_points} points exceeds the cap {_GRID_POINT_CAP}"
        )
    pw = np.array([p.weight(i) for i in support])
    qw = np.array([q.weight(i) for i in support])
    prob_table = axis * pw[:, None]
    amp_table = np.sqrt(axis * (pw * qw)[:, None])
    band = resolution + 1e-12

    low = n
    while low > 1 and size**low > _SORTED_POINTS:
        low -= 1
    prob = prob_table[0]
    amp = amp_table[0]
    for i in range(1, low):
        prob = (prob + prob_table[i, :, None]).ravel()
        amp = (amp + amp_table[i, :, None]).ravel()
    # One window per value of the high sectors, laid out as the low block;
    # a partial sum outside every window is never sorted.
    shift = np.zeros(1)
    for i in range(low, n):
        shift = (shift + prob_table[i, :, None]).ravel()
    lows = p_succ - band - shift - _BAND_MARGIN
    highs = p_succ + band - shift + _BAND_MARGIN
    rows = np.flatnonzero((prob >= lows.min()) & (prob < highs.max()))
    order = rows[np.argsort(prob[rows])]
    prob, amp = prob[order], amp[order]
    firsts, lasts = prob.searchsorted(lows), prob.searchsorted(highs)
    achieved_buf, gap_buf, fid_buf = (np.empty(len(prob)) for _ in range(3))

    best_f = -1.0
    best_flat = -1
    for high in np.flatnonzero(firsts < lasts).tolist():
        digits = [(i, high // size ** (i - low) % size) for i in range(low, n)]
        first, last = firsts[high], lasts[high]
        achieved = prob[first:last]
        for i, d in digits:
            achieved = np.add(achieved, prob_table[i, d], out=achieved_buf[first:last])
        # The shifted slice stays nondecreasing, and so do its gaps to
        # p_succ: its feasible points are one run, past the zero points.
        gap = np.subtract(achieved, p_succ, out=gap_buf[first:last])
        start = max(gap.searchsorted(-band), achieved.searchsorted(0.0, "right"))
        stop = gap.searchsorted(band, "right")
        if start >= stop:
            continue
        run = slice(first + start, first + stop)
        a = amp[run]
        fid = fid_buf[run]
        for i, d in digits:
            a = np.add(a, amp_table[i, d], out=fid)
        np.multiply(a, a, out=fid)
        np.divide(fid, achieved[start:stop], out=fid)
        top = fid.max()
        if top > best_f:
            # A tie within the run goes to the smallest flat index.
            best_f = float(top)
            best_flat = high * size**low + int(order[run][fid == top].min())
    if best_flat < 0:
        raise InfeasibleProbability(
            f"no grid point reaches p_succ={p_succ} within one step"
        )
    return best_f, SectorFilter(
        {i: float(axis[best_flat // size**k % size]) for k, i in enumerate(support)}
    )


def exhaustive_tradeoff(p: EnergyProfile, q: EnergyProfile, p_succ: float) -> float:
    """Best two-regime fidelity at ``p_succ`` over all 2^n choices of S0.

    For each subset S0 of the n common sectors, x_E = 1 on S0 and
    x_E = c q_E/p_E elsewhere, with c fixed by ``p_succ``; a subset counts
    if every x_E stays within [0, 1].  When S0 is the whole common spectrum,
    the sectors of ``p`` outside ``q`` may take up an excess up to their
    weight: they add probability but no overlap.  The best Omega^2 / p_succ
    is the optimum that ``optimal_tradeoff_point`` reads off the ratio
    order, found here without assuming S0 is a prefix of it.  At most 12
    common sectors.  Raises ``ValueError`` unless ``p_succ`` is positive.
    """
    if not p_succ > 0.0:
        raise ValueError("p_succ must lie in (0, 1]")
    p_all = np.array(p.weights)
    q_all = np.array([q.weight(i) for i in p.support])
    shared = q_all > 0.0
    n = int(shared.sum())
    if n > _SUBSET_SECTOR_CAP:
        raise SpectrumTooLarge(
            f"{n} common sectors exceed the subset-search cap {_SUBSET_SECTOR_CAP}"
        )
    pw, qw = p_all[shared], q_all[shared]
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    p_s0 = member @ pw
    q_s1 = (~member) @ qw
    excess = p_succ - p_s0
    c = excess / np.where(q_s1 > 0.0, q_s1, 1.0)
    min_ratio_s1 = np.where(member, np.inf, (pw / qw)[None, :]).min(axis=1)
    p_extra = math.fsum(p_all[~shared])
    feasible = (excess >= -1e-12) & np.where(
        q_s1 > 0.0, c <= min_ratio_s1 * (1.0 + 1e-12),
        excess <= max(1e-10, p_extra * (1.0 + 1e-12)),
    )
    if not feasible.any():
        raise NoFeasiblePartition(
            f"no subset of the common spectrum admits p_succ={p_succ}"
        )
    om = member @ np.sqrt(pw * qw) + np.sqrt(np.clip(excess, 0.0, None) * q_s1)
    best = float(om[feasible].max())
    return best * best / p_succ


def _kkt_residual(x: np.ndarray, pw: np.ndarray, qw: np.ndarray, p_succ: float) -> float:
    """The worst residual of the KKT conditions that prove the filter ``x``
    maximizes sum sqrt(x_E p_E q_E) subject to sum p_E x_E = ``p_succ`` and
    0 <= x <= 1.  ``x``, ``pw`` and ``qw`` are columns in the input's
    support order.  With lambda_E = sqrt(q_E / (p_E x_E)) / 2 on S1 (x < 1,
    q > 0) and lambda the smallest of them, the residuals are: primal
    feasibility, |sum p_E x_E - p_succ| and the excess of x outside [0, 1];
    stationarity, 1 - lambda / lambda_E (1 where x_E = 0, which no optimum
    has); dual feasibility on S0 (x = 1, q > 0), 1 - sqrt(q_E / p_E) /
    (2 lambda); and x_E on every sector outside q, where x_E > 0 forces
    lambda = 0.  With S1 empty, lambda = 0 meets the last three.  Each is
    within 1e-10 at an optimum.
    """
    shared = qw > 0.0
    residuals = [abs(math.fsum(pw * x) - p_succ), -x.min(), x.max() - 1.0]
    s1 = shared & (x < 1.0)
    if s1.any():
        # 1 / (2 lambda_E); the largest one is 1 / (2 lambda).
        t = np.sqrt(pw[s1] * x[s1] / qw[s1])
        top = float(t.max())
        residuals.append(1.0 - t.min() / top if top > 0.0 else 1.0)
        s0 = shared & (x == 1.0)
        if s0.any():
            residuals.append(1.0 - top * np.sqrt(qw[s0] / pw[s0]).min())
        residuals.append(x[~shared].max(initial=0.0))
    return float(max(residuals))


def _filter_arrays(run: ProtocolRun) -> Tuple[np.ndarray, np.ndarray]:
    """Rows T = 1..K of ``run``, columns its input sectors in support order:
    each round's filter weights (0 on the sectors eroded before round T,
    (r_T - r_{T-1}) q_E / p_E on the rest) and each merged filter of rounds
    1..T (1 on U_T, r_T q_E / p_E elsewhere).  A sector outside the common
    spectrum is never eroded."""
    p, table = run.input, run.table
    # A sector's ratio group is the round that erodes it; L + 1 if none does.
    rank = {i: j for j, i in enumerate(table.order)}
    erodes = np.searchsorted(table.ends, [rank.get(i, len(rank)) for i in p.support], "right") + 1
    pw = np.array(p.weights)
    qw = np.array([run.target.weight(i) for i in p.support])
    ratios = np.array(table.ratios[: len(run.fidelities)])
    T = np.arange(1, len(ratios) + 1)[:, None]
    rounds = np.where(erodes < T, 0.0, np.diff(ratios, prepend=0.0)[:, None] * qw / pw)
    merged = np.where(erodes <= T, 1.0, ratios[:, None] * qw / pw)
    return rounds, merged


def _merge_gaps(run: ProtocolRun, rounds: np.ndarray, merged: np.ndarray) -> List[float]:
    """The worst gap over T of ``run`` between each merged filter and, in
    :data:`MERGE_TOLERANCES` order, the round weights summed over rounds
    1..T, the ``F_coarse`` the CLI prints and the cumulative p_succ."""
    p, q = run.input, run.target
    curve = tradeoff_curve(p, q, len(run.fidelities)).points
    kraus = np.abs(np.cumsum(rounds, axis=0) - merged).max(axis=1)
    gaps = []
    for T, row in enumerate(merged.tolist(), start=1):
        merged_T = SectorFilter(dict(zip(p.support, row)))
        gaps.append((
            kraus[T - 1],
            abs(curve[T - 1].F_coarse - filter_fidelity(p, q, merged_T)),
            abs(filter_success_probability(p, merged_T) - cumulative(run, T)[0]),
        ))
    return np.max(gaps, axis=0).tolist()


class VerificationCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
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
    n = int(rng.integers(2, max_sectors + 1))
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n + 1))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def _random_model(
    rng: np.random.Generator, q: EnergyProfile
) -> HilbertModel:
    """Random sector dimensions 1 or 2, or all 1 if those exceed the cap.

    Beyond 16 target sectors even the all-1 model exceeds the cap, and
    :class:`HilbertModel` raises ``TooLarge``.
    """
    dims = tuple([int(rng.integers(1, 3)) for _ in q.support])
    if sum(dims) > _DIMENSION_CAP:
        dims = (1,) * len(dims)
    return HilbertModel(q.support, dims)


def run_verification(seed: int, instances: int) -> VerificationReport:
    """Drive every dual-route check on random instances.

    Draws ``instances`` random profile pairs and verifies, against the
    matrix oracle: per-round agreement of the recursive engine, each
    closed-form merged filter against the summed round filters of the
    engine and of the simulation and against its generic fidelity and
    success probability, Kraus completeness and energy preservation of
    each simulated family, the KKT certificate of each fixed-probability
    optimum and its fidelity against the exhaustive subset search,
    optimality bounds against random filters and random channels, and the
    square-root reduction identity.  The certificate's line keeps the name
    ``lagrange-vs-grid``, which the benchmark's references pin, until those
    are recaptured.  The energy check draws its densities from a generator
    of its own, so it moves no other line's numbers.  Raises ``ValueError``
    unless ``instances`` is at least 1 (an empty run would pass every
    check) and ``seed`` is nonnegative.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    from .channels import deterministic_fidelity
    from .optimal import optimal_tradeoff_point, ultimate_optimum

    rng = np.random.default_rng(seed)
    energy_rng = np.random.default_rng([seed, 1])
    rounds_checked = 0
    worst_round = 0.0
    worst_merge = dict.fromkeys(MERGE_TOLERANCES, 0.0)
    worst_sim_merge = 0.0
    worst_completeness = 0.0
    energy_ok = True
    worst_kkt = 0.0
    worst_subset = 0.0
    bound_margin = np.inf
    det_margin = np.inf
    luders_ok = True
    rounds_ok = True

    for _ in range(instances):
        p, q = random_profile_pair(rng)
        model = _random_model(rng, q)

        run = run_protocol(p, q, 64)
        sim = simulate_protocol(model, p, q, 64, rng)
        # The input lies in the target's support, so both routes run round 1.
        rounds, merged = _filter_arrays(run)
        n = min(len(rounds), len(sim.rounds))
        rounds_ok = rounds_ok and n == len(rounds) == len(sim.rounds)
        rounds_checked += n
        simulated = np.array([b.kraus_weights for b in sim.rounds[:n]])
        kraus = np.abs(rounds[:n] - simulated).max(axis=1).tolist()
        for a, b, dev in zip(run.rounds, sim.rounds, kraus):
            worst_round = max(worst_round, abs(a.fidelity - b.fidelity),
                              abs(a.probability - b.probability), dev)
        summed = np.cumsum(simulated, axis=0)
        worst_sim_merge = max(worst_sim_merge, float(np.abs(summed - merged[:n]).max()))
        for name, gap in zip(MERGE_TOLERANCES, _merge_gaps(run, rounds, merged)):
            worst_merge[name] = max(worst_merge[name], gap)
        worst_completeness = max(worst_completeness, sim.completeness_residual)

        ops = [r.operator for r in sim.rounds] + [sim.failure_operator]
        if not luders_identity_holds(model, ops, rng=rng):
            luders_ok = False
        if not check_energy_preserving(model, ops, energy_rng):
            energy_ok = False

        _, p_max, _ = ultimate_optimum(p, q)
        target = float(rng.uniform(p_max, 1.0))
        best = optimal_tradeoff_point(p, q, target)

        # Random filters can reach the optimum but never beat it.
        x = rng.uniform(0.05, 1.0, size=len(p.support))
        filt = SectorFilter({i: float(v) for i, v in zip(p.support, x)})
        achieved_p = filter_success_probability(p, filt)
        achieved_f = filter_fidelity(p, q, filt)
        best_at = optimal_tradeoff_point(p, q, achieved_p)
        bound_margin = min(bound_margin, best_at.fidelity - achieved_f)
        pw, qw = np.array(p.weights), np.array([q.weight(i) for i in p.support])
        for point, request in ((best, target), (best_at, achieved_p)):
            worst_subset = max(
                worst_subset,
                abs(exhaustive_tradeoff(p, q, request) - point.fidelity),
            )
            coeffs = np.array([point.filter.coefficient(i) for i in p.support])
            worst_kkt = max(worst_kkt, _kkt_residual(coeffs, pw, qw, request))

        # Random trace-preserving sector channels never beat the
        # deterministic fidelity.
        f_det = deterministic_fidelity(p, q)
        phi = embed_profile(model, p, rng)
        psi = embed_profile(model, q, rng)
        overlaps = psi.conj() @ _random_block_channel(model, rng) @ phi
        realized = float(np.sum(np.abs(overlaps) ** 2))
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
            worst_completeness <= 1e-10 and energy_ok,
            f"worst residual {worst_completeness:.2e}; every family "
            + ("energy-preserving" if energy_ok else "NOT energy-preserving"),
        ),
        VerificationCheck(
            "lagrange-vs-grid",
            worst_kkt <= _KKT_TOL and worst_subset <= _SUBSET_TOL,
            f"worst KKT residual {worst_kkt:.2e} (within 1e-10); "
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


def _random_block_channel(model: HilbertModel, rng: np.random.Generator) -> np.ndarray:
    """A random trace-preserving channel with sector-block Kraus operators."""
    pieces = np.zeros((_CHANNEL_FLAGS, model.dimension, model.dimension), dtype=complex)
    for full in pieces:
        for sl, d in zip(model.slices.values(), model.dims):
            full[sl, sl] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    gram = sum(m.conj().T @ m for m in pieces)
    vals, vecs = np.linalg.eigh(gram)
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return pieces @ inv_root
