"""Logarithmic capacity: closed forms, a Fekete-point oracle, equilibrium measures.

Closed forms (circle R -> R, arc -> R sin(w/2), segment L -> L/4, point -> 0)
are the exact reference path and the only one that survives the family's
underflowing arc widths.  The Fekete oracle maximizes the pairwise log-distance
sum of n points over the set's parameterization and converts the optimum to a
transfinite-diameter estimate.  It moves every point at once by a safeguarded
diagonal-Newton ascent: each step is clipped to half the gap to each
neighbour and halved until the energy does not fall, so the parameters of
each piece stay sorted.  On one arc, circle or segment the energy is concave
on the ordered cone, so one start reaches the unique optimum (the
Gauss-Lobatto points on a segment); a union of several pieces runs _N_STARTS
starts and keeps the first of the highest energy.  The starts ascend
together as the rows of one array per piece: every sweep steps, halves and
accepts all live starts at once, a converged start is frozen, and each start
takes the same floating-point operations it would take alone.  `sweeps`
counts the kept start's own iterations.  The equilibrium routine discretizes
the energy functional over midpoint cells.
All distance logs inside one circle or segment come from chord formulas so
near-coincident points keep finite logs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .geometry import (
    ArcObstacle,
    CompactSet,
    DiscObstacle,
    Obstacle,
    PointObstacle,
    SegmentObstacle,
    piece_is_polar,
)
from .numerics import exp_or_inf

NEG_INF = float("-inf")

SetLike = Union[CompactSet, Obstacle]


@dataclass(frozen=True)
class LogCapacity:
    """Capacity stored as its natural log; -inf encodes a polar set."""

    log_value: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_value):
            raise ValueError("log capacity cannot be NaN")

    @property
    def is_polar(self) -> bool:
        return self.log_value == NEG_INF

    @property
    def value(self) -> float:
        """Linear-scale capacity; underflows to 0.0 honestly, inf only past the double range."""
        return exp_or_inf(self.log_value)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on finitely many points."""

    points: tuple[complex, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must pair up")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class EnergyValue:
    """Logarithmic energy of a measure; tolerance is the declared discretization error."""

    value: float
    tolerance: float | None = None


# ---------------------------------------------------------------------------
# closed forms


def arc_log_capacity(
    radius: float,
    half_width: float | None = None,
    *,
    log_sin_quarter: float | None = None,
    log_radius: float | None = None,
) -> LogCapacity:
    """Capacity of a circular arc: R * sin(half_width / 2).

    Callers supply either the half-width in radians or log(sin(half_width/2))
    directly; the latter is the underflow-safe path used by the family's
    arcs, where it equals -t^-k and makes the capacity k*log(r) - t^-k
    exactly in log-domain.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if log_sin_quarter is None:
        if half_width is None:
            raise ValueError("supply half_width or log_sin_quarter")
        if not (0.0 < half_width <= math.pi + 1e-12):
            raise ValueError("half_width must lie in (0, pi]")
        log_sin_quarter = math.log(math.sin(min(half_width, math.pi) / 2.0))
    lr = math.log(radius) if log_radius is None else log_radius
    return LogCapacity(lr + log_sin_quarter)


def disc_log_capacity(radius: float) -> LogCapacity:
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    return LogCapacity(math.log(radius))


def segment_log_capacity(length: float) -> LogCapacity:
    if not (length > 0.0):
        raise ValueError("length must be positive")
    return LogCapacity(math.log(length / 4.0))


def point_log_capacity() -> LogCapacity:
    return LogCapacity(NEG_INF)


def log_capacity(obj: SetLike) -> LogCapacity:
    """Closed-form capacity of a single piece, or of a union with at most
    one non-polar piece (finitely many extra points never change capacity)."""
    if isinstance(obj, CompactSet):
        extended = [p for p in obj.pieces if not piece_is_polar(p)]
        if not extended:
            return LogCapacity(NEG_INF)
        if len(extended) > 1:
            raise ValueError("no closed form for a union of several non-polar pieces; use union_log_capacity or the Fekete oracle")
        return log_capacity(extended[0])
    if piece_is_polar(obj):
        return point_log_capacity()
    if isinstance(obj, ArcObstacle):
        return arc_log_capacity(
            obj.radius,
            log_sin_quarter=obj.log_sin_quarter,
            log_radius=obj.log_radius,
        )
    if isinstance(obj, DiscObstacle):
        return disc_log_capacity(obj.radius)
    if isinstance(obj, SegmentObstacle):
        return segment_log_capacity(obj.length)
    raise TypeError(f"unsupported set {obj!r}")


def union_log_capacity(parts: Sequence[SetLike]) -> tuple[LogCapacity, LogCapacity]:
    """Two-sided capacity bound for a disjoint union of small sets.

    lower = max over parts (monotonicity, exact); upper_proxy combines the
    reciprocals of -log cap: -log cap(union) >= 1 / sum_j 1/(-log cap E_j),
    the subadditivity step behind the shell upper bounds.  Valid only in
    the log cap < 0 regime; parts at or above capacity 1 are rejected.
    """
    logs = []
    for part in parts:
        lv = log_capacity(part).log_value
        if lv >= 0.0:
            raise ValueError(f"union bound needs log cap < 0 for every part, got {lv}")
        logs.append(lv)
    if not logs:
        return LogCapacity(NEG_INF), LogCapacity(NEG_INF)
    lower = max(logs)
    recip_sum = 0.0
    for lv in logs:
        if lv != NEG_INF:
            recip_sum += 1.0 / (-lv)
    upper = NEG_INF if recip_sum == 0.0 else -1.0 / recip_sum
    return LogCapacity(lower), LogCapacity(upper)


# ---------------------------------------------------------------------------
# 1-D parameterizations for the optimizers


@dataclass
class _ParamPiece:
    """One parameterizable piece: a circular arc/circle or a segment."""

    kind: str  # "arc" or "segment"
    lo: float
    hi: float
    periodic: bool
    radius: float = 0.0
    center: complex = 0j
    z0: complex = 0j
    z1: complex = 0j

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def arclength(self) -> float:
        return self.radius * self.span if self.kind == "arc" else self.span

    def points(self, s: np.ndarray) -> np.ndarray:
        if self.kind == "arc":
            return self.center + self.radius * np.exp(1j * s)
        direction = (self.z1 - self.z0) / abs(self.z1 - self.z0)
        return self.z0 + s * direction

    def chord_log(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """log distance between points of THIS piece at parameters s and t."""
        if self.kind == "arc":
            with np.errstate(divide="ignore"):
                return math.log(2.0 * self.radius) + np.log(np.abs(np.sin(0.5 * (s - t))))
        with np.errstate(divide="ignore"):
            return np.log(np.abs(s - t))

    def derivatives(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of points(s) in s."""
        if self.kind == "arc":
            w = self.radius * np.exp(1j * s)
            return 1j * w, -w
        direction = (self.z1 - self.z0) / abs(self.z1 - self.z0)
        return np.full(s.shape, direction), np.zeros(s.shape, dtype=complex)

    def chord_slopes(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian diagonal, in each parameter, of the sum of
        chord logs between the points of THIS piece at parameters s (one
        configuration per row of a 2-D s)."""
        d = s[..., :, None] - s[..., None, :]
        diag = np.arange(s.shape[-1])
        d[..., diag, diag] = 1.0  # any nonzero value; the diagonal terms are dropped
        if self.kind == "arc":
            g, h = 0.5 / np.tan(0.5 * d), -0.25 / np.sin(0.5 * d) ** 2
        else:
            g = 1.0 / d
            h = -(g**2)
        g[..., diag, diag] = 0.0
        h[..., diag, diag] = 0.0
        return g.sum(axis=-1), h.sum(axis=-1)


def _as_set(cs: SetLike) -> CompactSet:
    """A bare piece as the one-piece CompactSet, so both forms take one path."""
    return cs if isinstance(cs, CompactSet) else CompactSet((cs,))


def _parameterize(cs: CompactSet) -> list[_ParamPiece]:
    """The pieces of a non-polar set the optimizers can move points on."""
    out: list[_ParamPiece] = []
    for p in cs.pieces:
        if isinstance(p, PointObstacle):
            continue
        if isinstance(p, ArcObstacle):
            if p.point_like:
                # no angular extent left at float resolution; inside a wider
                # union it moves the optimum by less than one ulp, so skip it
                continue
            lo, hi = p.angular_interval()
            out.append(_ParamPiece(kind="arc", lo=lo, hi=hi, periodic=p.is_full_circle, radius=p.radius))
        elif isinstance(p, DiscObstacle):
            # capacity of a closed disc equals that of its boundary circle
            out.append(
                _ParamPiece(
                    kind="arc", lo=-math.pi, hi=math.pi, periodic=True, radius=p.radius, center=p.center
                )
            )
        elif isinstance(p, SegmentObstacle):
            length = p.length
            if not (length > 1e-300) or not math.isfinite(math.log(length)):
                raise ValueError("pairwise distances underflow in linear scale; use the closed-form capacity path")
            out.append(_ParamPiece(kind="segment", lo=0.0, hi=length, periodic=False, z0=p.z0, z1=p.z1))
    if not out:
        # only point-like arcs of finite capacity are left: -inf would be a lie
        raise ValueError("pairwise distances underflow in linear scale; use the closed-form capacity path")
    return out


# ---------------------------------------------------------------------------
# Fekete oracle


@dataclass(frozen=True)
class FeketeResult:
    """Optimum of one n-point configuration search."""

    n: int
    energy: float  # max of sum_{i<j} log|z_i - z_j|
    raw_log_dn: float  # 2 E / (n (n-1)), the plain transfinite-diameter estimate
    corrected_log_dn: float  # raw with the (n/2) log n normalization removed
    points: tuple[complex, ...]
    sweeps: int  # ascent iterations of the kept start
    n_starts: int  # starts actually run: 1 on a single piece, _N_STARTS on a union
    converged: bool  # the last step gained less than SWEEP_GAIN_STOP
    final_gain: float  # energy gained by the last step
    # largest |dE/ds| over the returned points; an end point resting on lo / hi
    # of a non-periodic piece counts only where its component points inward
    max_gradient: float


def _allocate(lengths: Sequence[float], n: int) -> list[int]:
    m = len(lengths)
    if n < m:
        raise ValueError(f"need at least one point per piece: n={n} < {m} pieces")
    total = float(sum(lengths))
    # largest-remainder top-up toward proportional-to-arclength: one point
    # each, then the n - m largest deficits quota_i - (1 + c), c = 0, 1, ...,
    # the lower piece first on ties, as a greedy one-at-a-time top-up picks them
    quota = n * np.asarray(lengths, dtype=float) / total
    deficits = quota[:, None] - np.arange(1, n - m + 1)
    rows = np.repeat(np.arange(m), n - m)
    top = np.lexsort((rows, -deficits.ravel()))[: n - m]
    return (1 + np.bincount(rows[top], minlength=m)).tolist()


def _seeded_params(pieces: list[_ParamPiece], counts: Sequence[int], rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for pc, cnt in zip(pieces, counts):
        jitter = rng.uniform(0.2, 0.8, size=cnt)
        th = pc.lo + pc.span * (np.arange(cnt) + jitter) / cnt
        out.append(np.sort(th))
    return out


SWEEP_GAIN_STOP = 1e-10
_MAX_SWEEPS = 600
# 53 halvings shrink a step by the 2^-53 of double precision
_MAX_HALVINGS = 53
_N_STARTS = 8


# one (starts, points) array per piece: row s of each is start s
_Rows = list[np.ndarray]


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(m, k=1)


def _place(pieces: list[_ParamPiece], params: _Rows) -> tuple[_Rows, np.ndarray]:
    """Positions and energy of every start.  Each start's terms are summed as one
    C-contiguous row: the pairwise order np.sum takes over that start alone."""
    positions = [pc.points(th) for pc, th in zip(pieces, params)]
    E = np.zeros(len(params[0]))
    for pi, (pc, th) in enumerate(zip(pieces, params)):
        if th.shape[1] >= 2:
            i, j = _pairs(th.shape[1])
            E += pc.chord_log(np.take(th, i, axis=1), np.take(th, j, axis=1)).sum(axis=1)
        for z in positions[pi + 1 :]:
            d = np.abs(positions[pi][:, :, None] - z[:, None, :])
            with np.errstate(divide="ignore"):
                E += np.log(d).reshape(len(d), -1).sum(axis=1)
    return positions, E


def _slopes(pieces: list[_ParamPiece], params: _Rows, positions: _Rows) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Gradient and Hessian diagonal of every start's energy in each parameter, per piece."""
    for pi, (pc, th) in enumerate(zip(pieces, params)):
        g, h = pc.chord_slopes(th)
        if len(pieces) > 1:
            dz, ddz = pc.derivatives(th)
            foreign = np.concatenate(positions[:pi] + positions[pi + 1 :], axis=1)
            u_bar = np.conj(positions[pi][:, :, None] - foreign[:, None, :])
            inv = 1.0 / np.abs(u_bar) ** 2
            slope = (dz[:, :, None] * u_bar).real * inv
            g = g + slope.sum(axis=2)
            h = h + ((ddz[:, :, None] * u_bar).real * inv + np.abs(dz)[:, :, None] ** 2 * inv - 2.0 * slope**2).sum(axis=2)
        yield g, h


def _steps(pieces: list[_ParamPiece], params: _Rows, positions: _Rows) -> _Rows:
    """Diagonal-Newton step of every point of every start, clipped to half the
    gap to each neighbour.  So no two points pass each other, and a tie has
    energy -inf and is never accepted: each row stays sorted."""
    steps = []
    for pc, th, (g, h) in zip(pieces, params, _slopes(pieces, params, positions)):
        # Newton where the energy curves down in this coordinate, gradient elsewhere
        step = np.divide(-g, h, out=g.copy(), where=h < 0.0)
        # room[:, k] lies between points k - 1 and k; an end point may reach lo / hi
        room = np.empty((len(th), th.shape[1] + 1))
        room[:, 1:-1] = 0.5 * np.diff(th, axis=1)
        if pc.periodic:
            room[:, 0] = room[:, -1] = 0.5 * (th[:, 0] + 2.0 * math.pi - th[:, -1])
        else:
            room[:, 0], room[:, -1] = th[:, 0] - pc.lo, pc.hi - th[:, -1]
        steps.append(np.clip(step, -room[:, :-1], room[:, 1:]))
    return steps


def _ascend(pieces: list[_ParamPiece], params: _Rows) -> tuple[_Rows, _Rows, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal-Newton sweeps of all live starts at once.  A start halves its step
    until its energy does not fall, else stays put and gains 0; it is frozen once
    a step gains less than SWEEP_GAIN_STOP or after _MAX_SWEEPS sweeps."""
    positions, energy = _place(pieces, params)
    sweeps = np.zeros(len(energy), dtype=int)
    gain = np.full(len(energy), math.inf)
    live = np.arange(len(energy))
    while True:
        live = live[(gain[live] >= SWEEP_GAIN_STOP) & (sweeps[live] < _MAX_SWEEPS)]
        if not len(live):
            return params, positions, energy, sweeps, gain
        old, before = [th[live] for th in params], energy[live]
        steps = _steps(pieces, old, [z[live] for z in positions])
        sweeps[live] += 1
        gain[live] = 0.0
        trying = np.arange(len(live))  # rows of old still halving their step
        for _ in range(_MAX_HALVINGS):
            trial = [th[trying] + d for th, d in zip(old, steps)]
            trial_positions, trial_energy = _place(pieces, trial)
            up = trial_energy >= before[trying]
            rows = live[trying[up]]
            for th, z, t, tz in zip(params, positions, trial, trial_positions):
                th[rows], z[rows] = t[up], tz[up]
            energy[rows] = trial_energy[up]
            gain[rows] = trial_energy[up] - before[trying[up]]
            trying = trying[~up]
            if not len(trying):
                break
            steps = [0.5 * d[~up] for d in steps]


def _max_gradient(pieces: list[_ParamPiece], params: _Rows, positions: _Rows) -> float:
    """Largest |dE/ds| over the points of a one-row configuration; an end point
    resting on lo / hi of a non-periodic piece counts only where it points inward."""
    worst = 0.0
    for pc, th, (g, _) in zip(pieces, params, _slopes(pieces, params, positions)):
        if not pc.periodic:
            g = np.where(th <= pc.lo, np.maximum(g, 0.0), np.where(th >= pc.hi, np.minimum(g, 0.0), g))
        worst = max(worst, float(np.max(np.abs(g))))
    return worst


def _optimize(pieces: list[_ParamPiece], n: int, seed: int) -> FeketeResult:
    counts = _allocate([pc.arclength for pc in pieces], n)

    # on one piece the energy is concave on the ordered cone, so one start
    # reaches its unique optimum; a union may hold local optima
    n_starts = 1 if len(pieces) == 1 else _N_STARTS
    starts = [_seeded_params(pieces, counts, np.random.default_rng((int(seed), s))) for s in range(n_starts)]
    params, positions, energies, sweeps, gains = _ascend(pieces, [np.array(rows) for rows in zip(*starts)])
    k = int(np.argmax(energies))  # the first start of the highest energy
    energy, gain = float(energies[k]), float(gains[k])

    pts = tuple(complex(z) for z in np.concatenate([z[k] for z in positions]))
    pair_count = n * (n - 1) / 2.0
    raw = energy / pair_count
    corrected = (energy - 0.5 * n * math.log(n)) / pair_count
    return FeketeResult(
        n=n,
        energy=energy,
        raw_log_dn=raw,
        corrected_log_dn=corrected,
        points=pts,
        sweeps=int(sweeps[k]),
        n_starts=n_starts,
        converged=gain < SWEEP_GAIN_STOP,
        final_gain=gain,
        max_gradient=_max_gradient(pieces, [th[k : k + 1] for th in params], [z[k : k + 1] for z in positions]),
    )


def fekete_points(cs: SetLike, n: int, seed: int = 0) -> FeketeResult:
    """Best found n-point Fekete configuration (deterministic per seed)."""
    if n < 2:
        raise ValueError("need n >= 2 points")
    cs = _as_set(cs)
    if cs.is_polar:
        raise ValueError("polar set has no Fekete configuration")
    return _optimize(_parameterize(cs), n, seed)


def fekete_log_capacity(cs: SetLike, n: int, seed: int = 0) -> LogCapacity:
    """Transfinite-diameter estimate of log cap from an n-point optimum.

    The plain log d_n estimator carries an O(log n / n) excess; the returned
    value removes the (n/2) log n normalization (exact for circles) and
    Richardson-extrapolates the remaining O(1/n) bias against a half-size
    run when n >= 8, which then needs n // 2 points, one per piece.  The
    raw monotone d_n sequence stays available via fekete_points.
    """
    cs = _as_set(cs)
    if cs.is_polar:
        return LogCapacity(NEG_INF)
    if n < 2:
        raise ValueError("need n >= 2 points")
    pieces = _parameterize(cs)
    if n >= 8 and n // 2 < len(pieces):
        raise ValueError(
            f"the half-size Richardson solve needs n // 2 >= {len(pieces)} points, one per piece: n={n} gives {n // 2}"
        )
    fine = _optimize(pieces, n, seed)
    if n >= 8:
        coarse = _optimize(pieces, n // 2, seed)
        est = 2.0 * fine.corrected_log_dn - coarse.corrected_log_dn
    else:
        est = fine.corrected_log_dn
    return LogCapacity(est)


# ---------------------------------------------------------------------------
# equilibrium measure by midpoint-cell discretization


class EquilibriumError(RuntimeError):
    """Raised when the simplex ascent stalls; carries the best iterate."""

    def __init__(self, message: str, measure: DiscreteMeasure, gap: float):
        super().__init__(message)
        self.measure = measure
        self.gap = gap


def _cells(cs: CompactSet, m: int) -> tuple[np.ndarray, np.ndarray, list[tuple[_ParamPiece, np.ndarray]]]:
    pieces = _parameterize(cs)
    counts = _allocate([pc.arclength for pc in pieces], m)
    mids: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    located: list[tuple[_ParamPiece, np.ndarray]] = []
    for pc, cnt in zip(pieces, counts):
        edges = np.linspace(pc.lo, pc.hi, cnt + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        cell_len = (pc.span / cnt) * (pc.radius if pc.kind == "arc" else 1.0)
        mids.append(mid)
        lengths.append(np.full(cnt, cell_len))
        located.append((pc, mid))
    return np.concatenate(mids), np.concatenate(lengths), located


def _energy_matrix(located: list[tuple[_ParamPiece, np.ndarray]], lengths: np.ndarray) -> np.ndarray:
    blocks: list[np.ndarray] = [pc.points(mid) for pc, mid in located]
    z = np.concatenate(blocks)
    n = len(z)
    with np.errstate(divide="ignore"):
        K = np.log(np.abs(z[:, None] - z[None, :]))
    # same-piece sub-blocks via chord logs (the linear subtraction above is
    # fine across pieces but loses digits for near-coincident same-circle points)
    offset = 0
    for pc, mid in located:
        cnt = len(mid)
        sl = slice(offset, offset + cnt)
        K[sl, sl] = pc.chord_log(mid[:, None], mid[None, :])
        offset += cnt
    # diagonal: self-energy of the uniform measure on one flat cell of length l,
    # which is log(l) - 3/2; this vanishes from the total as m grows
    np.fill_diagonal(K, np.log(lengths) - 1.5)
    return K


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _solve_weights(K: np.ndarray, seed: int) -> tuple[np.ndarray, float]:
    """Maximize w^T K w over the probability simplex.

    The interior stationarity condition is K w = const; when that solve
    lands inside the simplex it is the exact discrete optimum (the log
    kernel makes the form concave there).  Otherwise fall back to projected
    gradient ascent.  Returns the weights and a KKT-gap proxy.
    """
    n = K.shape[0]
    try:
        w = np.linalg.solve(K, np.ones(n))
        s = float(np.sum(w))
        if s != 0.0:
            w = w / s
            if np.all(w >= -1e-12):
                w = np.maximum(w, 0.0)
                return w / np.sum(w), 0.0
    except np.linalg.LinAlgError:
        pass
    rng = np.random.default_rng(seed)
    w = _project_simplex(np.full(n, 1.0 / n) + 1e-3 * rng.uniform(-0.5 / n, 0.5 / n, size=n))
    energy = float(w @ K @ w)
    step = 1.0
    for _ in range(5000):
        grad = 2.0 * K @ w
        cand = _project_simplex(w + step * grad)
        e_cand = float(cand @ K @ cand)
        if e_cand > energy:
            gain = e_cand - energy
            w, energy = cand, e_cand
            step *= 1.3
            if gain < 1e-14 * (1.0 + abs(energy)):
                break
        else:
            step *= 0.5
            if step < 1e-18:
                break
    grad = 2.0 * K @ w
    # at the optimum every coordinate direction scores <= the attained value
    gap = float(np.max(grad) - w @ grad)
    return w, gap


def _equilibrium_once(cs: CompactSet, m: int, seed: int) -> tuple[float, DiscreteMeasure]:
    mids, lengths, located = _cells(cs, m)
    K = _energy_matrix(located, lengths)
    w, gap = _solve_weights(K, seed)
    z = np.concatenate([pc.points(mid) for pc, mid in located])
    energy = float(w @ K @ w)
    measure = DiscreteMeasure(points=tuple(complex(v) for v in z), weights=tuple(float(x) for x in w))
    if gap > 1e-6 * (1.0 + abs(energy)):
        raise EquilibriumError(
            f"simplex ascent stalled with optimality gap {gap:.3e} after the iteration budget",
            measure,
            gap,
        )
    return energy, measure


def equilibrium_energy(cs: SetLike, m: int, seed: int = 0) -> tuple[EnergyValue, DiscreteMeasure]:
    """Discretized equilibrium measure and its logarithmic energy.

    The set is cut into m midpoint cells; cell interactions use midpoint
    log distances and each cell carries its own uniform self-energy on the
    diagonal.  The declared tolerance compares against a half-resolution
    solve, so callers can judge the discretization error without guessing.
    """
    cs = _as_set(cs)
    if cs.is_polar:
        raise ValueError("polar set rejected: no equilibrium measure exists")
    if m < 8:
        raise ValueError("need m >= 8 support candidates")
    energy, measure = _equilibrium_once(cs, m, seed)
    coarse_energy, _ = _equilibrium_once(cs, max(8, m // 2), seed)
    tol = 2.0 * abs(energy - coarse_energy) + 1e-3
    return EnergyValue(value=energy, tolerance=tol), measure

