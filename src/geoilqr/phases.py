"""Phase segmentation and per-timestep references.

Demonstrations are clustered into temporal phases with a GMM over
(normalized time, object-frame position). The time marginal of each
component provides per-frame weights, which drive one fit of all phase
Gaussians per candidate chart and a tangent-space blend of the phase means
into a smooth per-timestep reference with blended covariance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .charts import (CHART_IDS, ChartId, DimensionMismatch, chart_rows,
                     chart_spec)
from .io import SCHEMA_VERSION
from .manifolds import (ManifoldPoint, exp_rows, log_rows, on_spheres,
                        transport_rows)
from .stats import (ManifoldGaussian, chart_winners, fit_phases,
                    floor_eigenvalues)

GMM_MAX_ITER = 200
GMM_TOL = 1e-8
GMM_REG = 1e-8


class DegenerateComponent(RuntimeWarning):
    """A GMM component collapsed: its responsibility mass is below F + 1
    points, too few to span the F feature dimensions."""


@dataclass(frozen=True)
class Demonstration:
    """One demonstrated trajectory of N frames: world-frame positions
    (N x d, d = 2 or 3 as the object frame) and unit orientations (N x 2
    headings in 2D, N x 4 quaternions (w, x, y, z) in 3D)."""
    id: str
    dt: float
    times: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray
    object_frame: object

    def __post_init__(self):
        times = np.asarray(self.times)
        if not (times.ndim == 1 and len(times) >= 2 and times[0] == 0
                and np.all(np.diff(times) > 0) and np.isfinite(times[-1])):
            raise ValueError(f"demo {self.id}: times must be strictly "
                             "increasing from 0, >= 2 frames")
        d = len(self.object_frame.translation)
        P = np.ascontiguousarray(self.positions, dtype=float)
        O = np.ascontiguousarray(self.orientations, dtype=float)
        width = 4 if d == 3 else 2      # quaternions or headings
        if P.shape != (len(times), d) or O.shape != (len(times), width):
            raise DimensionMismatch(
                f"demo {self.id}: positions {P.shape} and orientations "
                f"{O.shape} do not fit {len(times)} frames in {d}D")
        bad = np.flatnonzero(~np.isfinite(P).all(axis=1))
        if bad.size:
            raise ValueError(f"demo {self.id}: position at frame {bad[0]} "
                             "is not finite")
        n = np.sqrt(np.vecdot(O, O))
        bad = np.flatnonzero(~(np.abs(n - 1.0) <= 1e-9))  # NaN fails too
        if bad.size:
            raise ValueError(f"demo {self.id}: orientation norm {n[bad[0]]} "
                             f"at frame {bad[0]} is not 1 within 1e-9")
        object.__setattr__(self, "times", times.astype(int))
        object.__setattr__(self, "positions", P)
        object.__setattr__(self, "orientations", O)

    def __len__(self):
        return len(self.times)

    def phase_variable(self) -> np.ndarray:
        """Normalized time in [0, 1], aligning demos of unequal length."""
        return self.times / max(self.times[-1], 1)


@dataclass
class TimeGmm:
    priors: np.ndarray        # (K,)
    means: np.ndarray         # (K, F), feature 0 is normalized time
    covariances: np.ndarray   # (K, F, F)


def _frame_runs(demos: list[Demonstration]) -> list[tuple]:
    """The demos as runs of consecutive demos that share one object frame
    object (a demos.json has one), in demo order: per run, the frame and the
    run's stacked positions and orientations."""
    runs = []
    for d in demos:
        if not (runs and runs[-1][0] is d.object_frame):
            runs.append((d.object_frame, []))
        runs[-1][1].append(d)
    return [(frame, np.vstack([d.positions for d in run]),
             np.vstack([d.orientations for d in run])) for frame, run in runs]


def _pooled_features(demos: list[Demonstration]) -> np.ndarray:
    """The pooled features, sample-major (F x n): normalized time, then the
    object-frame position of every frame of every demo."""
    s = np.concatenate([d.phase_variable() for d in demos])
    P = np.vstack([frame.to_object(P) for frame, P, _ in _frame_runs(demos)])
    return np.vstack([s, P.T])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, shifted by its largest entry."""
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def _log_gauss(Xc: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Log densities (K x n) of the samples centred at each of K means,
    Xc (K x F x n), under the K Gaussians with covariances (K x F x F)."""
    F = covs.shape[1]
    L = np.linalg.cholesky(covs)
    z = np.linalg.inv(L) @ Xc
    log_det = 2 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (F * np.log(2 * np.pi) + log_det[:, None]
                   + (z * z).sum(axis=1))


def fit_time_gmm(demos: list[Demonstration], K: int) -> TimeGmm:
    """EM over pooled (normalized time, position) with time-quantile init.

    The initialization slices the data into K time bins, so phases come out
    time-ordered; the result is deterministic given the data order.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    X = _pooled_features(demos)                     # F x n, sample-major
    F, n = X.shape
    if n < 10 * K:
        raise ValueError(f"{n} datapoints too few for K={K}")
    order = np.argsort(X[0], kind="stable")
    bins = np.array_split(order, K)
    priors = np.array([len(b) / n for b in bins])
    means = np.array([X[:, b].mean(axis=1) for b in bins])
    covs = np.array([np.cov(X[:, b], bias=True) + GMM_REG * np.eye(F)
                     for b in bins])
    Xc = X - means[:, :, None]
    ll_prev = -np.inf
    for _ in range(GMM_MAX_ITER):
        logp = np.log(priors)[:, None] + _log_gauss(Xc, covs)
        norm = _logsumexp(logp)
        ll = float(norm.sum())
        resp = np.exp(logp - norm)
        nk = resp.sum(axis=1)
        priors = nk / n
        means = (resp @ X.T) / nk[:, None]
        Xc = X - means[:, :, None]
        covs = (resp[:, None] * Xc) @ np.swapaxes(Xc, 1, 2) / nk[:, None, None]
        for k in np.flatnonzero(nk < F + 1):
            warnings.warn(f"component {k} collapsed onto {nk[k]:.3g} "
                          f"points", DegenerateComponent)
        # a flat feature, such as a constant height, is not a collapse
        low = np.linalg.eigvalsh(covs).min(axis=1) < GMM_REG
        covs = covs + np.where(low[:, None, None], GMM_REG * np.eye(F), 0.0)
        if ll - ll_prev < GMM_TOL:
            break
        ll_prev = ll
    return TimeGmm(priors, means, covs)


def phase_weights_at(gmm: TimeGmm, s: np.ndarray) -> np.ndarray:
    """Responsibilities of the time marginals at normalized times s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    logp = np.log(gmm.priors)[:, None] + _log_gauss(
        s - gmm.means[:, :1, None], gmm.covariances[:, :1, :1])
    return np.exp(logp - _logsumexp(logp)).T


def phase_weights(gmm: TimeGmm, T: int) -> np.ndarray:
    """Per-timestep phase weights h_k(t), rows summing to 1."""
    if T < 1:
        raise ValueError("T must be >= 1")
    s = np.arange(T) / max(T - 1, 1)
    return phase_weights_at(gmm, s)


class ChartGaussians(NamedTuple):
    """Gaussians in one chart as rows: the phases' or the timesteps'."""
    means: np.ndarray           # (n, ambient) points on the chart manifold
    covariances: np.ndarray     # (n, d, d) floored tangent covariances
    dets: np.ndarray            # (n,) their determinants


class ChartFit(NamedTuple):
    """One chart's phase fits: the Fréchet means (K x ambient), the raw second
    moments of the residuals at them (K x d x d) and their time covariances."""
    means: np.ndarray
    moments: np.ndarray
    c_vs: np.ndarray


@dataclass
class PhaseModel:
    """The fitted parameters, K rows each: the GMM's time marginals, the mean
    and variance of normalized time under each phase's frame weights (m_s,
    c_ss) and each chart's ChartFit. __post_init__ derives the weights (T x
    K) and each chart's ChartGaussians of the K phases with a winner per
    phase (phase_winners). The T blended references of each chart and their
    winner per timestep (winners) are derived on first use. A winner is the
    chart of the smallest determinant, then the lowest index."""
    charts: list
    horizon: int
    priors: np.ndarray
    time_means: np.ndarray
    time_variances: np.ndarray
    m_s: np.ndarray
    c_ss: np.ndarray
    fits: dict                  # ChartId -> ChartFit

    def __post_init__(self):
        s_grid = np.arange(self.horizon) / max(self.horizon - 1, 1)
        self.weights = phase_weights_at(
            TimeGmm(self.priors, self.time_means[:, None],
                    self.time_variances[:, None, None]), s_grid)
        self.phase_gaussians = {
            c: ChartGaussians(self.fits[c].means,
                              *floor_eigenvalues(self.fits[c].moments))
            for c in self.charts}
        self.phase_winners = chart_winners(self.phase_dets())

    @cached_property
    def references(self) -> dict:
        """ChartId -> ChartGaussians of the T blended references: the phases'
        conditional Gaussians given time, blended in the tangent space at
        the mean of the phase that dominates each timestep."""
        K, m_s, c_ss, H = len(self.priors), self.m_s, self.c_ss, self.weights
        s_grid = np.arange(self.horizon) / max(self.horizon - 1, 1)
        h = np.where(H > 1e-12, H, 0.0)
        anchor = np.argmax(H, axis=1)  # phase whose mean anchors each timestep
        references = {}
        for chart in self.charts:
            spec = chart_spec(chart)
            M, _, c_vs = self.fits[chart]
            slope = c_vs / c_ss[:, None]
            # Conditional mean/covariance of each phase given time; the slope
            # of phase k reaches the mean of phase a by parallel transport,
            # and the mean of phase k is seen from that of phase a by its log.
            Mk, Ma = np.repeat(M, K, axis=0), np.tile(M, (K, 1))  # pair (k, a)
            trend = transport_rows(spec, Mk, Ma, np.repeat(slope, K, axis=0))
            trend = trend.reshape(K, K, -1)[:, anchor]  # (K, T, tangent)
            offset = log_rows(spec, Ma, Mk).reshape(K, K, -1)[:, anchor]
            blend = sum(h[:, k, None] * (offset[k] + trend[k]
                                         * (s_grid - m_s[k])[:, None])
                        for k in range(K))
            C = (self.phase_gaussians[chart].covariances
                 - c_vs[:, :, None] * slope[:, None])
            references[chart] = ChartGaussians(
                exp_rows(spec, M[anchor], blend),
                *floor_eigenvalues(np.tensordot(h, C, 1)))
        return references

    @cached_property
    def winners(self) -> list:
        """The winning chart of each timestep's reference."""
        return chart_winners({c: g.dets for c, g in self.references.items()})

    @property
    def phases(self) -> list:
        """Per phase, ChartId -> ManifoldGaussian, from phase_gaussians."""
        return [{c: ManifoldGaussian(ManifoldPoint(chart_spec(c), g.means[k]),
                                     g.covariances[k], float(g.dets[k]))
                 for c, g in self.phase_gaussians.items()}
                for k in range(len(self.priors))]

    def phase_dets(self) -> dict:
        """ChartId -> per-phase covariance determinants."""
        return {c: g.dets for c, g in self.phase_gaussians.items()}


def build_phase_model(demos: list[Demonstration], gmm: TimeGmm,
                      charts: list[ChartId], horizon: int) -> PhaseModel:
    """Fit each chart's phase Gaussians to the demos, weighted by the time
    marginals of gmm, and regress their residuals on normalized time, so the
    references track motion within a phase, not only the phase mean."""
    s = np.concatenate([d.phase_variable() for d in demos])
    W = phase_weights_at(gmm, s).T                  # (K, n_frames)
    W = W / W.sum(axis=1, keepdims=True)
    m_s = W @ s
    ds = s - m_s[:, None]
    c_ss = np.vecdot(W, ds * ds) + 1e-12

    runs = _frame_runs(demos)
    fits = {}
    for chart in sorted(charts, key=lambda c: c.index):
        X = np.vstack([chart_rows(chart, frame, P, O) for frame, P, O in runs])
        try:
            M, U, S = fit_phases(chart_spec(chart), X, W)
        except Exception as exc:
            raise RuntimeError(f"fit failed for chart {chart}") from exc
        fits[chart] = ChartFit(M, S, (U @ (W * ds)[:, :, None])[..., 0])
    return PhaseModel(list(charts), horizon, gmm.priors, gmm.means[:, 0],
                      gmm.covariances[:, 0, 0], m_s, c_ss, fits)


# --- serialization ----------------------------------------------------------

_K_ROWS = ("priors", "time_means", "time_variances", "m_s", "c_ss")
_POSITIVE = {"priors", "time_variances", "c_ss"}


def phase_model_to_dict(model: PhaseModel) -> dict:
    """The fitted parameters of model; the loader derives the rest from them."""
    return {
        "schema_version": SCHEMA_VERSION,
        "charts": [{"space": c.space, "index": c.index} for c in model.charts],
        "horizon": model.horizon,
        **{name: getattr(model, name).tolist() for name in _K_ROWS},
        "fits": {str(c): {name: a.tolist() for name, a in f._asdict().items()}
                 for c, f in model.fits.items()},
    }


def _field(name: str, value, shape: tuple, positive=False) -> np.ndarray:
    """value as a finite float array of shape, else ValueError naming it."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"model {name} is not an array of numbers") from None
    if a.shape != shape:
        raise ValueError(f"model {name} has shape {a.shape}, not {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"model {name} is not finite")
    if positive and not (a > 0).all():
        raise ValueError(f"model {name} must be > 0")
    return a


def phase_model_from_dict(d: dict, horizon: int | None = None) -> PhaseModel:
    """The PhaseModel of a model.json dict; ValueError names the first field
    missing, not finite, out of range, of another shape or schema_version,
    and, given horizon, a model horizon other than it, before the model
    derives anything. The references are derived here too, so that a model
    whose references cannot be derived (AntipodalPoint) fails at load."""
    try:
        model = _phase_model(d, horizon)
    except KeyError as exc:
        raise ValueError(f"model field {exc.args[0]!r} is missing") from None
    model.references
    return model


def _phase_model(d: dict, task_horizon: int | None) -> PhaseModel:
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"model schema_version must be {SCHEMA_VERSION}")
    try:
        charts = [CHART_IDS[ChartId(c["space"], c["index"])]
                  for c in d["charts"]]
    except (TypeError, ValueError):
        raise ValueError("model charts is not a list of {space, index} "
                         "charts") from None
    by_name = {str(c): c for c in charts}
    if len(by_name) != len(charts) or not charts:
        raise ValueError(f"model charts {[str(c) for c in charts]} must name "
                         "at least one chart, each once")
    horizon = d["horizon"]
    if type(horizon) is not int or horizon < 2:
        raise ValueError(f"model horizon {horizon!r} is not an integer >= 2")
    if task_horizon is not None and horizon != task_horizon:
        raise ValueError(f"model horizon {horizon} differs from the task "
                         f"horizon {task_horizon}")
    if not (isinstance(d["priors"], list) and d["priors"]):
        raise ValueError("model priors is not a non-empty list")
    K = len(d["priors"])
    rows = {name: _field(name, d[name], (K,), name in _POSITIVE)
            for name in _K_ROWS}
    if set(d["fits"]) != set(by_name):
        raise ValueError(f"model fits names charts {sorted(d['fits'])}, "
                         f"not the model charts {sorted(by_name)}")
    fits = {}
    for name, chart in by_name.items():
        spec = chart_spec(chart)
        n, k = spec.ambient_dim, spec.tangent_dim
        fits[chart] = ChartFit(*(
            _field(f"fits {name} {key}", d["fits"][name][key], shape)
            for key, shape in zip(ChartFit._fields,
                                  ((K, n), (K, k, k), (K, k)))))
        if not on_spheres(spec, fits[chart].means):
            raise ValueError(f"model fits {name} means has a sphere block "
                             "whose norm is not 1 within 1e-9")
    return PhaseModel(charts, horizon, **rows, fits=fits)
