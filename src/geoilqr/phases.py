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

import numpy as np

from .charts import (CHART_IDS, ChartId, DimensionMismatch, chart_rows,
                     chart_spec)
from .io import SCHEMA_VERSION
from .manifolds import ManifoldPoint, exp_rows, log_rows, transport_rows
from .stats import EIGVAL_FLOOR, ManifoldGaussian, fit_phases

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

    @property
    def n_components(self) -> int:
        return len(self.priors)


def _pooled_features(demos: list[Demonstration]) -> np.ndarray:
    return np.vstack([
        np.column_stack([d.phase_variable(),
                         d.object_frame.to_object(d.positions)])
        for d in demos])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, shifted by its largest entry."""
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def _log_gauss(X: np.ndarray, means: np.ndarray,
               covs: np.ndarray) -> np.ndarray:
    """Log densities (K x n) of the rows of X (n x F) under the K Gaussians
    with means (K x F) and covariances (K x F x F)."""
    F = means.shape[1]
    L = np.linalg.cholesky(covs)
    z = np.linalg.solve(L, np.swapaxes(X - means[:, None], 1, 2))
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
    X = _pooled_features(demos)
    n, F = X.shape
    if n < 10 * K:
        raise ValueError(f"{n} datapoints too few for K={K}")
    order = np.argsort(X[:, 0], kind="stable")
    bins = np.array_split(order, K)
    priors = np.array([len(b) / n for b in bins])
    means = np.array([X[b].mean(axis=0) for b in bins])
    covs = np.array([np.cov(X[b].T, bias=True) + GMM_REG * np.eye(F)
                     for b in bins])
    ll_prev = -np.inf
    for _ in range(GMM_MAX_ITER):
        logp = np.log(priors)[:, None] + _log_gauss(X, means, covs)
        norm = _logsumexp(logp)
        ll = float(norm.sum())
        resp = np.exp(logp - norm)
        nk = resp.sum(axis=1)
        priors = nk / n
        means = (resp @ X) / nk[:, None]
        Xc = X - means[:, None]
        covs = (np.swapaxes(resp[:, :, None] * Xc, 1, 2) @ Xc
                / nk[:, None, None])
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
        s[:, None], gmm.means[:, :1], gmm.covariances[:, :1, :1])
    return np.exp(logp - _logsumexp(logp)).T


def phase_weights(gmm: TimeGmm, T: int) -> np.ndarray:
    """Per-timestep phase weights h_k(t), rows summing to 1."""
    if T < 1:
        raise ValueError("T must be >= 1")
    s = np.arange(T) / max(T - 1, 1)
    return phase_weights_at(gmm, s)


@dataclass
class ChartReferences:
    """Per-timestep blended references in one chart."""
    means: np.ndarray           # (T, ambient) points on the chart manifold
    covariances: np.ndarray     # (T, d, d) tangent covariances at the means


@dataclass
class PhaseModel:
    charts: list
    phases: list                # per phase: dict ChartId -> ManifoldGaussian
    weights: np.ndarray         # (T, K)
    references: dict            # ChartId -> ChartReferences
    winners: list               # ChartId per timestep

    @property
    def horizon(self) -> int:
        return self.weights.shape[0]

    def phase_dets(self) -> dict:
        """ChartId -> per-phase covariance determinants."""
        return {c: np.array([p[c].det for p in self.phases])
                for c in self.charts}


def build_phase_model(demos: list[Demonstration], gmm: TimeGmm,
                      charts: list[ChartId], horizon: int) -> PhaseModel:
    """Fit per-phase per-chart Gaussians and blend them into per-timestep
    references; each timestep's winner is the chart whose blended covariance
    has the smallest determinant, ties going to the lowest chart index."""
    K = gmm.n_components
    H = phase_weights(gmm, horizon)
    h = np.where(H > 1e-12, H, 0.0)
    s_grid = np.arange(horizon) / max(horizon - 1, 1)
    anchor = np.argmax(H, axis=1)  # phase whose mean anchors each timestep

    s = np.concatenate([d.phase_variable() for d in demos])
    W = phase_weights_at(gmm, s).T                  # (K, n_frames)
    W = W / W.sum(axis=1, keepdims=True)
    # Linear regression of the tangent residuals on normalized time, so
    # per-timestep references track motion within a phase instead of
    # collapsing to the phase mean.
    m_s = W @ s
    ds = s - m_s[:, None]
    c_ss = np.vecdot(W, ds * ds) + 1e-12

    fits, references, dets = {}, {}, []
    by_index = sorted(charts, key=lambda c: c.index)
    for chart in by_index:
        spec = chart_spec(chart)
        X = np.vstack([chart_rows(chart, d.object_frame, d.positions,
                                  d.orientations) for d in demos])
        try:
            M, U, S = fit_phases(spec, X, W)
            gs = fits[chart] = [ManifoldGaussian.from_moments(
                ManifoldPoint(spec, m), c) for m, c in zip(M, S)]
        except Exception as exc:
            raise RuntimeError(f"fit failed for chart {chart}") from exc
        c_vs = ((W * ds)[:, None] @ U)[:, 0]        # (K, tangent)
        slope = c_vs / c_ss[:, None]
        # Conditional mean/covariance of each phase Gaussian given time; the
        # slope of phase k reaches the mean of phase a by parallel transport.
        trend = transport_rows(spec, np.repeat(M, K, axis=0), np.tile(M, (K, 1)),
                               np.repeat(slope, K, axis=0))
        trend = trend.reshape(K, K, -1)[:, anchor]  # (K, T, tangent)
        A = M[anchor]
        blend = sum(h[:, k, None] * (log_rows(spec, A, M[k:k + 1])
                                     + trend[k] * (s_grid - m_s[k])[:, None])
                    for k in range(K))
        C = [g.covariance for g in gs] - c_vs[:, :, None] * slope[:, None]
        cov = np.tensordot(h, C, 1)
        vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, 1, 2)))
        vals = np.maximum(vals, EIGVAL_FLOOR)
        covs = (vecs * vals[:, None]) @ np.swapaxes(vecs, 1, 2)
        references[chart] = ChartReferences(exp_rows(spec, A, blend), covs)
        dets.append(np.prod(vals, axis=1))

    phases = [{c: fits[c][k] for c in charts} for k in range(K)]
    winners = [by_index[i] for i in np.argmin(dets, axis=0)]
    return PhaseModel(list(charts), phases, H, references, winners)


# --- serialization ----------------------------------------------------------

def phase_model_to_dict(model: PhaseModel) -> dict:
    def cid(c):
        return {"space": c.space, "index": c.index}

    return {
        "schema_version": SCHEMA_VERSION,
        "charts": [cid(c) for c in model.charts],
        "weights": model.weights.tolist(),
        "phases": [
            {str(c): {"mean": g.mean.coords.tolist(),
                      "covariance": g.covariance.tolist()}
             for c, g in phase.items()}
            for phase in model.phases
        ],
        "references": {
            str(c): {"means": r.means.tolist(),
                     "covariances": r.covariances.tolist()}
            for c, r in model.references.items()
        },
        "winners": [cid(c) for c in model.winners],
    }


def _field(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape, else ValueError naming the
    model field."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"model {name} is not an array of numbers") from None
    if a.shape != shape:
        raise ValueError(f"model {name} has shape {a.shape}, not {shape}")
    return a


def phase_model_from_dict(d: dict) -> PhaseModel:
    """The PhaseModel of a model.json dict; ValueError names the first field
    that is missing or of another schema_version, or whose rows do not match
    the rows of weights, the model's charts or the chart's widths."""
    try:
        return _phase_model(d)
    except KeyError as exc:
        raise ValueError(f"model field {exc.args[0]!r} is missing") from None


def _phase_model(d: dict) -> PhaseModel:
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"model schema_version must be {SCHEMA_VERSION}")
    charts = [CHART_IDS[ChartId(c["space"], c["index"])] for c in d["charts"]]
    by_name = {str(c): c for c in charts}
    T = len(d["weights"])
    weights = _field("weights", d["weights"], (T, len(d["phases"])))

    def per_chart(where: str, entry: dict, mean: str, cov: str, rows=()):
        """chart -> (means, covariances) of an entry naming every chart."""
        if set(entry) != set(by_name):
            raise ValueError(f"model {where} names charts {sorted(entry)}, "
                             f"not the model charts {sorted(by_name)}")
        out = {}
        for name, g in entry.items():
            spec = chart_spec(by_name[name])
            n, k = spec.ambient_dim, spec.tangent_dim
            out[by_name[name]] = (
                _field(f"{where} {name} {mean}", g[mean], (*rows, n)),
                _field(f"{where} {name} {cov}", g[cov], (*rows, k, k)))
        return out

    phases = []
    for i, phase in enumerate(d["phases"]):
        fits = per_chart(f"phase {i}", phase, "mean", "covariance")
        phases.append({c: ManifoldGaussian.from_moments(
            ManifoldPoint(chart_spec(c), m), S) for c, (m, S) in fits.items()})
    references = {c: ChartReferences(*arrays) for c, arrays in per_chart(
        "references", d["references"], "means", "covariances", (T,)).items()}
    winners = [CHART_IDS[ChartId(c["space"], c["index"])] for c in d["winners"]]
    if len(winners) != T or not set(winners) <= set(references):
        raise ValueError(f"model winners must name a chart with references "
                         f"at each of the {T} rows of weights")
    return PhaseModel(charts, phases, weights, references, winners)
