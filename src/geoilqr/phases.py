"""Phase segmentation and per-timestep references.

Demonstrations are clustered into temporal phases with a GMM over
(normalized time, object-frame position). The time marginal of each
component provides per-timestep weights, which drive weighted Gaussian fits
in every candidate chart and a tangent-space blend of the phase means into a
smooth per-timestep reference with blended precision.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .charts import ChartId, chart_spec, to_chart
from .manifolds import (ManifoldPoint, TangentVector, exp_rows, log_map_batch,
                        log_rows, parallel_transport)
from .stats import (ManifoldGaussian, WeightedSample, fit_gaussian,
                    quat_sign_align, select_winner)

GMM_MAX_ITER = 200
GMM_TOL = 1e-8
GMM_REG = 1e-8


class DegenerateComponent(RuntimeWarning):
    """A GMM covariance collapsed and was re-regularized."""


@dataclass(frozen=True)
class Demonstration:
    id: str
    dt: float
    times: np.ndarray
    poses: list                      # CartesianPose per frame, world frame
    object_frame: object

    def __post_init__(self):
        times = np.asarray(self.times, dtype=int)
        if len(times) < 2 or times[0] != 0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing from 0, >= 2 frames")
        if len(self.poses) != len(times):
            raise ValueError("times and poses length mismatch")
        object.__setattr__(self, "times", times)

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
        np.column_stack([d.phase_variable(), d.object_frame.to_object(
            np.array([p.position for p in d.poses]))])
        for d in demos])


def _log_gauss(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    F = len(mean)
    L = np.linalg.cholesky(cov)
    z = np.linalg.solve(L, (X - mean).T)
    return -0.5 * (F * np.log(2 * np.pi) + 2 * np.log(np.diag(L)).sum()
                   + (z * z).sum(axis=0))


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
        logp = np.stack([np.log(priors[k]) + _log_gauss(X, means[k], covs[k])
                         for k in range(K)])
        norm = logsumexp(logp, axis=0)
        ll = float(norm.sum())
        resp = np.exp(logp - norm)
        nk = resp.sum(axis=1)
        priors = nk / n
        means = (resp @ X) / nk[:, None]
        for k in range(K):
            Xc = X - means[k]
            cov = (resp[k][:, None] * Xc).T @ Xc / nk[k]
            if np.linalg.eigvalsh(cov).min() < GMM_REG:
                warnings.warn(f"component {k} covariance collapsed",
                              DegenerateComponent)
                cov = cov + GMM_REG * np.eye(F)
            covs[k] = cov
        if ll - ll_prev < GMM_TOL:
            break
        ll_prev = ll
    return TimeGmm(priors, means, covs)


def phase_weights_at(gmm: TimeGmm, s: np.ndarray) -> np.ndarray:
    """Responsibilities of the time marginals at normalized times s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    K = gmm.n_components
    logp = np.stack([
        np.log(gmm.priors[k])
        - 0.5 * (np.log(2 * np.pi * gmm.covariances[k, 0, 0])
                 + (s - gmm.means[k, 0]) ** 2 / gmm.covariances[k, 0, 0])
        for k in range(K)])
    return np.exp(logp - logsumexp(logp, axis=0)).T


def phase_weights(gmm: TimeGmm, T: int) -> np.ndarray:
    """Per-timestep phase weights h_k(t), rows summing to 1."""
    if T < 1:
        raise ValueError("T must be >= 1")
    s = np.arange(T) / max(T - 1, 1)
    return phase_weights_at(gmm, s)


@dataclass
class ChartReferences:
    """Per-timestep blended references in one chart."""
    means: list                 # ManifoldPoint per timestep
    covariances: np.ndarray     # (T, d, d)
    precisions: np.ndarray      # (T, d, d)
    dets: np.ndarray            # (T,)


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
                      charts: list[ChartId], horizon: int | None = None,
                      eig_floor: float = None) -> PhaseModel:
    """Fit per-phase per-chart Gaussians and blend them into per-timestep
    references with Eq.-style winner selection by covariance determinant."""
    from .stats import EIGVAL_FLOOR
    floor = EIGVAL_FLOOR if eig_floor is None else eig_floor
    K = gmm.n_components
    T = horizon if horizon is not None else max(len(d) for d in demos)
    H = phase_weights(gmm, T)

    frame_s = np.concatenate([d.phase_variable() for d in demos])
    frame_h = phase_weights_at(gmm, frame_s)     # (n_frames, K)

    phases = [dict() for _ in range(K)]
    trends = [dict() for _ in range(K)]   # (k, chart) -> time regression
    for chart in charts:
        spec = chart_spec(chart)
        points = [to_chart(pose, chart, demo.object_frame).point()
                  for demo in demos for pose in demo.poses]
        X = np.array([p.coords for p in points])
        for k in range(K):
            samples = [WeightedSample(p, w)
                       for p, w in zip(points, frame_h[:, k])]
            try:
                g = fit_gaussian(samples, spec, floor=floor)
            except Exception as exc:
                raise RuntimeError(
                    f"fit failed for phase {k}, chart {chart}") from exc
            phases[k][chart] = g
            # Linear regression of the tangent residual on normalized time,
            # so per-timestep references track motion within a phase instead
            # of collapsing to the phase mean.
            w = frame_h[:, k]
            W = w.sum()
            V = log_map_batch(g.mean, quat_sign_align(spec, X, g.mean.coords))
            m_s = float(w @ frame_s) / W
            c_ss = float(w @ (frame_s - m_s) ** 2) / W + 1e-12
            c_vs = (w * (frame_s - m_s)) @ V / W
            trends[k][chart] = (m_s, c_ss, c_vs)

    s_grid = np.arange(T) / max(T - 1, 1)
    anchor = np.argmax(H, axis=1)  # phase whose mean anchors each timestep
    references = {}
    for chart in charts:
        spec = chart_spec(chart)
        gs = [phases[k][chart] for k in range(K)]
        A = np.array([g.mean.coords for g in gs])[anchor]
        blend, cov = 0.0, 0.0
        for k, g in enumerate(gs):
            h = np.where(H[:, k] > 1e-12, H[:, k], 0.0)
            m_s, c_ss, c_vs = trends[k][chart]
            # Conditional mean/covariance of the phase Gaussian given time;
            # the trend reaches each anchor by parallel transport.
            trend = np.array([parallel_transport(
                g.mean, a.mean, TangentVector(g.mean, c_vs / c_ss)).coords
                for a in gs])[anchor]
            blend = blend + h[:, None] * (log_rows(spec, A, g.mean.coords[None])
                                          + trend * (s_grid - m_s)[:, None])
            cov = cov + h[:, None, None] * (g.covariance
                                            - np.outer(c_vs, c_vs) / c_ss)
        vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, 1, 2)))
        covs = (vecs * np.maximum(vals, floor)[:, None]) @ np.swapaxes(vecs, 1, 2)
        means = [ManifoldPoint(spec, x) for x in exp_rows(spec, A, blend)]
        references[chart] = ChartReferences(means, covs, np.linalg.inv(covs),
                                            np.linalg.det(covs))

    winners = []
    for t in range(T):
        winners.append(select_winner(
            {c: references[c].dets[t] for c in charts}))
    return PhaseModel(list(charts), phases, H, references, winners)


# --- serialization ----------------------------------------------------------

def phase_model_to_dict(model: PhaseModel) -> dict:
    def cid(c):
        return {"space": c.space, "index": c.index}

    return {
        "schema_version": 1,
        "charts": [cid(c) for c in model.charts],
        "weights": model.weights.tolist(),
        "phases": [
            {str(c): {"mean": g.mean.coords.tolist(),
                      "covariance": g.covariance.tolist()}
             for c, g in phase.items()}
            for phase in model.phases
        ],
        "references": {
            str(c): {"means": [m.coords.tolist() for m in r.means],
                     "covariances": r.covariances.tolist()}
            for c, r in model.references.items()
        },
        "winners": [cid(c) for c in model.winners],
    }


def phase_model_from_dict(d: dict) -> PhaseModel:
    charts = [ChartId(c["space"], c["index"]) for c in d["charts"]]
    by_name = {str(c): c for c in charts}
    weights = np.array(d["weights"])
    phases = []
    for phase in d["phases"]:
        entry = {}
        for name, g in phase.items():
            chart = by_name[name]
            mean = ManifoldPoint(chart_spec(chart), np.array(g["mean"]))
            entry[chart] = ManifoldGaussian.from_moments(
                mean, np.array(g["covariance"]))
        phases.append(entry)
    references = {}
    for name, r in d["references"].items():
        chart = by_name[name]
        spec = chart_spec(chart)
        means = [ManifoldPoint(spec, np.array(m)) for m in r["means"]]
        covs = np.array(r["covariances"])
        references[chart] = ChartReferences(means, covs, np.linalg.inv(covs),
                                            np.linalg.det(covs))
    winners = [ChartId(c["space"], c["index"]) for c in d["winners"]]
    return PhaseModel(charts, phases, weights, references, winners)
