"""Manifold primitives: log/exp maps, transport, distances, Jacobians."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geoilqr.charts import CARTESIAN_2D, POLAR_2D, chart_spec, charts_for
from geoilqr.manifolds import (AntipodalPoint, Euclidean, ManifoldPoint,
                               Product, Sphere, SpecMismatch, TangentVector,
                               exp_map, exp_rows, geodesic_distance, leaves,
                               log_jacobian_rows, log_map, log_map_batch,
                               log_map_jacobian, log_rows, parallel_transport,
                               random_point, random_tangent, sphere_basis,
                               transport_rows)

RNG = np.random.default_rng(0)

SPECS = [
    Euclidean(1), Euclidean(3),
    Sphere(1), Sphere(2), Sphere(3),
    Product((Sphere(1), Euclidean(1))),
    Product((Euclidean(2), Sphere(1))),
    Product((Sphere(2), Euclidean(1), Sphere(3))),
]


def test_dimensions():
    assert Euclidean(4).ambient_dim == 4 and Euclidean(4).tangent_dim == 4
    assert Sphere(2).ambient_dim == 3 and Sphere(2).tangent_dim == 2
    p = Product((Sphere(1), Euclidean(2)))
    assert p.ambient_dim == 4 and p.tangent_dim == 3


def test_leaves_slices():
    spec = Product((Sphere(2), Euclidean(1), Sphere(3)))
    ls = leaves(spec)
    assert [l[1] for l in ls] == [slice(0, 3), slice(3, 4), slice(4, 8)]
    assert [l[2] for l in ls] == [slice(0, 2), slice(2, 3), slice(3, 6)]


def test_point_validation():
    with pytest.raises(ValueError):
        ManifoldPoint(Sphere(1), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="norm nan"):
        ManifoldPoint(Sphere(1), np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        ManifoldPoint(Euclidean(2), np.zeros(3))


def test_sphere_basis_orthonormal_and_tangent():
    for d in (1, 2, 3):
        p = random_point(Sphere(d), RNG).coords
        B = sphere_basis(p)
        assert np.allclose(B.T @ B, np.eye(d), atol=1e-12)
        assert np.allclose(B.T @ p, 0.0, atol=1e-12)


def test_log_map_identity_is_zero():
    for spec in SPECS:
        mu = random_point(spec, RNG)
        assert np.allclose(log_map(mu, mu).coords, 0.0, atol=1e-12)


def test_log_map_euclidean_is_subtraction():
    mu = ManifoldPoint(Euclidean(2), np.array([1.0, 2.0]))
    x = ManifoldPoint(Euclidean(2), np.array([4.0, 6.0]))
    assert np.allclose(log_map(mu, x).coords, [3.0, 4.0])


def test_log_map_circle_quarter_turn():
    mu = ManifoldPoint(Sphere(1), np.array([1.0, 0.0]))
    x = ManifoldPoint(Sphere(1), np.array([0.0, 1.0]))
    v = log_map(mu, x)
    assert np.isclose(np.linalg.norm(v.coords), np.pi / 2)
    # the ambient direction of the step is +y at mu
    B = sphere_basis(mu.coords)
    ambient = B @ v.coords
    assert np.allclose(ambient / np.linalg.norm(ambient), [0.0, 1.0],
                       atol=1e-12)


def test_exp_map_zero_and_euclidean():
    for spec in SPECS:
        mu = random_point(spec, RNG)
        out = exp_map(mu, TangentVector(mu, np.zeros(spec.tangent_dim)))
        assert np.allclose(out.coords, mu.coords, atol=1e-12)
    mu = ManifoldPoint(Euclidean(3), np.zeros(3))
    out = exp_map(mu, TangentVector(mu, np.ones(3)))
    assert np.allclose(out.coords, 1.0)


def test_exp_inverts_log_quarter_turn():
    mu = ManifoldPoint(Sphere(1), np.array([1.0, 0.0]))
    x = ManifoldPoint(Sphere(1), np.array([0.0, 1.0]))
    back = exp_map(mu, log_map(mu, x))
    assert np.allclose(back.coords, x.coords, atol=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_round_trip_random(spec):
    for _ in range(50):
        mu = random_point(spec, RNG)
        v = random_tangent(mu, RNG, scale=0.7)
        w = log_map(mu, exp_map(mu, v))
        assert np.allclose(w.coords, v.coords, atol=1e-8)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_log_map_batch_matches_single(spec):
    # row kernels with a different base point on each row agree with the
    # single-point maps, and log_map_batch with its shared base point
    mus = [random_point(spec, RNG) for _ in range(20)]
    xs = [exp_map(mu, random_tangent(mu, RNG, scale=0.7)) for mu in mus]
    vs = [random_tangent(mu, RNG, scale=0.7) for mu in mus]
    P = np.array([mu.coords for mu in mus])
    X = np.array([x.coords for x in xs])
    logs = log_rows(spec, P, X)
    exps = exp_rows(spec, P, np.array([v.coords for v in vs]))
    jacs = log_jacobian_rows(spec, P, X)
    batch = log_map_batch(mus[0], X)
    for i, (mu, x, v) in enumerate(zip(mus, xs, vs)):
        assert np.allclose(logs[i], log_map(mu, x).coords, atol=1e-12)
        assert np.allclose(exps[i], exp_map(mu, v).coords, atol=1e-12)
        assert np.allclose(jacs[i], log_map_jacobian(mu, x), atol=1e-12)
        assert np.allclose(batch[i], log_map(mus[0], x).coords, atol=1e-12)


def test_transport_identity_cases():
    for spec in SPECS:
        mu = random_point(spec, RNG)
        v = random_tangent(mu, RNG)
        same = parallel_transport(mu, mu, v)
        assert np.allclose(same.coords, v.coords, atol=1e-12)
    spec = Euclidean(3)
    a, b = random_point(spec, RNG), random_point(spec, RNG)
    v = random_tangent(a, RNG)
    assert np.allclose(parallel_transport(a, b, v).coords, v.coords)


def test_transport_quarter_circle_round_trip():
    spec = Sphere(2)
    a = ManifoldPoint(spec, np.array([1.0, 0.0, 0.0]))
    b = ManifoldPoint(spec, np.array([0.0, 1.0, 0.0]))
    v = random_tangent(a, RNG)
    w = random_tangent(a, RNG)
    tv = parallel_transport(a, b, v)
    tw = parallel_transport(a, b, w)
    # inner products preserved, and transporting back recovers the vector
    assert np.isclose(tv.coords @ tw.coords, v.coords @ w.coords, atol=1e-9)
    back = parallel_transport(b, a, tv)
    assert np.allclose(back.coords, v.coords, atol=1e-9)


def test_transport_isometry_random():
    for spec in SPECS:
        a, b = random_point(spec, RNG), random_point(spec, RNG)
        v = random_tangent(a, RNG)
        t = parallel_transport(a, b, v)
        assert np.isclose(np.linalg.norm(t.coords), np.linalg.norm(v.coords),
                          atol=1e-9)


def test_distance_basics():
    for spec in SPECS:
        a = random_point(spec, RNG)
        assert geodesic_distance(a, a) == 0.0
    a = ManifoldPoint(Euclidean(2), np.zeros(2))
    b = ManifoldPoint(Euclidean(2), np.array([3.0, 4.0]))
    assert np.isclose(geodesic_distance(a, b), 5.0)


def test_distance_near_antipode_arc_length():
    # geodesic distance 0.1 rad short of the antipode, checked against a
    # dense polyline along the great circle
    mu = ManifoldPoint(Sphere(1), np.array([1.0, 0.0]))
    ang = np.pi - 0.1
    x = ManifoldPoint(Sphere(1), np.array([np.cos(ang), np.sin(ang)]))
    d = geodesic_distance(mu, x)
    assert np.isclose(d, np.pi - 0.1, atol=1e-6)
    ts = np.linspace(0.0, ang, 20001)
    poly = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    arc = np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1))
    assert np.isclose(d, arc, atol=1e-6)


def test_antipodal_rejected():
    mu = ManifoldPoint(Sphere(1), np.array([1.0, 0.0]))
    x = ManifoldPoint(Sphere(1), np.array([-1.0, 0.0]))
    with pytest.raises(AntipodalPoint):
        log_map(mu, x)


def test_spec_mismatch_rejected():
    a = random_point(Euclidean(2), RNG)
    b = random_point(Sphere(1), RNG)
    with pytest.raises(SpecMismatch):
        log_map(a, b)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_log_map_jacobian_finite_differences(spec):
    h = 1e-6
    for _ in range(5):
        mu = random_point(spec, RNG)
        x = exp_map(mu, random_tangent(mu, RNG, scale=0.5))
        J = log_map_jacobian(mu, x)
        num = np.zeros_like(J)
        for j in range(spec.tangent_dim):
            e = np.zeros(spec.tangent_dim)
            e[j] = h
            xp = exp_map(x, TangentVector(x, e))
            xm = exp_map(x, TangentVector(x, -e))
            num[:, j] = (log_map(mu, xp).coords
                         - log_map(mu, xm).coords) / (2 * h)
        assert np.allclose(J, num, atol=1e-5), (spec, np.abs(J - num).max())


S1_SPECS = {"sphere": Sphere(1), "cartesian": chart_spec(CARTESIAN_2D),
            "polar": chart_spec(POLAR_2D)}


@st.composite
def _s1_cases(draw):
    """Spec name, an angle for each S1 factor of p, the angle from it to the
    factor of x (at least 1e-4 short of the antipode) and Euclidean parts."""
    angle = st.floats(-np.pi, np.pi)
    offset = st.floats(-np.pi + 1e-4, np.pi - 1e-4)
    euclid = st.floats(-2.0, 2.0)
    return (draw(st.sampled_from(sorted(S1_SPECS))),
            draw(st.tuples(angle, angle)), draw(st.tuples(offset, offset)),
            draw(st.tuples(euclid, euclid, euclid)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_s1_cases())
@example(("sphere", (0.0, 0.0), (1.0, 0.0), (0.0, 0.0, 0.0)))    # p = e1
@example(("polar", (np.pi, 0.0), (-1.0, np.pi - 1e-4), (0.5, 0.0, 0.0)))
@example(("cartesian", (0.0, 0.0), (np.pi - 1e-4, 0.0), (1.0, -1.0, 0.0)))
@example(("polar", (np.pi / 2, 0.3), (-np.pi / 2, -0.3), (1.0, 0.0, 0.0)))
def test_s1_log_differential_matches_central_differences(case):
    # x = e1 (the last example, both factors) and p = e1 are where the
    # Householder basis changes orientation; x sits 1e-4 from the antipode
    name, p_angles, offsets, euclid = case
    spec = S1_SPECS[name]
    p, x, k, e = [], [], 0, 0
    for leaf, _, _ in leaves(spec):
        if isinstance(leaf, Sphere):
            a, b = p_angles[k], p_angles[k] + offsets[k]
            p += [np.cos(a), np.sin(a)]
            x += [np.cos(b), np.sin(b)]
            k += 1
        else:
            p += list(euclid[e:e + leaf.dim])
            x += [v + 0.3 for v in euclid[e:e + leaf.dim]]
            e += leaf.dim
    P, X = np.array([p]), np.array([x])
    h, d = 1e-6, spec.tangent_dim
    steps = h * np.eye(d)
    num = (log_rows(spec, P, exp_rows(spec, X, steps))
           - log_rows(spec, P, exp_rows(spec, X, -steps))).T / (2 * h)
    assert np.abs(log_jacobian_rows(spec, P, X)[0] - num).max() < 1e-8


CHART_SPECS = {str(c): chart_spec(c) for c in charts_for("2d") + charts_for("3d")}


def _unit_blocks(spec, values) -> np.ndarray:
    """The first ambient_dim values, each sphere block scaled to unit norm;
    None if a block is too short to scale."""
    x = np.array(values[:spec.ambient_dim], dtype=float)
    for leaf, asl, _ in leaves(spec):
        n = np.linalg.norm(x[asl])
        if isinstance(leaf, Sphere):
            if n < 1e-3:
                return None
            x[asl] /= n
    return x


@st.composite
def _transport_cases(draw):
    """Chart spec name, the raw coordinates of p and x (8 each, enough for
    every chart) and two tangents (7 each)."""
    coord = st.floats(-2.0, 2.0)
    return (draw(st.sampled_from(sorted(CHART_SPECS))),
            draw(st.tuples(*[coord] * 8)), draw(st.tuples(*[coord] * 8)),
            draw(st.tuples(*[coord] * 7)), draw(st.tuples(*[coord] * 7)))


E1 = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
V1 = (0.3, -1.0, 0.5, 2.0, 0.0, -0.7, 1.1)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_transport_cases())
@example(("polar-2d", E1, E1, V1, V1[::-1]))                      # p = x = e1
@example(("spherical-3d", E1, (0, 1, 0, 0.5, 1, 0, 0, 0), V1, V1[::-1]))
@example(("cylindrical-3d", (0, 1, 0, 0, 0, 0, 1, 0), E1, V1, V1[::-1]))
@example(("spherical-3d", (1, 0, 0, 0, 1, 0, 0, 0),
          (-1, 0.1, 0, 0, -1, 0.1, 0, 0), V1, V1[::-1]))  # near antipodes
def test_transport_rows_is_an_isometry_with_an_inverse(case):
    name, p, x, v, w = case
    spec = CHART_SPECS[name]
    P, X = _unit_blocks(spec, p), _unit_blocks(spec, x)
    assume(P is not None and X is not None)
    for leaf, asl, _ in leaves(spec):
        assume(isinstance(leaf, Euclidean) or P[asl] @ X[asl] > -1.0 + 1e-3)
    V = np.array([v[:spec.tangent_dim], w[:spec.tangent_dim]])
    T = transport_rows(spec, P[None], X[None], V)
    # inner products are kept, and transporting back returns the tangents
    np.testing.assert_allclose(T @ T.T, V @ V.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(transport_rows(spec, X[None], P[None], T), V,
                               rtol=0, atol=1e-9)
    # the geodesic's velocity at p arrives as its velocity at x
    np.testing.assert_allclose(
        transport_rows(spec, P[None], X[None], log_rows(spec, P[None], X[None])),
        -log_rows(spec, X[None], P[None]), rtol=0, atol=1e-9)
    a, b = ManifoldPoint(spec, P), ManifoldPoint(spec, X)
    for i in range(2):
        np.testing.assert_allclose(
            parallel_transport(a, b, TangentVector(a, V[i])).coords, T[i],
            rtol=0, atol=1e-12)


SPHERE_SPECS = {"sphere-2": Sphere(2), "sphere-3": Sphere(3),
                "cylindrical-3d": CHART_SPECS["cylindrical-3d"],
                "spherical-3d": CHART_SPECS["spherical-3d"]}
SHORT_OF_ANTIPODE = np.pi - 1e-3


@st.composite
def _sphere_log_cases(draw):
    """Spec name, the raw coordinates of p (8), a raw tangent at p (7) and,
    for each sphere factor, the geodesic angle from p to x (at most 1e-3
    short of the antipode) along that factor's block of the tangent."""
    coord = st.floats(-2.0, 2.0)
    angle = st.floats(0.0, SHORT_OF_ANTIPODE)
    return (draw(st.sampled_from(sorted(SPHERE_SPECS))),
            draw(st.tuples(*[coord] * 8)), draw(st.tuples(*[coord] * 7)),
            draw(st.tuples(angle, angle)))


P_CYL = (1.0, 0.0, 0.3, -0.2, 1.0, 0.0, 0.0, 0.0)       # e1 in each sphere
P_SPH = (1.0, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_sphere_log_cases())
@example(("spherical-3d", P_SPH, (0.0,) * 7, (0.0, 0.0)))          # x = p
@example(("sphere-3", V1 + (0.0,), V1, (0.0, 0.0)))                # x = p
@example(("sphere-2", E1, V1, (1.0, 0.0)))                         # p = e1
@example(("cylindrical-3d", P_CYL, V1, (2.0, 1.0)))                # p = e1
@example(("sphere-3", V1 + (0.0,), V1[::-1], (SHORT_OF_ANTIPODE, 0.0)))
@example(("spherical-3d", P_SPH, V1, (SHORT_OF_ANTIPODE,) * 2))
@example(("cylindrical-3d", V1 + (1.0,), V1, (SHORT_OF_ANTIPODE,) * 2))
def test_sphere_log_differential_matches_central_differences(case):
    name, p, v, angles = case
    spec = SPHERE_SPECS[name]
    P = _unit_blocks(spec, p)
    assume(P is not None)
    V, k = np.array(v[:spec.tangent_dim]), 0
    for leaf, _, tsl in leaves(spec):
        if isinstance(leaf, Sphere):
            n = np.linalg.norm(V[tsl])
            assume(angles[k] == 0.0 or n >= 1e-3)
            V[tsl] *= angles[k] / max(n, 1e-3)
            k += 1
    P = P[None]
    X = exp_rows(spec, P, V[None])
    h, d = 1e-6, spec.tangent_dim
    steps = h * np.eye(d)
    num = (log_rows(spec, P, exp_rows(spec, X, steps))
           - log_rows(spec, P, exp_rows(spec, X, -steps))).T / (2 * h)
    err = np.abs(log_jacobian_rows(spec, P, X)[0] - num).max()
    assert err <= 1e-5 * np.abs(num).max()


@st.composite
def _round_trip_cases(draw):
    """Chart spec name, then as in _sphere_log_cases: p (8), a tangent at p
    (7) and the geodesic angle along each sphere factor's block of it."""
    coord = st.floats(-2.0, 2.0)
    angle = st.floats(0.0, SHORT_OF_ANTIPODE)
    return (draw(st.sampled_from(sorted(CHART_SPECS))),
            draw(st.tuples(*[coord] * 8)), draw(st.tuples(*[coord] * 7)),
            draw(st.tuples(angle, angle)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_round_trip_cases())
@example(("polar-2d", E1, V1, (0.0, 0.0)))                         # x = p = e1
@example(("cartesian-2d", E1, V1, (1.0, 0.0)))                     # p = e1
@example(("cartesian-3d", V1 + (1.0,), V1, (SHORT_OF_ANTIPODE, 0.0)))
@example(("polar-2d", V1 + (1.0,), V1, (SHORT_OF_ANTIPODE,) * 2))
@example(("cylindrical-3d", P_CYL, V1, (SHORT_OF_ANTIPODE,) * 2))
@example(("spherical-3d", P_SPH, V1[::-1], (SHORT_OF_ANTIPODE,) * 2))
@example(("cylindrical-3d", P_CYL, V1, (1e-4, 1e-7)))              # short
def test_log_exp_round_trip_on_every_chart_spec(case):
    # log inverts exp along tangents shorter than pi on each sphere factor
    # (S3 included), and exp inverts log
    name, p, v, angles = case
    spec = CHART_SPECS[name]
    P = _unit_blocks(spec, p)
    assume(P is not None)
    V, k = np.array(v[:spec.tangent_dim]), 0
    for leaf, _, tsl in leaves(spec):
        if isinstance(leaf, Sphere):
            n = np.linalg.norm(V[tsl])
            assume(angles[k] == 0.0 or n >= 1e-3)
            V[tsl] *= angles[k] / max(n, 1e-3)
            k += 1
    P, V = P[None], V[None]
    X = exp_rows(spec, P, V)
    np.testing.assert_allclose(log_rows(spec, P, X), V, rtol=0, atol=1e-9)
    np.testing.assert_allclose(exp_rows(spec, P, log_rows(spec, P, X)), X,
                               rtol=0, atol=1e-12)
