import numpy as np
import pytest

from proxgn import (
    Box,
    BoxIndicator,
    CustomProx,
    InnerConfig,
    ShapeMismatchError,
    ZeroPenalty,
    normal_cone_gap,
    operator_norm,
    project_box,
    prox_metric,
    prox_via_pullback,
)
from proxgn import prox
from oracles import exact_box_prox, grid_golden_min, random_conditioned

INF = np.inf


def random_box(rng, n):
    return Box(rng.uniform(-1.5, -0.1, n), rng.uniform(0.1, 1.5, n))


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Box(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError):
            Box(np.array([-INF]), np.array([-INF]))
        box = Box(np.array([-INF, 0.0]), np.array([1.0, INF]))
        assert box.dimension == 2
        assert box.contains([0.5, 3.0])
        assert not box.contains([2.0, 3.0])

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            Box(np.zeros(2), np.ones(3))
        with pytest.raises(ShapeMismatchError):
            project_box(np.zeros((2, 1)), Box(np.zeros(2), np.ones(2)))

    def test_project_box(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(project_box([0.5, 0.5], box), [0.5, 0.5])
        assert np.array_equal(project_box([2.0, -3.0], box), [1.0, 0.0])
        one_sided = Box(np.array([-INF]), np.array([1.0]))
        assert np.array_equal(project_box([5.0], one_sided), [1.0])
        with pytest.raises(ShapeMismatchError):
            project_box([1.0, 2.0, 3.0], box)


class TestProxMetric:
    def test_zero_penalty_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        z = rng.standard_normal(3)
        out = prox_metric(ZeroPenalty(), a, z)
        assert np.array_equal(out.point, z)
        assert out.inner_iterations == 0
        assert out.converged

    def test_feasible_point_short_circuits(self):
        box = Box(np.zeros(2), np.ones(2))
        out = prox_metric(BoxIndicator(box), np.eye(2), [0.3, 0.7])
        assert np.array_equal(out.point, [0.3, 0.7])
        assert out.converged
        assert out.inner_iterations <= 2

    def test_certificate_contract(self, monkeypatch):
        # a feasible z is returned as it is, with no BVLS; an infeasible one
        # costs exactly one BVLS call, certified once at the returned point
        calls = []
        bvls = prox._bvls

        def counted(*args):
            calls.append(args)
            return bvls(*args)

        monkeypatch.setattr(prox, "_bvls", counted)
        rng = np.random.default_rng(41)
        for _ in range(30):
            a = random_conditioned(rng, 6, 4)
            box = random_box(rng, 4)
            inside = box.lower + rng.random(4) * (box.upper - box.lower)
            out = prox_metric(BoxIndicator(box), a, inside)
            assert out.point.tobytes() == inside.tobytes()
            assert out.inner_iterations == 0 and out.kkt_gap == 0.0 and out.converged
            assert not calls

            z = inside.copy()
            z[rng.integers(4)] = box.upper.max() + rng.uniform(0.1, 2.0)
            out = prox_metric(BoxIndicator(box), a, z)
            assert len(calls) == 1
            calls.clear()
            p = out.point
            g = a.T @ (a @ (z - p))
            want = np.zeros(4)
            for i in range(4):
                at_lower, at_upper = p[i] == box.lower[i], p[i] == box.upper[i]
                if at_lower and at_upper:
                    continue
                want[i] = max(g[i], 0.0) if at_lower else min(g[i], 0.0) if at_upper else g[i]
            assert out.kkt_gap == pytest.approx(np.sqrt(np.sum(want ** 2)), rel=1e-12, abs=0.0)

    def test_diagonal_metric_prox_is_clamp(self):
        # in a diagonal metric the coordinates separate, so the clamp is the
        # exact prox even when z is infeasible; BVLS must land on it
        rng = np.random.default_rng(42)
        for _ in range(30):
            a = np.diag(rng.uniform(0.5, 3.0, 3))
            box = random_box(rng, 3)
            z = rng.uniform(-3.0, 3.0, 3)
            z[0] = box.lower[0] - rng.uniform(0.1, 1.0)
            out = prox_metric(BoxIndicator(box), a, z)
            assert out.converged and out.inner_iterations >= 1
            assert np.max(np.abs(out.point - project_box(z, box))) <= 1e-15

    def test_identity_metric_is_projection(self):
        box = Box(np.zeros(2), np.ones(2))
        out = prox_metric(BoxIndicator(box), np.eye(2), [2.0, -1.0])
        assert np.allclose(out.point, [1.0, 0.0], atol=1e-11)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        cfg = InnerConfig()
        for _ in range(30):
            a = random_conditioned(rng, 5, 3)
            box = random_box(rng, 3)
            z = rng.uniform(-2.0, 2.0, 3)
            got = prox_metric(BoxIndicator(box), a, z, cfg)
            want = exact_box_prox(a, z, box)
            assert np.linalg.norm(got.point - want) <= 10.0 * cfg.tolerance

    def test_non_convergence_is_reported_not_raised(self):
        # the box projection as a custom prox runs the projected-gradient
        # loop; seed chosen so the full run needs ~94 inner iterations
        rng = np.random.default_rng(1)
        a = random_conditioned(rng, 5, 3)
        box = random_box(rng, 3)
        z = rng.uniform(-4.0, 4.0, 3)
        out = prox_metric(CustomProx(lambda v: project_box(v, box)), a, z,
                          InnerConfig(tolerance=1e-15, max_iterations=3))
        assert not out.converged
        assert out.inner_iterations == 3

    def test_bvls_cap_is_reported_not_raised(self):
        # seed chosen so BVLS needs two active-set changes, i.e. three
        # least-squares solves
        rng = np.random.default_rng(15)
        a = random_conditioned(rng, 5, 3)
        box = random_box(rng, 3)
        z = rng.uniform(-4.0, 4.0, 3)
        full = prox_metric(BoxIndicator(box), a, z)
        assert full.converged and full.inner_iterations >= 3
        assert np.linalg.norm(full.point - exact_box_prox(a, z, box)) <= 1e-12
        out = prox_metric(BoxIndicator(box), a, z, InnerConfig(max_iterations=1))
        assert not out.converged
        assert out.inner_iterations == 1
        assert box.contains(out.point)
        assert out.kkt_gap > full.kkt_gap

    def test_custom_prox_loop(self):
        # soft-threshold prox (l1 penalty) in the identity metric
        shrink = 0.05

        def soft(v):
            return np.sign(v) * np.maximum(np.abs(v) - shrink, 0.0)

        out = prox_metric(CustomProx(soft), np.eye(3), np.array([1.0, -0.2, 0.01]))
        assert out.converged
        # H = I and sigma = 1 make the loop's fixed point the exact prox
        assert np.allclose(out.point, soft(np.array([1.0, -0.2, 0.01])), atol=1e-11)


class TestProxProperties:
    def test_metric_lipschitz_bound(self):
        rng = np.random.default_rng(31)
        cfg = InnerConfig()
        for _ in range(30):
            a = random_conditioned(rng, 5, 3)
            box = random_box(rng, 3)
            z1 = rng.uniform(-2.0, 2.0, 3)
            z2 = rng.uniform(-2.0, 2.0, 3)
            p1 = prox_metric(BoxIndicator(box), a, z1, cfg).point
            p2 = prox_metric(BoxIndicator(box), a, z2, cfg).point
            h = a.T @ a
            factor = np.sqrt(operator_norm(h) * operator_norm(np.linalg.inv(h)))
            assert np.linalg.norm(p1 - p2) <= factor * np.linalg.norm(z1 - z2) + 10 * cfg.tolerance

    def test_h_nonexpansiveness(self):
        rng = np.random.default_rng(32)
        cfg = InnerConfig()
        for _ in range(30):
            a = random_conditioned(rng, 5, 3)
            h = a.T @ a
            box = random_box(rng, 3)
            z1 = rng.uniform(-2.0, 2.0, 3)
            z2 = rng.uniform(-2.0, 2.0, 3)
            p1 = prox_metric(BoxIndicator(box), a, z1, cfg).point
            p2 = prox_metric(BoxIndicator(box), a, z2, cfg).point
            dp = p1 - p2
            dz = z1 - z2
            assert np.sqrt(dp @ h @ dp) <= np.sqrt(dz @ h @ dz) + 10 * cfg.tolerance

    def test_metric_variation_bound(self):
        rng = np.random.default_rng(33)
        cfg = InnerConfig()
        for _ in range(30):
            a1 = random_conditioned(rng, 5, 3)
            a2 = random_conditioned(rng, 5, 3)
            box = random_box(rng, 3)
            z = rng.uniform(-2.0, 2.0, 3)
            h1, h2 = a1.T @ a1, a2.T @ a2
            p1 = prox_metric(BoxIndicator(box), a1, z, cfg).point
            p2 = prox_metric(BoxIndicator(box), a2, z, cfg).point
            bound = operator_norm(np.linalg.inv(h1)) * np.linalg.norm((h1 - h2) @ (z - p2))
            assert np.linalg.norm(p1 - p2) <= bound + 10 * cfg.tolerance

    def test_optimality_certificate_and_fixed_point(self):
        rng = np.random.default_rng(34)
        cfg = InnerConfig()
        for _ in range(30):
            a = random_conditioned(rng, 5, 3)
            h = a.T @ a
            box = random_box(rng, 3)
            z = rng.uniform(-2.0, 2.0, 3)
            out = prox_metric(BoxIndicator(box), a, z, cfg)
            p = out.point
            gap = normal_cone_gap(h @ (z - p), box, p, atol=1e-12)
            assert np.linalg.norm(gap) <= 10 * cfg.tolerance * operator_norm(h)
            assert out.converged
            assert out.kkt_gap <= 10 * cfg.tolerance * operator_norm(h)
            sigma = 1.0 / operator_norm(h)
            replay = project_box(p - sigma * (h @ (p - z)), box)
            assert np.linalg.norm(replay - p) <= cfg.tolerance

    def test_iterates_stay_feasible(self):
        rng = np.random.default_rng(35)
        box = random_box(rng, 3)
        a = random_conditioned(rng, 5, 3)
        out = prox_metric(BoxIndicator(box), a, rng.uniform(-4, 4, 3))
        assert box.contains(out.point)


class TestPullback:
    def test_identity_matrix_identity_prox(self):
        z = np.array([0.3, -0.7])
        got = prox_via_pullback(lambda y: y, np.eye(2), z)
        assert np.allclose(got, z, atol=1e-15)

    def test_zero_penalty_roundtrip(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 3))
        z = rng.standard_normal(3)
        # phi = 0 lifts to the identity prox; A^dag A z = z for injective A
        got = prox_via_pullback(lambda y: y, a, z)
        assert np.allclose(got, z, atol=1e-12)

    def test_diagonal_box_against_coordinate_scan(self):
        # diagonal metric separates: the lifted prox solves one scalar
        # problem per coordinate, here done by dense scan + golden section
        a = np.diag([2.0, 3.0])
        box = Box(np.array([-0.5, 0.25]), np.array([0.5, 0.9]))
        scales = np.array([2.0, 3.0])

        def composed(y):
            out = np.empty_like(y)
            for i, (yi, s) in enumerate(zip(y, scales)):
                lo, hi = s * box.lower[i], s * box.upper[i]
                out[i] = grid_golden_min(lambda t: (t - yi) ** 2, lo, hi)
            return out

        for z in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5], [0.2, 0.3]):
            got = prox_via_pullback(composed, a, np.asarray(z, float))
            want = exact_box_prox(a, np.asarray(z, float), box)
            assert np.linalg.norm(got - want) <= 1e-9

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            prox_via_pullback(lambda y: y, np.eye(3), np.zeros(2))


def test_prox_metric_dimension_mismatch():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ShapeMismatchError):
        prox_metric(BoxIndicator(box), np.eye(2), [0.1, 0.2, 0.3])
    with pytest.raises(ShapeMismatchError):
        prox_metric(BoxIndicator(Box(np.zeros(3), np.ones(3))), np.eye(2), [0.1, 0.2])


PENALTIES = [ZeroPenalty(), BoxIndicator(Box(-np.ones(2), np.ones(2))),
             CustomProx(lambda v: np.clip(v, -1.0, 1.0))]


@pytest.mark.parametrize("penalty", PENALTIES)
def test_public_prox_metric_checks_its_arguments(penalty):
    # only a caller that passes the singular values of a may skip these checks
    a, z = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.5, 2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            prox_metric(penalty, np.where(a == 1.0, bad, a), z)
        with pytest.raises(ValueError):
            prox_metric(penalty, a, np.array([0.5, bad]))
    with pytest.raises(ShapeMismatchError):
        prox_metric(penalty, a, np.array([0.5, 2.0, 0.0]))


@pytest.mark.parametrize("penalty", PENALTIES[:2])
def test_public_prox_metric_returns_a_fresh_point(penalty):
    z = np.array([0.5, -0.25])
    out = prox_metric(penalty, np.eye(2), z)
    assert np.array_equal(out.point, z) and out.inner_iterations == 0
    z[0] = 7.0
    assert out.point[0] == 0.5


def test_prox_metric_rank_deficient_metric():
    from proxgn import RankDeficientError

    # the full-rank contract holds for every penalty, the identity prox included
    singular = np.array([[1.0, 0.0], [1.0, 0.0]])
    for penalty in PENALTIES:
        for z in ([2.0, 2.0], [0.5, 0.5]):
            with pytest.raises(RankDeficientError):
                prox_metric(penalty, singular, z)


def test_start_is_the_point_itself_in_the_domain_and_a_fresh_clamp_outside():
    indicator = BoxIndicator(Box(np.zeros(2), np.ones(2)))
    inside, outside = np.array([0.25, 1.0]), np.array([0.25, 1.5])
    assert indicator._start(inside) is inside
    clamped = indicator._start(outside)
    assert clamped is not outside and np.array_equal(clamped, [0.25, 1.0])
    assert np.array_equal(outside, [0.25, 1.5])
    for penalty in (ZeroPenalty(), PENALTIES[2]):
        assert penalty._start(outside) is outside


@pytest.mark.parametrize("dim", [1, 3])
def test_every_entry_point_raises_shape_mismatch_for_a_wrong_length_box(dim):
    from proxgn import get_case, solve, stationarity_residual

    box, x = Box(np.full(dim, -2.0), np.full(dim, 2.0)), np.zeros(2)
    problem = get_case("rosenbrock").problem
    for call in (lambda: solve(problem, BoxIndicator(box), x),
                 lambda: stationarity_residual(problem, BoxIndicator(box), x),
                 lambda: prox_metric(BoxIndicator(box), np.eye(2), x),
                 lambda: project_box(x, box),
                 lambda: normal_cone_gap(x, box, x)):
        with pytest.raises(ShapeMismatchError):
            call()


def test_normal_cone_gap_one_sided_box():
    # coordinate 0 is unbounded, so it is interior whatever atol is; coordinate
    # 1 sits at its upper bound, where only an inward (negative) part remains
    box = Box(np.array([-INF, 0.0]), np.array([INF, 2.0]))
    x = np.array([0.5, 2.0])
    v = np.array([1.0, -1.0])
    for atol in (0.0, 1e-14, 1e-3):
        assert np.array_equal(normal_cone_gap(v, box, x, atol=atol), [1.0, -1.0])
    assert np.array_equal(normal_cone_gap(-v, box, x, atol=1e-14), [-1.0, 0.0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_inner_config_rejects_non_finite_tolerance(value):
    with pytest.raises(ValueError, match="finite"):
        InnerConfig(tolerance=value)
