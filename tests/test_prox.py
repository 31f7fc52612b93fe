import numpy as np
import pytest

from proxgn import (
    Box,
    BoxIndicator,
    CustomProx,
    DimensionMismatchError,
    InnerConfig,
    StepTooLargeError,
    ZeroPenalty,
    normal_cone_gap,
    operator_norm,
    project_box,
    prox_metric,
    prox_via_pullback,
    pseudoinverse,
)
from proxgn.checks import exact_box_prox
from oracles import grid_golden_min, random_conditioned

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

    def test_project_box(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(project_box([0.5, 0.5], box), [0.5, 0.5])
        assert np.array_equal(project_box([2.0, -3.0], box), [1.0, 0.0])
        one_sided = Box(np.array([-INF]), np.array([1.0]))
        assert np.array_equal(project_box([5.0], one_sided), [1.0])
        with pytest.raises(DimensionMismatchError):
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

    def test_fixed_step_rules(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 2))
        norm_h = operator_norm(a) ** 2
        box = Box(-np.ones(2), np.ones(2))
        z = np.array([2.0, 2.0])
        with pytest.raises(StepTooLargeError):
            prox_metric(BoxIndicator(box), a, z, InnerConfig(step_size=2.0 / norm_h))
        ok = prox_metric(BoxIndicator(box), a, z, InnerConfig(step_size=1.5 / norm_h))
        want = exact_box_prox(a, z, box)
        assert np.linalg.norm(ok.point - want) <= 1e-11

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
        assert out.final_step_delta >= 1e-15

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

        out = prox_metric(CustomProx(soft, "l1"), np.eye(3), np.array([1.0, -0.2, 0.01]))
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
        got = prox_via_pullback(lambda y: y, np.eye(2), np.eye(2), z)
        assert np.allclose(got, z, atol=1e-15)

    def test_zero_penalty_roundtrip(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 3))
        pinv = pseudoinverse(a).pinv
        z = rng.standard_normal(3)
        # phi = 0 lifts to the identity prox; A^dag A z = z for injective A
        got = prox_via_pullback(lambda y: y, a, pinv, z)
        assert np.allclose(got, z, atol=1e-12)

    def test_diagonal_box_against_coordinate_scan(self):
        # diagonal metric separates: the lifted prox solves one scalar
        # problem per coordinate, here done by dense scan + golden section
        a = np.diag([2.0, 3.0])
        pinv = pseudoinverse(a).pinv
        box = Box(np.array([-0.5, 0.25]), np.array([0.5, 0.9]))
        scales = np.array([2.0, 3.0])

        def composed(y):
            out = np.empty_like(y)
            for i, (yi, s) in enumerate(zip(y, scales)):
                lo, hi = s * box.lower[i], s * box.upper[i]
                out[i] = grid_golden_min(lambda t: (t - yi) ** 2, lo, hi)
            return out

        for z in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5], [0.2, 0.3]):
            got = prox_via_pullback(composed, a, pinv, np.asarray(z, float))
            want = exact_box_prox(a, np.asarray(z, float), box)
            assert np.linalg.norm(got - want) <= 1e-9

    def test_shape_validation(self):
        from proxgn import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            prox_via_pullback(lambda y: y, np.eye(3), np.eye(2), np.zeros(3))


class TestFirmNonexpansiveness:
    def test_projection_passes(self):
        from proxgn import is_firmly_nonexpansive

        box = Box(np.array([-0.5, 0.0]), np.array([0.5, 1.0]))
        assert is_firmly_nonexpansive(lambda z: project_box(z, box), 2)

    def test_soft_threshold_passes(self):
        from proxgn import is_firmly_nonexpansive

        soft = lambda v: np.sign(v) * np.maximum(np.abs(v) - 0.3, 0.0)
        assert is_firmly_nonexpansive(soft, 3)

    def test_expansion_fails(self):
        from proxgn import is_firmly_nonexpansive

        assert not is_firmly_nonexpansive(lambda z: 2.0 * z, 2)
        # reflections are nonexpansive but not firmly so
        assert not is_firmly_nonexpansive(lambda z: -z, 2)


def test_prox_metric_dimension_mismatch():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatchError):
        prox_metric(BoxIndicator(box), np.eye(2), [0.1, 0.2, 0.3])
    with pytest.raises(DimensionMismatchError):
        prox_metric(BoxIndicator(Box(np.zeros(3), np.ones(3))), np.eye(2), [0.1, 0.2])


def test_prox_metric_rank_deficient_metric():
    from proxgn import RankDeficientError

    singular = np.array([[1.0, 0.0], [1.0, 0.0]])
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(RankDeficientError):
        prox_metric(BoxIndicator(box), singular, [2.0, 2.0])


def test_normal_cone_gap_one_sided_box():
    # coordinate 0 is unbounded, so it is interior whatever atol is; coordinate
    # 1 sits at its upper bound, where only an inward (negative) part remains
    box = Box(np.array([-INF, 0.0]), np.array([INF, 2.0]))
    x = np.array([0.5, 2.0])
    v = np.array([1.0, -1.0])
    for atol in (0.0, 1e-14, 1e-3):
        assert np.array_equal(normal_cone_gap(v, box, x, atol=atol), [1.0, -1.0])
    assert np.array_equal(normal_cone_gap(-v, box, x, atol=1e-14), [-1.0, 0.0])
