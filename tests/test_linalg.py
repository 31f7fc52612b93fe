import numpy as np
import pytest

from proxgn import (
    DEFAULT_RANK_TOLERANCE,
    RankDeficientError,
    ShapeMismatchError,
    condition_data,
    operator_norm,
    pseudoinverse,
    verify_penrose,
)
from oracles import gram_eigen_condition, normal_equation_pinv, power_iteration_norm


def test_pseudoinverse_identity():
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_pseudoinverse_tall_diagonal():
    a = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    expected = np.array([[1.0 / 3.0, 0.0, 0.0], [0.0, 0.25, 0.0]])
    assert np.allclose(pseudoinverse(a), expected, atol=1e-15)


def test_pseudoinverse_matches_normal_equations():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((6, 3))
    got = pseudoinverse(a)
    want = normal_equation_pinv(a)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_pseudoinverse_rejects_rank_deficiency():
    a = np.column_stack([np.ones(4), np.ones(4)])
    with pytest.raises(RankDeficientError):
        pseudoinverse(a)


def test_pseudoinverse_rejects_wide_and_bad_tolerance():
    with pytest.raises(ShapeMismatchError):
        pseudoinverse(np.ones((2, 3)))
    # sigma_min equal to DEFAULT_RANK_TOLERANCE * sigma_max fails the rank rule
    with pytest.raises(RankDeficientError):
        pseudoinverse(np.diag([1.0, DEFAULT_RANK_TOLERANCE]))
    with pytest.raises(ValueError):
        pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_verify_penrose_cases():
    assert verify_penrose(np.eye(3), np.eye(3), 1e-12)
    a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    assert not verify_penrose(a, np.zeros((2, 3)), 1e-12)
    with pytest.raises(ShapeMismatchError):
        verify_penrose(a, np.zeros((3, 2)), 1e-9)


def test_penrose_property_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n)) * rng.uniform(0.2, 5.0)
        pinv = pseudoinverse(a)
        assert verify_penrose(a, pinv, 1e-9)
        assert operator_norm(pinv @ a - np.eye(n)) <= 1e-9


def test_perturbation_bounds():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        pa = pseudoinverse(a)
        e = rng.standard_normal((m, n))
        e *= rng.uniform(0.05, 0.5) / operator_norm(e @ pa)
        contraction = operator_norm(e @ pa)
        assert contraction <= 0.5 + 1e-12
        pb = pseudoinverse(a + e)
        norm_a = operator_norm(pa)
        norm_b = operator_norm(pb)
        assert norm_b <= norm_a / (1.0 - contraction) + 1e-9
        assert operator_norm(pb - pa) <= (
            np.sqrt(2.0) * norm_a * norm_b * operator_norm(e) + 1e-9
        )


def test_operator_norm_examples():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
    assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        want = power_iteration_norm(a)
        assert operator_norm(a) == pytest.approx(want, rel=1e-8)


def test_condition_data_examples():
    assert condition_data(np.eye(5)) == pytest.approx((1.0, 1.0))
    beta, kappa = condition_data(np.diag([2.0, 8.0]))
    assert beta == pytest.approx(0.5, abs=1e-14)
    assert kappa == pytest.approx(4.0, abs=1e-13)


def test_condition_data_matches_gram_eigen():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 3))
    beta, kappa = condition_data(a)
    beta_o, kappa_o = gram_eigen_condition(a)
    assert beta == pytest.approx(beta_o, rel=1e-8)
    assert kappa == pytest.approx(kappa_o, rel=1e-8)


def test_condition_data_rank_deficient():
    with pytest.raises(RankDeficientError):
        condition_data(np.column_stack([np.ones(3), np.ones(3)]))


def test_matrix_shapes_are_checked():
    with pytest.raises(ShapeMismatchError):
        operator_norm(np.ones(3))
    with pytest.raises(ShapeMismatchError):
        condition_data(np.ones((2, 3)))
