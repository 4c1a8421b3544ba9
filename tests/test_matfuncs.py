import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import taylor_expm
from msflab.matfuncs import (
    EIG_COND_LIMIT,
    NonInvertibleMatrixError,
    mat_exp,
    mat_log,
    solve_eigen,
)

entry = st.floats(-4.0, 4.0, allow_nan=False)
matrices = st.tuples(entry, entry, entry, entry).map(
    lambda t: np.array([[t[0], t[1]], [t[2], t[3]]])
)


class TestMatExp:
    def test_zero_gives_identity(self):
        assert np.allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = rng.normal(scale=1.5, size=(2, 2))
            ref = np.real(taylor_expm(m))
            assert np.max(np.abs(mat_exp(m) - ref)) < 1e-10

    def test_real_input_real_output(self):
        m = np.array([[0.0, 1.0], [-3.0, -0.2]])
        out = mat_exp(m)
        assert not np.iscomplexobj(out)

    def test_defective_matrix(self):
        # Jordan block: diagonalization is impossible, fallback must engage.
        m = np.array([[-1.0, 1.0], [0.0, -1.0]])
        ref = np.exp(-1.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.max(np.abs(mat_exp(m) - ref)) < 1e-12

    def test_determinant_trace_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.normal(size=(2, 2))
            assert np.linalg.det(mat_exp(m)) == pytest.approx(
                np.exp(np.trace(m)), rel=1e-9
            )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatLog:
    def test_identity_gives_zero(self):
        out = mat_log(np.eye(2))
        assert np.max(np.abs(out)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 200:
            m = rng.normal(scale=1.2, size=(2, 2))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            count += 1
            back = mat_exp(mat_log(m))
            assert np.max(np.abs(back - m)) < 1e-9 * max(1.0, np.linalg.norm(m))

    def test_principal_branch_negative_eigenvalues(self):
        m = np.diag([-2.0, 3.0])
        lg = mat_log(m)
        # log(-2) = ln 2 + i pi on the principal branch.
        assert lg[0, 0] == pytest.approx(np.log(2.0) + 1j * np.pi, abs=1e-12)
        assert lg[1, 1] == pytest.approx(np.log(3.0), abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(NonInvertibleMatrixError):
            mat_log(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_near_defective_round_trip(self):
        # Double eigenvalue -R with a tiny off-diagonal kick: the saltation
        # shape that forces the non-diagonalizable fallback.
        m = np.array([[-0.9, 0.0], [4.7, -0.9]])
        back = mat_exp(mat_log(m))
        assert np.max(np.abs(back - m)) < 1e-9

    def test_pair_straddling_negative_axis_round_trip(self):
        # Eigenvalues -1 +- 1e-15 i: the principal logarithm has entries of
        # order 1e15, which no exponential maps back to m.
        m = np.array([[-1.0, 1e-30], [-1.0, -1.0]])
        back = mat_exp(mat_log(m))
        assert np.max(np.abs(back - m)) < 1e-9

    def test_output_always_complex(self):
        assert np.iscomplexobj(mat_log(np.eye(2)))


class TestSolveEigen:
    def test_reports_conditioning(self):
        well = solve_eigen(np.diag([1.0, 2.0]))
        assert well.vector_condition < 10.0
        near_defective = solve_eigen(np.array([[-1.0, 1e-9], [0.0, -1.0]]))
        assert near_defective.vector_condition > EIG_COND_LIMIT

    def test_eigen_relation(self):
        m = np.array([[0.3, -1.1], [0.9, 0.4]])
        dec = solve_eigen(m)
        for i in range(2):
            lhs = m @ dec.vectors[:, i]
            rhs = dec.values[i] * dec.vectors[:, i]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(m=matrices)
def test_round_trip_property(m):
    det = np.linalg.det(m)
    norm = np.linalg.norm(m)
    if abs(det) < 1e-4 * max(norm**2, 1.0):
        # The logarithm does not exist (or is hopeless) near singularity.
        return
    back = mat_exp(mat_log(m))
    assert np.max(np.abs(back - m)) < 1e-8 * max(1.0, norm)


@settings(max_examples=100, deadline=None)
@given(m=matrices)
def test_det_trace_property(m):
    assert np.linalg.det(mat_exp(m)) == pytest.approx(np.exp(np.trace(m)), rel=1e-8)
