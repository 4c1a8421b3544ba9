import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from oracles import taylor_expm
from msflab.matfuncs import (
    AXIS_RTOL,
    NonInvertibleMatrixError,
    mat_exp,
    mat_log,
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

    def test_rejects_larger_than_2x2(self):
        with pytest.raises(ValueError):
            mat_exp(np.eye(3))
        with pytest.raises(ValueError):
            mat_log(np.eye(3))

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

    def test_distinct_negative_eigenvalues_take_plus_i_pi(self):
        # Eigenvalues -2 and -0.5 of a non-diagonal matrix: both logarithms
        # need +i*pi; a -0.0 imaginary part would put one on -i*pi.
        m = np.array([[-2.0, 1.0], [0.0, -0.5]])
        lg = mat_log(m)
        assert np.max(np.abs(lg - scipy.linalg.logm(m))) < 1e-14
        assert np.allclose(np.diag(lg).imag, np.pi, atol=1e-14)

    def test_grazing_like_round_trip(self):
        # det = 1 with the 1/v_pre stretch of a near-grazing window, as far
        # as SINGULARITY_RTOL admits: singular values 4e5 and 2.5e-6.
        def stretched(big):
            rot = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            return -rot(0.3) @ np.diag([big, 1.0 / big]) @ rot(-1.1)

        m = stretched(4e5)
        assert abs(np.linalg.det(m) - 1.0) < 1e-3
        back = mat_exp(mat_log(m))
        assert np.max(np.abs(back - m)) < 1e-9 * np.linalg.norm(m)
        # At singular values 4e7 and 2.5e-8 the same matrix has no logarithm.
        with pytest.raises(NonInvertibleMatrixError):
            mat_log(stretched(4e7))

    @pytest.mark.parametrize("gap, flipped", [(1e-7, True), (1e-3, False)])
    def test_axis_threshold_picks_the_branch(self, gap, flipped):
        # Eigenvalues -1 +- i*gap: inside AXIS_RTOL both logarithms sit on
        # +i*pi; outside it the logarithm is principal (here real).
        assert (gap <= AXIS_RTOL) == flipped
        m = np.array([[-1.0, gap], [-gap, -1.0]])
        lg = mat_log(m)
        log_eigs = np.linalg.eigvals(lg)
        if flipped:
            assert np.allclose(log_eigs.imag, np.pi, atol=1e-9)
        else:
            assert np.max(np.abs(lg - scipy.linalg.logm(m))) < 1e-12
        assert np.max(np.abs(mat_exp(lg) - m)) < 1e-12


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


@settings(max_examples=150, deadline=None)
@given(m=matrices)
def test_exp_matches_scipy(m):
    ref = scipy.linalg.expm(m)
    assert np.max(np.abs(mat_exp(m) - ref)) < 1e-12 * max(1.0, np.linalg.norm(ref))


def _principal_branch_applies(m) -> bool:
    """Away from singularity and from the pairs that mat_log puts on +i*pi.

    The band is widened tenfold past AXIS_RTOL so that eigenvalues from
    numpy and from the closed form cannot fall on opposite sides of it.
    """
    if abs(np.linalg.det(m)) < 1e-4 * max(np.linalg.norm(m) ** 2, 1.0):
        return False
    eigs = np.linalg.eigvals(m)
    return not all(
        z.real < 0.0 and 0.0 < abs(z.imag) <= 10 * AXIS_RTOL * abs(z) for z in eigs
    )


@settings(max_examples=150, deadline=None)
@given(m=matrices)
def test_log_matches_scipy(m):
    assume(_principal_branch_applies(m))
    with warnings.catch_warnings():
        # logm warns when its own error estimate is large: no reference there.
        warnings.filterwarnings("error", "logm result may be inaccurate", RuntimeWarning)
        try:
            ref = scipy.linalg.logm(m)
        except RuntimeWarning:
            assume(False)
    assert np.max(np.abs(mat_log(m) - ref)) < 1e-8 * max(1.0, np.linalg.norm(ref))
