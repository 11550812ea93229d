import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles as oracle
from quasiprob.numerics import PreconditionError
from quasiprob.spin import (
    SpinState,
    expectations,
    feynman_choice,
    marginal_residuals,
    nonneg_window,
    pauli,
    quasi_family,
    zx_sum_spectrum_report,
)

# angles parameterizing a pure state cos(u)|+z> + e^{i v} sin(u)|-z>
US = st.floats(0.0, np.pi / 2)
VS = st.floats(0.0, 2 * np.pi, exclude_max=True)


def pure_state(u, v):
    return SpinState(complex(np.cos(u)), complex(np.exp(1j * v) * np.sin(u)))


def test_pauli_algebra():
    X, Y, Z = pauli()
    assert np.array_equal(X @ X, np.eye(2))
    assert np.array_equal(Z @ Z, np.eye(2))
    assert np.max(np.abs(X @ Y - 1j * Z)) == 0.0
    assert np.max(np.abs(Z @ X + X @ Z)) == 0.0  # anticommute


def test_expectations_of_axis_states():
    up = SpinState(1.0, 0.0)
    assert expectations(up) == pytest.approx((0.0, 0.0, 1.0))
    plus = SpinState(np.sqrt(0.5), np.sqrt(0.5))
    assert expectations(plus) == pytest.approx((1.0, 0.0, 0.0))
    yplus = SpinState(np.sqrt(0.5), 1j * np.sqrt(0.5))
    assert expectations(yplus) == pytest.approx((0.0, 1.0, 0.0))


def test_state_normalization_enforced():
    with pytest.raises(PreconditionError):
        SpinState(1.0, 1.0)


def test_nan_fails_closed():
    with pytest.raises(PreconditionError):
        SpinState(np.nan, 1.0)
    with pytest.raises(PreconditionError):
        quasi_family(0.0, 0.0, np.nan)


def test_family_frozen_values():
    f = quasi_family(1.0, 0.0, 0.0)
    assert f.components == (0.5, 0.5, 0.0, 0.0)
    f = quasi_family(0.0, 0.0, 0.0)
    assert f.components == (0.25, 0.25, 0.25, 0.25)
    r = np.sqrt(0.5)
    assert quasi_family(r, r, 0.0).fmm == pytest.approx(oracle.SPIN_DIAG_FMM, abs=1e-15)


def test_family_range_check():
    # expectations are bounded; the free parameter t is not
    with pytest.raises(PreconditionError):
        quasi_family(1.5, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        quasi_family(0.0, -1.01, 0.0)
    quasi_family(0.0, 0.0, 3.0)  # any real t solves the marginal equations


@given(u=US, v=VS, t=st.floats(-3.0, 3.0))
@example(u=np.pi / 2, v=0.053407075111026485, t=0.0)  # <Z> once rounded to -1 - 2e-16
@settings(max_examples=100, deadline=None)
def test_family_marginals_always_consistent(u, v, t):
    # whatever t is chosen, the four components reproduce the single-spin
    # measurement distributions and sum to one
    state = pure_state(u, v)
    X, Y, Z = expectations(state)
    f = quasi_family(Z, X, t)
    res = marginal_residuals(f, Z, X)
    assert max(abs(r) for r in res) < 1e-14
    assert sum(f.components) == pytest.approx(1.0, abs=1e-14)


@given(u=US, v=VS)
@settings(max_examples=100, deadline=None)
def test_nonnegative_exactly_inside_window(u, v):
    state = pure_state(u, v)
    X, Y, Z = expectations(state)
    lo, hi = nonneg_window(Z, X)
    assert lo <= hi + 1e-13
    mid = (lo + hi) / 2.0
    assert feynman_choice(state, t=mid).nonnegative(tol=1e-13)
    assert feynman_choice(state, t=lo).nonnegative(tol=1e-13)
    assert feynman_choice(state, t=hi).nonnegative(tol=1e-13)
    # strictly outside the window some component goes negative
    if lo - 1e-6 >= -2.0:
        assert not feynman_choice(state, t=lo - 1e-6).nonnegative(tol=1e-9)
    if hi + 1e-6 <= 2.0:
        assert not feynman_choice(state, t=hi + 1e-6).nonnegative(tol=1e-9)


def test_window_diag_endpoints():
    r = np.sqrt(0.5)
    lo, hi = nonneg_window(r, r)
    assert (lo, hi) == pytest.approx(oracle.SPIN_DIAG_WINDOW, abs=1e-15)


def test_window_extremal_state_degenerates():
    assert nonneg_window(1.0, 0.0) == (0.0, 0.0)


def test_feynman_choice_is_y_expectation():
    st8 = pure_state(np.pi / 8, 0.0)
    f = feynman_choice(st8)
    assert f.t == 0.0
    yplus = SpinState(np.sqrt(0.5), 1j * np.sqrt(0.5))
    assert feynman_choice(yplus).t == pytest.approx(1.0)
    assert feynman_choice(yplus, t="neg-feynman").t == pytest.approx(-1.0)


def test_pi8_state_values():
    state = SpinState(float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    X, Y, Z = expectations(state)
    assert Z == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert X == pytest.approx(np.sqrt(0.5), abs=1e-15)
    f0 = feynman_choice(state, t=0.0)
    assert f0.fmm == pytest.approx(oracle.SPIN_DIAG_FMM, abs=1e-15)
    assert f0.fmm < 0
    f7 = feynman_choice(state, t=0.7)
    assert f7.nonnegative()


def test_stress_assignment_is_family_member():
    # the hand-picked outcomes (0.6, -0.1, 0.3, 0.2) sit inside the family:
    # they equal the t = 0.6 member for expectations Z = 0, X = 0.8
    f = quasi_family(0.0, 0.8, 0.6)
    assert f.components == pytest.approx((0.6, -0.1, 0.3, 0.2), abs=1e-15)
    res = marginal_residuals(f, 0.0, 0.8)
    assert max(abs(r) for r in res) == 0.0
    # against different expectations the same numbers fail loudly
    res = marginal_residuals(f, 0.0, 0.0)
    assert res == pytest.approx((0.0, 0.0, 0.4, -0.4), abs=1e-15)


def test_zx_spectrum_report():
    state = SpinState(float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    rep = zx_sum_spectrum_report(feynman_choice(state, t=0.0))
    assert rep["quasi_values"] == pytest.approx(oracle.ZX_QUASI_VALUES)
    assert rep["eigenvalues"] == pytest.approx(oracle.ZX_EIGENVALUES)
    assert rep["mismatch"] is True
    assert sum(rep["quasi_weights"]) == pytest.approx(1.0, abs=1e-14)


@given(u=US, v=VS)
@settings(max_examples=50, deadline=None)
def test_zx_weights_average_to_quantum_expectation(u, v):
    # the quasi-distribution reproduces <Z + X> even though its value set
    # differs from the spectrum
    state = pure_state(u, v)
    X, Y, Z = expectations(state)
    rep = zx_sum_spectrum_report(feynman_choice(state))
    mean = sum(w * q for w, q in zip(rep["quasi_weights"], rep["quasi_values"]))
    assert mean == pytest.approx(Z + X, abs=1e-12)
