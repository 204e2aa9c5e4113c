"""Metamorphic properties of the second-order Fisher coefficients.

F0, F2 (integral route), I2 (energy measurement) and the kernel route xi/beta^2
are functions of the probe spectrum relative to its ground level, of |S_nk|^2
in the eigenbasis, and of the bath correlator.  So they must not move under a
constant energy shift, a joint unitary rotation of (H, S) or S -> -S, and they
must scale as an energy squared under (H, Omega, beta) -> (lam H, lam Omega,
beta/lam) with a dimensionless coupling (bath dim_exponent 1).  Each case is a
random probe of dimension 2-6 with clustered levels, a real or complex
coupling, beta times the level spread in [0.1, 30], and a power-law bath.

On one random complex 4-level probe (Omega = 20, beta = 1.3) the relative
moves are: shift 1.0e-15, rotation 6.9e-16, sign 0, scaling <= 5.2e-14; the
bounds leave about three orders of magnitude for the wider ranges here.  Each
value is compared on the scale that bounds its rounding error.  For F2-type
values that is the integral of the absolute integral-route integrand, which
stays finite where F2 passes through zero.  For F0 = sum_n p_n dE_n^2 it adds
2 sqrt(F0) ||H||, the first-order move of F0 under a relative error of the
levels (sum_n p_n |dE_n| <= sqrt(F0)): a cold probe whose populated levels lie
within 1e-4 of each other knows dE_n only to eps ||H||, whatever the code does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fctherm import (
    ContinuumBath,
    bath_correlation,
    cfi_energy_perturbative,
    probe_correlation,
    probe_custom,
    qfi_perturbative_integral,
    quad_imaginary_time,
    x_matrix,
    xi_via_spectral_kernel,
)

N_U, N_OMEGA = 32, 64  # the properties hold on any rule; small ones keep the suite fast
INVARIANCE_RTOL = 1e-12
SCALING_RTOL = 1e-11
PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def random_unitary(rng, d: int, complex_field: bool) -> np.ndarray:
    m = rng.standard_normal((d, d))
    if complex_field:
        m = m + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


@st.composite
def cases(draw):
    """(H, S, bath, beta, rng): unit level spread, so beta is beta times the spread."""
    d = draw(st.integers(2, 6))
    complex_field = draw(st.booleans())
    n_clusters = draw(st.integers(1, d))
    width = 10.0 ** -draw(st.integers(1, 6))  # cluster width relative to the spread
    beta = draw(st.floats(0.1, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, max(0, n_clusters - 2))])
    members = np.concatenate([np.arange(n_clusters), rng.integers(0, n_clusters, d - n_clusters)])
    levels = centres[:n_clusters][members] + width * rng.uniform(0.0, 1.0, d)
    levels = (levels - levels.min()) / (levels.max() - levels.min())
    v = random_unitary(rng, d, complex_field)
    h = hermitian_part((v * levels) @ v.conj().T)
    s = rng.standard_normal((d, d))
    if complex_field:
        s = s + 1j * rng.standard_normal((d, d))
    s = hermitian_part(s)
    s = s / np.linalg.norm(s, 2)
    bath = ContinuumBath(s=float(rng.uniform(0.5, 3.0)), cutoff=float(10.0 ** rng.uniform(0.0, 2.0)))
    return h, s, bath, beta, rng, complex_field


def routes(h, s, bath, beta) -> np.ndarray:
    """(F0, F2, I2, xi/beta^2) on the suite's rules."""
    probe = probe_custom(h, s)
    f0, f2 = qfi_perturbative_integral(probe, bath, beta, N_U, N_OMEGA)
    _, i2 = cfi_energy_perturbative(x_matrix(probe, bath, beta, N_U, N_OMEGA))
    xi = xi_via_spectral_kernel(probe, bath, beta, N_U, N_OMEGA)
    return np.array([f0, f2, i2, xi / beta**2])


def term_scale(h, s, bath, beta) -> np.ndarray:
    """Per-route rounding scale (see the module docstring)."""
    probe = probe_custom(h, s)
    probe_corr = probe_correlation(probe, beta)
    bath_corr = bath_correlation(bath, beta, N_OMEGA)
    rule = quad_imaginary_time(N_U, beta, bath_corr.layer_width)
    u = rule.nodes
    tail = beta - u
    phi_b, dphi_b = bath_corr.value_and_dbeta(u)
    terms = (np.abs(tail * phi_b * probe_corr.d2beta(u))
             + 2.0 * np.abs((phi_b + tail * dphi_b) * probe_corr.dbeta(u)))
    f0 = probe_corr.energy_var
    f2_scale = rule.integrate(terms)
    return np.array([f0 + 2.0 * np.sqrt(f0) * np.linalg.norm(h, 2), f2_scale, f2_scale, f2_scale])


@PROPERTY_SETTINGS
@given(cases())
def test_routes_are_invariant_under_shift_rotation_and_sign(case):
    h, s, bath, beta, rng, complex_field = case
    base = routes(h, s, bath, beta)
    bound = INVARIANCE_RTOL * term_scale(h, s, bath, beta)
    assert abs(base[1] - base[2]) <= bound[1], ("F2 = I2", base)
    u = random_unitary(rng, h.shape[0], complex_field)
    transformed = {
        "shift": (h + float(rng.uniform(-2.0, 2.0)) * np.eye(h.shape[0]), s),
        "rotation": (hermitian_part(u @ h @ u.conj().T), hermitian_part(u @ s @ u.conj().T)),
        "sign": (h, -s),
    }
    for name, (h2, s2) in transformed.items():
        moved = routes(h2, s2, bath, beta)
        moved_bound = np.maximum(bound, INVARIANCE_RTOL * term_scale(h2, s2, bath, beta))
        assert np.all(np.abs(moved - base) <= moved_bound), (name, base, moved)
        assert abs(moved[1] - moved[2]) <= moved_bound[1], ("F2 = I2", name, moved)


@PROPERTY_SETTINGS
@given(cases(), st.floats(0.25, 4.0))
def test_routes_scale_as_an_energy_squared(case, lam):
    h, s, bath, beta, _, _ = case
    base = routes(h, s, bath, beta)
    scaled_bath = ContinuumBath(s=bath.s, cutoff=lam * bath.cutoff)
    scaled = routes(lam * h, s, scaled_bath, beta / lam)
    bound = SCALING_RTOL * lam**2 * term_scale(h, s, bath, beta)
    assert np.all(np.abs(scaled - lam**2 * base) <= bound), (lam, base, scaled / lam**2)
