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

The QFI of the assembled state pi (1 + gamma^2 X), coherences included, obeys
the same three invariances.  X and dX/dbeta themselves, rotated back to the
original basis, are smooth in H, so they must move continuously as a cluster
of levels closes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fctherm import (
    ContinuumBath,
    bath_correlation,
    cfi_energy_perturbative,
    probe_correlation,
    probe_custom,
    qfi_from_sld,
    qfi_perturbative_integral,
    quad_imaginary_time,
    sld_solve,
    snr_bound,
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


def invariance_transforms(h, s, rng, complex_field: bool) -> dict:
    """(H, S) under an energy shift, a joint random unitary rotation and S -> -S."""
    u = random_unitary(rng, h.shape[0], complex_field)
    return {
        "shift": (h + float(rng.uniform(-2.0, 2.0)) * np.eye(h.shape[0]), s),
        "rotation": (hermitian_part(u @ h @ u.conj().T), hermitian_part(u @ s @ u.conj().T)),
        "sign": (h, -s),
    }


@PROPERTY_SETTINGS
@given(cases())
def test_routes_are_invariant_under_shift_rotation_and_sign(case):
    h, s, bath, beta, rng, complex_field = case
    base = routes(h, s, bath, beta)
    bound = INVARIANCE_RTOL * term_scale(h, s, bath, beta)
    assert abs(base[1] - base[2]) <= bound[1], ("F2 = I2", base)
    transformed = invariance_transforms(h, s, rng, complex_field)
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


@st.composite
def closing_clusters(draw):
    """(H(shifts), offsets, S, bath, beta): levels in [0, 1], 2 to d - 1 of them
    a cluster at centre + shifts, rotated by one random unitary.  The cluster
    closes along shifts = delta * offsets, with offsets spanning [0, 1]."""
    d = draw(st.integers(3, 6))
    size = draw(st.integers(2, d - 1))
    complex_field = draw(st.booleans())
    beta = draw(st.floats(0.1, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = rng.uniform(0.0, 1.0, d - size)
    centre = rng.uniform(0.0, 1.0)
    offsets = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size - 2)])
    v = random_unitary(rng, d, complex_field)
    s = rng.standard_normal((d, d))
    if complex_field:
        s = s + 1j * rng.standard_normal((d, d))
    s = hermitian_part(s)
    s = s / np.linalg.norm(s, 2)
    bath = ContinuumBath(s=float(rng.uniform(0.5, 3.0)), cutoff=float(10.0 ** rng.uniform(0.0, 2.0)))

    def hamiltonian(shifts: np.ndarray) -> np.ndarray:
        levels = np.concatenate([others, centre + shifts])
        return hermitian_part((v * levels) @ v.conj().T)

    return hamiltonian, offsets, s, bath, beta


@PROPERTY_SETTINGS
@given(closing_clusters())
def test_closing_cluster_moves_x_by_its_slope_only(case):
    # pi X and pi dX/dbeta are smooth in H, so as a cluster of width delta closes
    # they move by at most their slope times delta; rounding may add 1e-11 of
    # their size.  Compared in the original basis, which a tied cluster leaves
    # well defined.  Below 1e-12 of the spectrum eigendecompose ties the
    # cluster and may pair its levels with one another's eigenvectors, which
    # is X at a permutation of the shifts, so the slope is that of moving each
    # member alone, summed over the members.
    hamiltonian, offsets, s, bath, beta = case

    def original(shifts: np.ndarray) -> np.ndarray:
        probe = probe_custom(hamiltonian(shifts), s)
        exp = x_matrix(probe, bath, beta, N_U, N_OMEGA)
        return np.array([probe.decomp.from_eigenbasis(exp.pi_x),
                         probe.decomp.from_eigenbasis(exp.pi_dx)])

    base = original(np.zeros_like(offsets))
    slope = sum(np.max(np.abs(original(1e-4 * e) - original(1e-5 * e)), axis=(1, 2)) / 9e-5
                for e in np.eye(offsets.size))
    size = np.max(np.abs(base), axis=(1, 2))
    for delta in np.logspace(-14, -4, 11):
        moved = np.max(np.abs(original(delta * offsets) - base), axis=(1, 2))
        assert np.all(moved <= 2.0 * slope * delta + 1e-11 * size), (delta, moved, slope * delta)


ASSEMBLED_GAMMA = 1e-2


def assembled_qfi(h, s, bath, beta) -> float:
    """QFI of pi + gamma^2 pi X at ASSEMBLED_GAMMA, coherences included, from
    the SLD of the full state and the analytic beta-derivative of the state."""
    exp = x_matrix(probe_custom(h, s), bath, beta, N_U, N_OMEGA)
    corr = exp.probe_corr
    p, dp, g2 = corr.populations, corr.dpopulations, ASSEMBLED_GAMMA**2
    de = corr.evals - corr.mean_energy  # dp_n = -de_n p_n
    rho = corr.decomp.from_eigenbasis(np.diag(p) + g2 * exp.pi_x)
    drho = corr.decomp.from_eigenbasis(
        np.diag(dp) + g2 * (exp.pi_dx - de[:, None] * exp.pi_x)
    )
    # a cold probe's smallest population can be below what the coherences take
    # from it at this gamma; the matrix is then not a state and has no QFI
    assume(np.linalg.eigvalsh(rho)[0] > 0.0)
    return qfi_from_sld(rho, sld_solve(rho, drho))


def assembled_scale(h, s, bath, beta) -> float:
    """Rounding scale of assembled_qfi: the F0 and F2 scales of term_scale at
    ASSEMBLED_GAMMA, plus ||L0||^2.  A rounding d rho of the state moves the QFI
    by -tr(d rho L^2), and the SLD is L0 = <H> - H up to O(gamma^2)."""
    f0_scale, f2_scale = term_scale(h, s, bath, beta)[:2]
    corr = probe_correlation(probe_custom(h, s), beta)
    sld0 = float(np.max(np.abs(corr.evals - corr.mean_energy)))
    return f0_scale + ASSEMBLED_GAMMA**2 * f2_scale + sld0**2


@PROPERTY_SETTINGS
@given(cases())
def test_assembled_state_qfi_is_invariant_under_shift_rotation_and_sign(case):
    h, s, bath, beta, rng, complex_field = case
    base = assembled_qfi(h, s, bath, beta)
    bound = INVARIANCE_RTOL * assembled_scale(h, s, bath, beta)
    transformed = invariance_transforms(h, s, rng, complex_field)
    for name, (h2, s2) in transformed.items():
        moved = assembled_qfi(h2, s2, bath, beta)
        moved_bound = max(bound, INVARIANCE_RTOL * assembled_scale(h2, s2, bath, beta))
        assert abs(moved - base) <= moved_bound, (name, base, moved)


@st.composite
def offset_cases(draw):
    """(levels, S, bath, beta, c): 2-5 levels on a 1/64 grid in [0, 10], a
    dense coupling and an integer offset c up to 1e9, so that every level of
    diag(levels) + c is exact and H + c is exactly a diagonal matrix."""
    d = draw(st.integers(2, 5))
    levels = np.array(draw(st.lists(st.integers(0, 640), min_size=d, max_size=d))) / 64.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    bath = ContinuumBath(s=float(rng.uniform(0.5, 3.0)), cutoff=float(10.0 ** rng.uniform(0.0, 2.0)))
    return levels, s, bath, draw(st.floats(0.1, 5.0)), draw(st.integers(-10**9, 10**9))


@PROPERTY_SETTINGS
@given(offset_cases())
def test_an_exact_energy_offset_moves_no_bit(case):
    # the levels, measured from the ground level, are the same bits at any
    # offset, so any move of a figure would be the library's own rounding
    levels, s, bath, beta, c = case
    reports = [snr_bound(probe_custom(np.diag(levels + shift), s), bath, 0.1, beta, N_U, N_OMEGA)
               for shift in (0.0, float(c))]
    figures = [(r.f0, r.f2, r.i2, r.x01, r.alpha01) for r in reports]
    assert figures[1] == figures[0], (c, figures)
