"""Reference calculations that only the tests read.

The library's oracle forms the exact reduced state straight from the joint
eigenvectors and reports Fisher informations; the acceptance tests also read
the exact logarithmic derivative, and two oracle tests check the
eigenvector contraction against a plain partial trace of the full state.
The zeroth order of the expanded logarithmic derivative, <H> - E_n, is
checked against the one of the bare Gibbs state.  The continuum bath
correlator's tables and the harmonic-mode correlator are checked bit for bit
against the forms that pass every exponent to np.exp.
"""

from __future__ import annotations

import numpy as np

from fctherm import (
    DEFAULT_TOL,
    ContinuumBathCorrelation,
    JointModel,
    ProbeModel,
    gibbs_state,
    sld_solve,
    spectral_density,
)
from fctherm.oracle import _reduced_thermal_and_dbeta


def partial_trace_bath(matrix: np.ndarray, dim_probe: int, dim_bath: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dS*dB) x (dS*dB) matrix."""
    r = np.asarray(matrix).reshape(dim_probe, dim_bath, dim_probe, dim_bath)
    return np.einsum("ibjb->ij", r)


def exact_sld(joint: JointModel, beta: float) -> np.ndarray:
    """Symmetric logarithmic derivative of the exact reduced state (original basis)."""
    return sld_solve(*_reduced_thermal_and_dbeta(joint, beta))


def bare_sld(probe: ProbeModel, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic derivative of the bare Gibbs state pi in the probe
    eigenbasis, from ``sld_solve`` on pi and d pi/d beta = -(H - <H>) pi
    (H and pi commute), with the mask of its support: ``sld_solve`` sets the
    pairs whose populations sum below ``sld_support`` to zero."""
    rho = gibbs_state(probe.decomp, beta).matrix
    h = probe.hamiltonian
    drho = -(h - np.real(np.trace(h @ rho)) * np.eye(probe.dim)) @ rho
    sld = probe.decomp.to_eigenbasis(sld_solve(rho, 0.5 * (drho + drho.conj().T)))
    p = np.real(np.diag(probe.decomp.to_eigenbasis(rho)))
    return sld, np.add.outer(p, p) >= DEFAULT_TOL.sld_support


def continuum_bath_tables(corr: ContinuumBathCorrelation, u) -> tuple:
    """``value`` and ``dbeta`` of a continuum bath correlator at ``u``, from
    two exponential tables with every exponent, however negative, passed to
    np.exp: e^{-u w} and e^{-(beta-u) w} serve both, and e^{-(beta+u) w} is
    e^{-u w} e^{-beta w}."""
    u = np.asarray(u, dtype=float)
    w, beta = corr.rule.nodes, corr.beta
    jw = spectral_density(corr.bath, w) * corr.rule.weights / np.pi
    em = np.exp(-beta * w)
    near = np.exp(-np.multiply.outer(u, w))
    far = np.exp(-np.multiply.outer(beta - u, w))
    val = (near + far) @ (jw / (1.0 - em))
    dval = -(far + near * em) @ (jw * w / (1.0 - em) ** 2)
    return (val, dval) if val.ndim else (float(val), float(dval))


def plain_decay(x) -> np.ndarray:
    """e^x with every exponent, however negative, passed to np.exp: the
    library's ``models._decay`` without its cut below -700."""
    return np.exp(x)
