"""Central numerical-tolerance record.

The thresholds a run may want to tighten or loosen live here, so they can be
set from one place (or from the CLI config) without hunting through module
code.  The linear-algebra guards that every run shares (hermiticity of
inputs, eigensolver unitarity and reconstruction, the trace a state
derivative may carry) are constants in :mod:`fctherm.linalg`; no run has a
reason to move them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds a run can override.

    Values are absolute unless the name says otherwise.
    """

    # --- state validation ---
    unit_trace: float = 1e-12         # |tr(rho) - 1| for density operators
    psd_mean_force: float = -1e-8     # floor for the assembled second-order state;
                                      # below this the coupling is too strong

    # --- symmetric logarithmic derivative ---
    sld_support: float = 1e-14        # eigenvalue-pair sum treated as a null direction
    sld_kernel_drho: float = 1e-12    # |drho_ij| allowed on a null direction

    # --- perturbation theory ---
    fd_step_rel: float = 1e-5         # finite-difference step h = fd_step_rel * beta
                                      # (read by the tests' d(pi X)/dbeta reference)

    # --- oracle ---
    order_floor_factor: float = 1e3   # deviations below factor*eps*scale are noise

    # --- model construction ---
    tail_population: float = 1e-8     # oscillator truncation: top-level population
    assumption_mean: float = 1e-12    # |<B>| threshold for the zero-mean assumption


#: The field names a config's ``tolerances`` section may set.
TOLERANCE_FIELDS = tuple(f.name for f in fields(Tolerances))

DEFAULT_TOL = Tolerances()
