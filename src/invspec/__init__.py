"""Forward and inverse spectral solver for a Dirichlet/Robin boundary pair.

The forward half computes eigenvalues and norming constants of
-y'' + q y = mu y on [0, pi] with y(0) = 0 and a Robin condition at pi from
closed-form fourth-order Magnus cell propagators and Newton's method; the
inverse half reconstructs the potential and the boundary angle
from two spectral sequences through the Gelfand-Levitan main equation,
solved on one uniform grid from one Cholesky factor per grid.
"""

from .core import (
    BoundaryAngle,
    Grid,
    GridFunction,
    Potential,
    SpectralData,
    gauss_rule,
    integrate,
    read_potential_csv,
    sample_potential,
    trapezoid_grid,
    write_grid_function_csv,
)
from .asymptotics import (
    DeltaSequence,
    delta_sequence,
    fit_c,
    solve_delta,
    t_beta_closed_form,
    unperturbed_spectrum,
)
from .forward import characteristic, eigenvalues, expand, forward_solve, norming_constants
from .inverse import build_H, recover_beta, recover_q, solve_gl, solve_kernel_field, validate
from .roundtrip import InverseParams, RoundTripReport, example6_oracle, inverse_pipeline

__version__ = "0.1.0"
