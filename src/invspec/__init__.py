"""Forward and inverse spectral solver for a Dirichlet/Robin boundary pair.

The forward half computes eigenvalues and norming constants of
-y'' + q y = mu y on [0, pi] with y(0) = 0 and a Robin condition at pi from
closed-form fourth-order Magnus cell propagators and Newton's method; the
inverse half reconstructs the potential and the boundary angle
from two spectral sequences through a family of second-kind integral
equations solved by Nystrom discretization.
"""

from .core import (
    BoundaryAngle,
    Grid,
    GridFunction,
    Potential,
    RuleKind,
    SpectralData,
    integrate,
    make_grid,
    read_potential_csv,
    sample_potential,
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
from .forward import characteristic, eigenvalues, expand, forward_solve, norming_constants, shoot
from .inverse import build_F, build_H, recover_beta, recover_q, solve_gl, solve_kernel_field, validate
from .roundtrip import InverseParams, RoundTripReport, example6_oracle, inverse_pipeline, roundtrip

__version__ = "0.1.0"
