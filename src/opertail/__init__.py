"""Operator tail densities of copulas, with the Liouville family as the
closed-form test bed: evaluation, sampling, estimation, and cross-checks."""

from .copulatail import (CompatibilityResult, EmpiricalTailEstimate,
                         MarginalFrame, TailDensityForm, TailOrder,
                         compatibility_defect, copula_density,
                         copula_tail_to_density, density_to_copula_tail,
                         empirical_tail_density, group_invariance_defect,
                         liouville_copula_tail_form, liouville_limit_form,
                         liouville_marginal_frame, quasihomogeneity_defect)
from .exponent import (DivergentIntegralError, IntensityResult,
                       MixedDerivativeResult, OrthantRow, Region,
                       exponent_function, exponent_mixed_derivative_defect,
                       intensity_measure, orthant_convergence)
from .liouville import (DrivingFunction, GenericRV, IntegrabilityError,
                        InvertedDirichlet, LiouvilleParams,
                        NotOperatorRegularlyVarying, Rapid, driving_from_dict)
from .opscale import DiagExponent
from .regvar import (RVSpec, TailIndexEstimate, at_zero, hill_estimate,
                     karamata_defect)

__version__ = "0.1.0"
