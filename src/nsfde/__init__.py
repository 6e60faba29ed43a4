"""Spectral-Galerkin simulation and verification toolkit for neutral
stochastic delay equations driven by Q-Wiener noise.

The pieces: ``spectral`` (diagonalized dissipative operator, semigroup and
fractional-power algebra), ``noise`` (trace-class covariance spectra and
exact stochastic-convolution increments), ``segment`` (history windows; a
stack of them is one ``(S, m + 1, N)`` array), ``coefficients`` (drift,
diffusion and neutral functionals with their condition checkers), ``solver``
(one-step exact-linear integrator, the successive-approximation driver, and
contraction-window arithmetic), ``measure`` (occupation-measure estimation
and distributional tests), ``config``/``serialize``/``cli`` (run plumbing).
"""

from .errors import (BlowupError, ConfigError, DomainError, EllipticityError,
                     NonconvergenceError, NsfdeError, ShapeError,
                     SingularModulusError)
from .spectral import (SpectralOperator, assemble_operator, decay_constants,
                       frac_semigroup_norm, fractional_norm, semigroup_apply,
                       simpson_weights)
from .noise import QWienerSpec, RngStream, builtin_qwiener, ou_std
from .segment import (PROFILES, Segment, constant_segment,
                      from_initial_condition, random_segments, sup_norm,
                      zero_segment)
from .coefficients import (CoefficientSet, GridMaps, Kernel, OsgoodCertificate,
                           ProbeReport, builtin_coefficients, growth_check,
                           lipschitz_probe_g, linear_modulus,
                           modulus_bound_check, modulus_shape_check,
                           osgood_certificate, osgood_drift, osgood_integral,
                           osgood_modulus)
from .solver import (HorizonResult, SolverConfig, Trajectory,
                     contraction_factor, find_horizon, picard_run, simulate,
                     stability_bound)
from .measure import (ComparisonReport, DependenceReport, EmpiricalMeasure,
                      TightnessReport, continuous_dependence_probe,
                      default_functionals, homogeneity_test, invariance_test,
                      krylov_bogoliubov, ks_critical, ks_statistic,
                      run_ensemble, tightness_diagnostic)
from .config import (RunConfig, load_config, make_coefficients,
                     make_initial_segment, make_noise, make_operator,
                     make_solver_config, parse_config, resolved_dict)

__version__ = "0.1.0"
