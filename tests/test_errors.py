"""Refused scalar arguments: every library function checks its numbers and counts
through ``errors.check_number``/``check_count``, so a bool, a string, None, a NaN or
an out-of-range value raises ``ConfigError`` naming the argument."""
import math

import numpy as np
import pytest

from nsfde import (ConfigError, RngStream, SolverConfig, assemble_operator,
                   builtin_coefficients, builtin_qwiener, continuous_dependence_probe,
                   decay_constants, find_horizon, frac_semigroup_norm, fractional_norm,
                   growth_check,
                   homogeneity_test, invariance_test, krylov_bogoliubov, ks_critical,
                   lipschitz_probe_g, modulus_bound_check, osgood_integral, ou_std,
                   run_ensemble, semigroup_apply, simpson_weights, simulate,
                   stability_bound, zero_segment)

OP, Q = assemble_operator(n_modes=4), builtin_qwiener(4)
CS = builtin_coefficients(grid_points=32)
QUIET = builtin_coefficients(sigma="one", kernel="zero")
INI = zero_segment(0.05, 0.01, 4)
TRAJS = [simulate(INI, QUIET, OP, Q, SolverConfig(dt=0.01, t_end=0.3, segment_stride=10),
                  RngStream(3, 0))]
MU = krylov_bogoliubov(TRAJS, burn_in=0.1)


def _gen():
    return RngStream(7, 0).generator()


# site: (argument name, call with the argument set to v, out-of-range values of it)
_SITES = {
    "osgood_integral.eps": ("eps", lambda v: osgood_integral(CS, v), (0.0, 1.0, 1.5)),
    "modulus_bound_check.n_samples": ("n_samples", lambda v: modulus_bound_check(CS, v, _gen()),
                                      (0, 10.5)),
    "modulus_bound_check.mixture": ("mixture",
                                    lambda v: modulus_bound_check(CS, 10, _gen(), mixture=v),
                                    (-0.1, 1.5)),
    "lipschitz_probe_g.n_samples": ("n_samples",
                                    lambda v: lipschitz_probe_g(CS, OP, v, _gen(), h=0.05),
                                    (0, 3.5)),
    "growth_check.n_samples": ("n_samples",
                               lambda v: growth_check(CS, OP, v, _gen(), qspec=Q, h=0.05),
                               (0, 3.5)),
    "ks_critical.n": ("n", lambda v: ks_critical(v, 3), (0, 2.5)),
    "ks_critical.m": ("m", lambda v: ks_critical(3, v), (0, 2.5)),
    "run_ensemble.n_traj": ("n_traj", lambda v: run_ensemble(
        INI, QUIET, OP, Q, SolverConfig(dt=0.01, t_end=0.05), seed=31, n_traj=v), (0, 2.5)),
    "invariance_test.t": ("t", lambda v: invariance_test(MU, v, QUIET, OP, Q, 0.01,
                                                         RngStream(60, 0), n_draws=2),
                          (0.0, -0.1)),
    "invariance_test.n_draws": ("n_draws", lambda v: invariance_test(
        MU, 0.1, QUIET, OP, Q, 0.01, RngStream(60, 0), n_draws=v), (1, 2.5)),
    "homogeneity_test.s": ("s", lambda v: homogeneity_test(INI, v, 0.2, QUIET, OP, Q, 0.01,
                                                           RngStream(61, 0), n_samples=2),
                           (-0.1,)),
    "homogeneity_test.t": ("t", lambda v: homogeneity_test(INI, 0.1, v, QUIET, OP, Q, 0.01,
                                                           RngStream(61, 0), n_samples=2),
                           (0.1, 0.05)),
    "homogeneity_test.n_samples": ("n_samples", lambda v: homogeneity_test(
        INI, 0.0, 0.1, QUIET, OP, Q, 0.01, RngStream(61, 0), n_samples=v), (1, 2.5)),
    "continuous_dependence_probe.n_paths": ("n_paths", lambda v: continuous_dependence_probe(
        INI, [INI], 3.0, 0.1, QUIET, OP, Q, 0.01, RngStream(62, 0), n_paths=v), (1, 2.5)),
    "continuous_dependence_probe.p": ("p", lambda v: continuous_dependence_probe(
        INI, [INI], v, 0.1, QUIET, OP, Q, 0.01, RngStream(62, 0), n_paths=2),
        (0.0, math.inf)),
    "ou_std.dt": ("dt", lambda v: ou_std(Q, OP, v), (0.0, -0.01, math.inf)),
    "find_horizon.mg": ("mg", lambda v: find_horizon(v, 3.0, 0.5, 1.0), (0.0, 1.0)),
    "find_horizon.p": ("p", lambda v: find_horizon(0.3, v, 0.5, 1.0), (2.0, math.inf)),
    "find_horizon.alpha": ("alpha", lambda v: find_horizon(0.3, 3.0, v, 1.0), (0.0, 1.5)),
    "find_horizon.c_frac": ("c_frac", lambda v: find_horizon(0.3, 3.0, 0.5, v),
                            (0.0, math.inf)),
    "stability_bound.horizon": ("horizon", lambda v: stability_bound(0.3, 3.0, 0.5, 1.0, v),
                                (-1.0, math.inf)),
    "semigroup_apply.t": ("t", lambda v: semigroup_apply(OP, v, np.ones(4)), (-1e-300,)),
    "frac_semigroup_norm.t": ("t", lambda v: frac_semigroup_norm(OP, 0.5, v), (0.0, -0.1)),
    "frac_semigroup_norm.alpha": ("alpha", lambda v: frac_semigroup_norm(OP, v, 0.3),
                                  (-0.1, 1.1)),
    "decay_constants.alpha": ("alpha", lambda v: decay_constants(OP, v), (-0.1, 1.1)),
    "fractional_norm.alpha": ("alpha", lambda v: fractional_norm(OP, np.ones(4), v),
                              (math.inf,)),
    "krylov_bogoliubov.burn_in": ("burn_in", lambda v: krylov_bogoliubov(TRAJS, v), (-0.1,)),
    "simpson_weights.n_intervals": ("n_intervals", lambda v: simpson_weights(v),
                                    (0, 7, 16.0)),
}


@pytest.mark.parametrize("kind", ["bool", "str", "none", "nan", "out_of_range"])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_a_refused_argument_raises_config_error_naming_it(site, kind):
    # before, a bool ran as 1 (find_horizon's alpha, semigroup_apply's t,
    # invariance_test's t, the dependence probe's p), a NaN dt gave NaN
    # deviations, ks_critical(2.5, 3) returned a value, and a string or None
    # died in a comparison with a bare TypeError naming nothing
    where, call, out_of_range = _SITES[site]
    values = {"bool": (True, False), "str": ("0.5",), "none": (None,), "nan": (math.nan,),
              "out_of_range": out_of_range}[kind]
    for val in values:
        with pytest.raises(ConfigError, match=f"^{where}( must| = )"):
            call(val)


@pytest.mark.parametrize("horizon, dt", [(True, 0.01), ("0.1", 0.01), (None, 0.01),
                                         (math.nan, 0.01), (0.1, True), (0.1, "0.01")])
def test_a_refused_span_or_step_names_the_ratio(horizon, dt):
    # before, a horizon of True ran as 1 and text died with a bare TypeError
    with pytest.raises(ConfigError, match=r"^horizon / dt: span .* must be positive and finite$"):
        continuous_dependence_probe(INI, [INI], 3.0, horizon, QUIET, OP, Q, dt,
                                    RngStream(62, 0), n_paths=2)
