"""Exact colored Jones polynomials of torus knots for rank <= 2 simple Lie
algebras: q-degrees, stable coefficients, and tails."""

__version__ = "0.1.0"

from .jones import (ColoredJonesResult, TorusKnot, colored_jones, jones_jet,
                    maximizer_bruteforce, minimizer_bruteforce,
                    minimizer_closed_form, missing_point_bound_check,
                    quadratic_forms)
from .kostant import (kostant_closed_A2, kostant_closed_B2, kostant_closed_G2,
                      kostant_dp)
from .lie import RootSystem, Weight, get_root_system
from .mult import (LatticeHull, lattice_hull, missing_points,
                   plethysm_adams_oracle, plethysm_mult, summation_set,
                   weight_mult, weight_mult_freudenthal)
from .qseries import (SeriesDivisionError, SeriesError, ThetaParams,
                      TruncatedSeries, euler_phi, pochhammer, theta)
from .quasipoly import FitError, QuasiPolynomial, fit_quasi_polynomial
from .stability import (StabilityError, TailSeries, a1_theta_difference,
                        a1_triple_product, degree_quasipoly_fit,
                        detect_cstability, detect_jones_tail, jones_family,
                        lemma_FG_transform, minimal_class_modulus, qp_series,
                        stable_coefficients, t4b_series, tail_closed_T2b,
                        tail_closed_T4b, tail_eval_stable_limit)

__all__ = [name for name in dir() if not name.startswith("_")]
