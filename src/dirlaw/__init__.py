"""Dirichlet limit laws for k-part factorizations of integers, monic
polynomials over prime fields, and permutations: exact enumeration,
quadrature for the limiting CDF, convergence reports, and the series
identities behind them.
"""

from .arith import (BUILTIN_MODELS, FactoredInteger, SpfSieve, WeightModel,
                    build_spf_sieve, compositions, factorize, model_coprime,
                    model_nested, model_residues, model_squarefree,
                    model_tau_weights, model_two_squares, model_uniform,
                    parse_model, primes_up_to, sample_factorization, tau_k)
from .caches import get_irreducibles, get_spf_sieve
from .dirichlet import (DirichletParams, RectQuery, SimplexPoint, cdf,
                        cdf_arcsine, cdf_many, cdf_monte_carlo, density,
                        sample_many, simplex_mass)
from .errors import (DirlawError, DomainError, IntegrityError,
                     ResourceError, SingularityError, UnsupportedError)
from .integers import (HistogramGrid, accumulate_histogram,
                       convergence_study, empirical_cdf, exact_lhs, mc_lhs,
                       sup_deviation, weighted_sum_S)
from .perms import (CycleType, StirlingTable, build_stirling, cycle_types,
                    deviation_perm, lhs_perm_brute, lhs_perm_exact,
                    mean_tau_alpha, stirling_first)
from .polyfield import (IrreducibleTable, build_irreducibles, deviation_poly,
                        exact_lhs_poly, irreducible_count)
from .report import DeviationReport, convergence_csv, rect_grid, report_csv
from .series import (SeriesPoint, a0_local_check, d_direct, d_euler,
                     prime_sum_diag)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MODELS", "CycleType", "DeviationReport", "DirichletParams",
    "DirlawError", "DomainError", "FactoredInteger", "HistogramGrid",
    "IntegrityError", "IrreducibleTable", "RectQuery", "ResourceError",
    "SeriesPoint", "SimplexPoint", "SingularityError", "SpfSieve",
    "StirlingTable", "UnsupportedError", "WeightModel", "a0_local_check",
    "accumulate_histogram", "build_irreducibles", "build_spf_sieve",
    "build_stirling", "cdf", "cdf_arcsine", "cdf_many", "cdf_monte_carlo",
    "compositions", "convergence_csv", "convergence_study", "cycle_types",
    "d_direct", "d_euler", "density", "deviation_perm", "deviation_poly",
    "empirical_cdf", "exact_lhs", "exact_lhs_poly", "factorize",
    "get_irreducibles", "get_spf_sieve", "irreducible_count",
    "lhs_perm_brute", "lhs_perm_exact",
    "mc_lhs", "mean_tau_alpha", "model_coprime", "model_nested",
    "model_residues", "model_squarefree", "model_tau_weights",
    "model_two_squares", "model_uniform", "parse_model", "prime_sum_diag",
    "primes_up_to", "rect_grid", "report_csv", "sample_factorization",
    "sample_many", "simplex_mass", "stirling_first", "sup_deviation", "tau_k",
    "weighted_sum_S", "__version__",
]
