"""Recursive-integral bases and spectral parameter power series.

The package builds the two interleaved families of iterated anchored
integrals generated by a nonvanishing seed solution of f'' + qf = 0,
evaluates the series solutions of u'' + qu = lambda*u and their
derivatives, provides the generalized Taylor calculus attached to the
seed (generalized derivatives, coefficients, remainder bounds, and
least-squares approximation in the solution bases), constructs the
lower-triangular matrix converting generalized to ordinary derivatives
through exact jet arithmetic, and solves regular Sturm-Liouville
eigenproblems through the resulting characteristic function.
"""

from .errors import (AccuracyWarning, AnchorError, DomainError, EigenError,
                     GridConfigError, JetDivisionError, OrderError,
                     RankCollapseError, SamplingError, SeedError, SppsError)
from .grid import (Grid, GridFunction, cumulative_integral, derivative,
                   read_csv, sample, write_csv)
from .recint import RecursiveFamily, build_family
from .jets import Jet
from .seeds import BuiltinSeed, available_seeds, get_seed
from .series import (TruncationChoice, choose_truncation, eval_u1,
                     eval_u1_prime, eval_u2, eval_u2_prime, residual,
                     u1_grid, u1_prime_grid, u2_grid, u2_prime_grid)
from .gentaylor import (GenDerivativeSequence, GenPolynomial,
                        ProjectionResult, RemainderReport,
                        eval_gen_polynomial, gamma_seq, gen_taylor_coeffs,
                        least_squares_project, remainder_check)
from .transform import (LambdaPoly, TransformMatrix, build_A_closed_form,
                        build_A_recursive, ordinary_from_generalized,
                        solution_taylor_vectors, taylor_eval)
from .sturm import (EigenResult, SlProblem, build_seed, characteristic,
                    find_eigenvalues)

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning", "AnchorError", "DomainError", "EigenError",
    "GridConfigError",
    "JetDivisionError", "OrderError", "RankCollapseError", "SamplingError",
    "SeedError", "SppsError",
    "Grid", "GridFunction", "cumulative_integral", "derivative",
    "read_csv", "sample", "write_csv",
    "RecursiveFamily", "build_family",
    "Jet",
    "BuiltinSeed", "available_seeds", "get_seed",
    "TruncationChoice", "choose_truncation", "eval_u1", "eval_u1_prime",
    "eval_u2", "eval_u2_prime", "residual",
    "u1_grid", "u1_prime_grid", "u2_grid", "u2_prime_grid",
    "GenDerivativeSequence", "GenPolynomial", "ProjectionResult",
    "RemainderReport", "eval_gen_polynomial", "gamma_seq",
    "gen_taylor_coeffs", "least_squares_project", "remainder_check",
    "LambdaPoly", "TransformMatrix", "build_A_closed_form",
    "build_A_recursive", "ordinary_from_generalized",
    "solution_taylor_vectors", "taylor_eval",
    "EigenResult", "SlProblem", "build_seed", "characteristic",
    "find_eigenvalues",
    "__version__",
]
