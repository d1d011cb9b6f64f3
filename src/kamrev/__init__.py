"""Numerical toolbox for invariant tori of reversible systems whose fixed
space is too small for persistence without external parameters.

The pieces, bottom up: trigonometric/Fourier-Taylor arithmetic, Diophantine
pair analysis, small-divisor cohomological solvers, reversible linear
algebra and versal unfoldings, the family model with its involution checks,
the Newton normalizer (direct and sigma-promoted routes), and the
frequency-curve persistence pipeline.
"""

from .errors import (CancellationFailure, ImaginaryResidue, ImplicitSolveFailure,
                     KamrevError, NoConvergence, NonzeroAverage, NotAntiInvariant,
                     NotInvolutive, Obstruction, RootFindFailure, SingularMode,
                     SmallDivisor, StepFailure, TruncationOverflow,
                     UnpairedSpectrum, VersalObstruction, ZeroModeObstruction)
from .fourier import AngleShift, FourierSeries, fs_matmul, fs_mul, fs_stack
from .ftaylor import (FourierTaylor, WSubstitution, fs_neumann_solve, ft_matmul,
                      ft_mul, ft_neumann_solve, involution_pullback)
from .diophantine import (DiophantineParams, DiophantineReport, SpectrumClassification,
                          classify_spectrum, complement_measure_estimate,
                          enumerate_modes, is_diophantine_pair, normal_shifts,
                          scan_divisors)
from .cohomology import (EstimateReport, solve_commutator, solve_normal,
                         solve_right, solve_scalar, verify_estimate)
from .revmat import (InvolutionStructure, KernelReport, MiniversalNilpotent,
                     RevMatrix, Unfolding, VersalityReport, build_augmented,
                     fix_spaces, is_versal, kernel_condition, miniversal_nilpotent,
                     orbit_tangent, solve_fix_range)
from .revsystem import (AugmentedFamily, InstantiatedField, ReversibleFamily,
                        ToyEx1Result, ToyNoSolution, ToySolution, Violation,
                        check_transform_commutes, classify_context, integrate,
                        invert_angle_shift, symmetrize_w_rows, symmetrize_x_row,
                        torus_fixed_points, toy_ex1, toy_ex2, toy_linear,
                        verify_torus)
from .normalizer import (AugmentedNormalizationResult, NormalizationResult,
                         NormalizerConfig, conjugate_field, newton_step,
                         normalize, normalize_augmented)
from .ruessmann import (FrequencyCurve, NondegeneracyReport, PersistenceReport,
                        diophantine_fraction, is_ruessmann_nondegenerate,
                        persistence_pipeline, uniform_grid)

__version__ = "0.1.0"
