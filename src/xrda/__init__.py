"""Composite convex optimization by extended dual averaging.

Minimize f = F + G where F is accessed through (possibly stochastic)
subgradients and G through closed-form backward steps in a chosen mirror
geometry.  See ``solver`` for the iteration, ``schedules`` for the
preset step policies, and ``harness`` for the experiment tooling.
"""

from .geometry import (EuclideanMirror, MirrorDomainError,
                       NegativeEntropyMirror, dual_norm, make_mirror, norm,
                       pairing)
from .regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                           SimplexIndicator, UnsupportedPairError,
                           ZeroRegularizer, canonical_argmin, ensure_supported,
                           in_subdifferential, mirror_prox)
from .problems import (CompositeProblem, build_problem, read_dense_matrix,
                       synthetic_sparse_data, write_dense_matrix)
from .reference import (ReferenceSolution, lower_bound_certificate,
                        prox_subgradient_iterates, reference_optimum)
from .schedules import (Schedule, averaged_leap_frog, constant_backward,
                        constant_steps, forward_backward, leap_frog,
                        power_steps, rda, schedule_preset)
from .solver import (RunResult, ScheduleError, SolverState, TraceRow,
                     argmin_form_step, averaged_iterate, init, run, step,
                     theoretical_bound)
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_file
from .harness import (check_bound, compare, read_trace_csv, run_experiment,
                      write_trace_csv)

__version__ = "0.1.0"
