"""Blind over-the-air computation via randomly initialized Wirtinger flow."""

from .ensemble import (GroundTruth, ProblemInstance, compute_nomographic_target,
                       generate_partial_dft, load_instance, make_instance,
                       mean_post, sample_design_tensor, sample_ground_truth,
                       save_instance, synthesize_measurements)
from .errors import (BlaircompError, ConfigError, DegenerateAlignmentError,
                     DegenerateIterateError, DimensionMismatchError,
                     DivergenceError, ParameterError, UndefinedMetricError)
from .metrics import (AlignmentResult, ComponentDecomposition, align_pair,
                      incoherence, snapshot_metrics)
from .solver import (GradientBlocks, Iterate, RunBatch, SolverSettings, StateTrace,
                     loss, population_gradient, random_init, run_wf, wf_step,
                     wirtinger_gradient, wirtinger_hessian_x_block)
from .state_evolution import (PerturbationSeries, SEState, StageReport,
                              detect_stages, extract_perturbations,
                              population_se_step, run_population_se)
from .diagnostics import (ConcentrationReport, HypothesisReport, apply_sign_flips,
                          canonicalize_instance, concentration_report,
                          measure_hypotheses, run_diagnostics_suite,
                          sample_sign_flips, select_loo_indices,
                          sign_flip_ensemble)
from .cli import ExperimentConfig, parse_config, read_trace_csv, run_experiment

__version__ = "0.1.0"
