"""Skill encoding with Gaussians on coordinate-system manifolds, chart
selection by covariance determinant, and batch iLQR reproduction."""

from .manifolds import (AntipodalPoint, Euclidean, ManifoldPoint, Product,
                        SpecMismatch, Sphere, TangentVector, exp_map,
                        geodesic_distance, log_map, parallel_transport)
from .charts import (CARTESIAN_2D, CARTESIAN_3D, CYLINDRICAL_3D, POLAR_2D,
                     SPHERICAL_3D, CartesianPose, ChartId, Frame2D, Frame3D,
                     OriginSingularity, chart_jacobian, chart_spec, charts_for,
                     from_chart, to_chart)
from .stats import (ManifoldGaussian, fit_gaussian, geometric_mean,
                    select_winner)
from .kinematics import (ArmModel, JointTrajectory, batch_dynamics,
                         forward_kinematics, kinematic_jacobian, rollout)
from .phases import (Demonstration, PhaseModel, TimeGmm, build_phase_model,
                     fit_time_gmm, phase_weights)
from .planner import (PlanProblem, PlanResult, References,
                      residuals_and_jacobian, gauss_newton_step, solve)
from .tasks import (DEFAULT_ARM, TaskSpec, TrialReport, build_references,
                    default_spec, evaluate_trial, fit_task_model,
                    generate_demos, run_experiment)

__version__ = "0.1.0"
