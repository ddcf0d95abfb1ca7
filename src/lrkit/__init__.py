"""lrkit: learning-rate schedules, tuning, composition, and verification.

The package turns learning-rate selection into a measurable workflow:
policies are immutable values (:mod:`lrkit.schedules`) trained under
deterministic desk-scale tasks by one lockstep population engine
(:mod:`lrkit.tasks`, :mod:`lrkit.training`), tuned by range tests, searches, and
plateau-driven composition (:mod:`lrkit.tuning`), checked by snapshot
step-size estimates and a three-phase verification workflow
(:mod:`lrkit.verify`), and accumulated in an append-only result store
(:mod:`lrkit.policydb`).  ``lrkit.cli`` exposes the same operations as
a command line.
"""
from .errors import (DbError, LrKitError, OptimizerError, PolicyFormatError,
                     ScheduleError, TaskError, TunerError, VerifyError)
from .optim import (OPTIMIZER_KINDS, OptimizerState, adam_step, make_optimizer,
                    momentum_step, sgd_step)
from .policydb import SCHEMA_VERSION, DbKey, DbRecord, PolicyDb, TrialSummary
from .schedules import (CYCLIC_KINDS, Composite, Cyclic, Exp, Fix, Inv, LRPolicy, NStep,
                        Poly, ScheduleSeries, Segment, Step, check_policy, eval_lr, lr_values,
                        parse_policy, policy_from_doc, policy_to_doc, schedule_series,
                        serialize_policy, series_to_csv, validate_policy)
from .tasks import (LANDSCAPE, TASK_NAMES, Task, blobs2, landscape2d, load_task,
                    mnist_idx, moons2, quad1d)
from .training import (DIVERGENCE_LIMIT, Metrics, ScheduleController, TrialRecord,
                       default_eval_every, downsample_points, record_from_doc,
                       record_to_csv, record_to_doc, train, train_population)
from .tuning import (Action, PlateauConfig, PolicyLadderController, RANK_METRICS,
                     RangeTestResult, change_lr_on_plateau, check_policy_ordering,
                     compose_staged_policy, grid_search, iterations_to_target,
                     lr_range_test, mean_peak_by_policy, metric_value, plateau_action,
                     plateau_search, random_search, range_result_to_doc, rank_policies,
                     standard_candidates)
from .verify import (LrEstimate, Verdict, estimate_optimal_lr, optimal_lr_trace,
                     verdict_to_doc, verify_policy)

__version__ = "0.1.0"
