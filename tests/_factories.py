"""Shared builders for synthetic trial records used across test modules."""
from lrkit import Metrics, ScheduleSeries, TrialRecord


def make_record(policy, seed=0, accs=None, final_loss=1.0, task_id="toy",
                model_id="m", optimizer="sgd"):
    """A minimal consistent record; ``accs`` is a list of (iteration, top1)."""
    points = accs if accs is not None else [(10, None)]
    series = [Metrics(iteration=i, loss=final_loss, top1=a) for i, a in points]
    tops = [(a, i) for i, a in points if a is not None]
    peak = max((a for a, _ in tops), default=None)
    at = min((i for a, i in tops if a == peak), default=None) if tops else None
    return TrialRecord(task_id=task_id, model_id=model_id, policy=policy,
                       optimizer=optimizer, seed=seed, budget_iters=100,
                       eval_every=10, series=series,
                       lr_trace=ScheduleSeries(),
                       diverged=False, peak_top1=peak, iter_at_peak=at,
                       final_loss=final_loss)
