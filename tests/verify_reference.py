"""Reference for three-phase verification.

``verify_policy`` as lrkit had it before the candidate and its store
re-trains trained as one population, copied verbatim: it trains the
candidate, then consults the store and re-trains, then searches, in up to
three ``measure`` calls.  The one-population workflow must give the same
verdict document and write the same store bytes.
"""
from lrkit.errors import CLOSED_UNIT, VerifyError, check_count, check_real
from lrkit.policydb import DbKey, PolicyDb
from lrkit.schedules import LRPolicy, validate_policy
from lrkit.tasks import Task
from lrkit.training import TrialRecord
from lrkit.tuning import grid_search, mean_peak_by_policy, probe_lr_range, standard_candidates
from lrkit.verify import Verdict


def verify_policy(candidate: LRPolicy, task: Task, target_top1: float, *,
                  budget_iters: int, db: PolicyDb, n_top: int = 3, seeds=(0,),
                  optimizer: str = "momentum", eval_every: int | None = None,
                  stable: bool = False) -> Verdict:
    """Three-phase check of ``candidate`` against ``target_top1``.

    Monotone in the target: lowering the target can only turn a verdict
    from unverified to verified, never the reverse, because the measured
    records do not depend on it.
    """
    target_top1 = check_real(VerifyError, "target_top1", target_top1, *CLOSED_UNIT)
    check_count(VerifyError, "n_top", n_top)
    seeds = list(seeds)
    if not seeds:
        raise VerifyError("verify_policy needs at least one seed")
    if not task.has_accuracy:
        raise VerifyError(f"task {task.task_id!r} has no accuracy metric to verify against")
    key = DbKey(dataset_id=task.task_id, model_id=task.model_id, optimizer_id=optimizer)
    evidence: list[TrialRecord] = []

    def measure(policies) -> dict[LRPolicy, float]:
        """Train and store ``policies``; their mean peak top-1, best first."""
        recs = grid_search(task, policies, budget_iters=budget_iters, seeds=seeds,
                           optimizer=optimizer, eval_every=eval_every)
        for rec in recs:
            db.put(key, rec, stable=stable)
        evidence.extend(recs)
        return dict(mean_peak_by_policy(recs))

    cand_top1 = measure([candidate])[candidate]
    verified = cand_top1 >= target_top1

    # Consult the store for the same dataset and model under any
    # optimizer, ranked by the pooled mean, but trust only a mean measured
    # under this optimizer: the rest are re-trained here as one
    # population, in ranked order.  A policy that cannot run at this
    # budget (a COMPOSITE realized over another) is neither re-trained
    # nor handed back.
    stored = db.query_partial(dataset_id=task.task_id, model_id=task.model_id)
    ranked = [policy for policy, _ in mean_peak_by_policy(r.summary for r in stored)
              if policy != candidate and not validate_policy(policy, budget_iters)][:n_top]
    means = dict(mean_peak_by_policy(r.summary for r in stored if r.key == key))
    retrain = [policy for policy in ranked if policy not in means]
    if retrain:
        means.update(measure(retrain))
    best_policy, best_top1 = max(((p, means[p]) for p in ranked), key=lambda pm: pm[1],
                                 default=(None, -float("inf")))

    if verified:
        phase, better = 1, best_top1 > cand_top1
    elif best_top1 >= target_top1:
        phase, better = 2, True
    else:
        # Phase 3: bracket the rate interval and search a fresh small grid.
        result = probe_lr_range(task, seed=seeds[0], optimizer=optimizer)
        fresh = [c for c in standard_candidates(result.recommended, budget_iters) if c != candidate]
        if not fresh:
            raise VerifyError("phase-3 search grid is empty")
        best_policy, best_top1 = next(iter(measure(fresh).items()))
        phase, better = 3, best_top1 >= cand_top1
    return Verdict(phase_reached=phase, verified=verified, target_top1=target_top1,
                   candidate=candidate, candidate_top1=cand_top1,
                   replacement=best_policy if better else None,
                   replacement_top1=best_top1 if better else None,
                   evidence=tuple(evidence))
