"""Step-size estimation from parameter snapshots and policy verification.

The estimator treats three consecutive parameter snapshots as two
successive update displacements and asks what rate would have jumped
straight to the local minimum of the quadratic model they trace out:

    lr_opt = applied_lr * ||d1||_1 / ||d1 - d2||_1,
    d1 = theta_mid - theta_prev,  d2 = theta_next - theta_mid.

On the scalar quadratic ``0.5 * lam * theta**2`` under plain gradient
descent this recovers exactly ``1 / lam`` whatever (stable) rate was
applied.  When the displacement difference is numerically nil the
estimate is reported as singular rather than a garbage quotient.

``verify_policy`` runs the three-phase acceptance workflow for a
candidate policy against a target accuracy: (1) train the candidate and
accept it if it meets the target; (2) otherwise rank the stored policies
for the same dataset and model that can run at this budget, re-train as
one population any that were measured only under a different optimizer,
and hand back the best one, judged by its mean under this optimizer, if
it meets the target; (3) otherwise bracket the rate interval with a range
test, search a small cross-family grid inside it, and hand back the best
find.  All fresh trials are written back to the store.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VerifyError, check_count
from .policydb import DbKey, PolicyDb
from .schedules import LRPolicy, policy_to_doc, validate_policy
from .tasks import Task
from .training import TrialRecord, record_to_doc, train
from .tuning import grid_search, mean_peak_by_policy, probe_lr_range, standard_candidates

__all__ = ["LrEstimate", "estimate_optimal_lr", "optimal_lr_trace",
           "Verdict", "verify_policy", "verdict_to_doc"]


@dataclass(frozen=True)
class LrEstimate:
    """One snapshot-triple estimate; ``lr_opt`` is None when singular."""

    t: int
    applied_lr: float
    lr_opt: float | None

    @property
    def singular(self) -> bool:
        return self.lr_opt is None


def estimate_optimal_lr(theta_prev, theta_mid, theta_next, applied_lr: float,
                        t: int = 0) -> LrEstimate:
    """Estimate the locally optimal rate from three consecutive snapshots.

    ``applied_lr`` must be the rate of the first step taken after
    ``theta_mid`` was captured.  The denominator guard scales with the
    displacement so pure rescaling of the parameters cannot flip a
    regular estimate into a singular one or back.
    """
    p = np.asarray(theta_prev, dtype=float)
    m = np.asarray(theta_mid, dtype=float)
    n = np.asarray(theta_next, dtype=float)
    if not (p.shape == m.shape == n.shape):
        raise VerifyError(f"snapshot shapes differ: {p.shape}, {m.shape}, {n.shape}")
    if not (np.isfinite(applied_lr) and applied_lr > 0.0):
        raise VerifyError(f"applied_lr must be positive and finite, got {applied_lr!r}")
    if not (np.isfinite(p).all() and np.isfinite(m).all() and np.isfinite(n).all()):
        raise VerifyError("non-finite snapshot")
    num = float(np.abs(m - p).sum())
    den = float(np.abs(2.0 * m - p - n).sum())
    guard = 1e-12 * max(1.0, num)
    if den < guard:
        return LrEstimate(t=t, applied_lr=float(applied_lr), lr_opt=None)
    return LrEstimate(t=t, applied_lr=float(applied_lr), lr_opt=float(applied_lr) * num / den)


def optimal_lr_trace(task: Task, policy: LRPolicy, *, budget_iters: int, stride: int = 1,
                     seed: int = 0, optimizer: str = "sgd",
                     eval_every: int | None = None) -> list[LrEstimate]:
    """Train once with snapshots every ``stride`` steps and estimate per triple.

    Estimates land at the middle snapshot of each consecutive triple and
    use the rate applied by the first step after it.  Needs
    ``budget_iters >= 3 * stride`` so at least one triple exists even if
    the final snapshot is lost to divergence.
    """
    check_count(VerifyError, "stride", stride)
    if budget_iters < 3 * stride:
        raise VerifyError(f"budget_iters={budget_iters} too short for stride={stride}; "
                          f"need at least {3 * stride}")
    record = train(task, policy, budget_iters=budget_iters, seed=seed, optimizer=optimizer,
                   eval_every=eval_every, snapshot_stride=stride)
    snaps = record.snapshots
    if len(snaps) < 3:
        raise VerifyError(f"only {len(snaps)} snapshots captured (diverged early?); need 3")
    return [estimate_optimal_lr(prev, mid, nxt, record.lr_trace.lrs[t_mid], t=t_mid)
            for (_, prev), (t_mid, mid), (_, nxt) in zip(snaps, snaps[1:], snaps[2:])]


# ---------------------------------------------------------------------------
# three-phase verification

@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`verify_policy`.

    ``verified`` states whether the *candidate* met the target in phase
    1; ``replacement`` (when set) is a policy whose measured accuracy
    beats the candidate, found in whichever phase ``phase_reached``
    reports.  ``evidence`` holds every trial consulted.
    """

    phase_reached: int
    verified: bool
    target_top1: float
    candidate: LRPolicy
    candidate_top1: float
    replacement: LRPolicy | None
    replacement_top1: float | None
    evidence: tuple[TrialRecord, ...]


def verify_policy(candidate: LRPolicy, task: Task, target_top1: float, *,
                  budget_iters: int, db: PolicyDb, n_top: int = 3, seeds=(0,),
                  optimizer: str = "momentum", eval_every: int | None = None,
                  stable: bool = False) -> Verdict:
    """Three-phase check of ``candidate`` against ``target_top1``.

    Monotone in the target: lowering the target can only turn a verdict
    from unverified to verified, never the reverse, because the measured
    records do not depend on it.
    """
    if not 0.0 <= target_top1 <= 1.0:  # also refuses NaN
        raise VerifyError(f"target_top1 must be in [0, 1], got {target_top1!r}")
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


def verdict_to_doc(verdict: Verdict, *, stable: bool = False) -> dict:
    return {
        "phase_reached": verdict.phase_reached,
        "verified": verdict.verified,
        "target_top1": verdict.target_top1,
        "candidate": policy_to_doc(verdict.candidate),
        "candidate_top1": verdict.candidate_top1,
        "replacement": policy_to_doc(verdict.replacement) if verdict.replacement is not None else None,
        "replacement_top1": verdict.replacement_top1,
        "evidence": [record_to_doc(r, stable=stable, series_cap=128)
                     for r in verdict.evidence],
    }
