"""Step-size estimation from parameter snapshots and policy verification.

The estimator treats three consecutive parameter snapshots as two
successive update displacements and asks what rate would have jumped
straight to the local minimum of the quadratic model they trace out:

    lr_opt = applied_lr * ||d1||_1 / ||d1 - d2||_1,
    d1 = theta_mid - theta_prev,  d2 = theta_next - theta_mid.

On ``0.5 * lam * theta**2`` under plain gradient descent this recovers
exactly ``1 / lam`` whatever (stable) rate was applied; a numerically nil
displacement difference is reported as singular.  ``optimal_lr_trace``
estimates every triple of a run in one pass, as ``train`` hands the
snapshots over; ``estimate_optimal_lr``, the one-triple case, checks its.

``verify_policy`` checks a candidate policy against a target accuracy.
It ranks the stored policies for the same dataset and model that can run
at this budget, and trains the candidate as one population with those
that have no mean under this optimizer.  It accepts the candidate if it
meets the target (phase 1), else hands back the best ranked policy if
that does (2), else the best of a small grid searched inside a range
test's rate interval (3).  Every fresh trial is written to the store.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CLOSED_UNIT, POSITIVE, VerifyError, check_count, check_items, check_real
from .optim import check_optimizer
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


# The estimates of the row triples of the (N, P) snapshot arrays p, m and n (previous,
# middle, next), at ts with applied rates lrs; the caller has checked them.
def _estimates(p, m, n, ts, lrs) -> list[LrEstimate]:
    # num and den are the L1 norms of d1 and d1 - d2 = (2 * m - p) - n, summed through one
    # temporary.  The guard scales with the displacement, so pure rescaling of the
    # parameters cannot flip a regular estimate into a singular one or back.
    tmp = m - p
    num = np.abs(tmp, out=tmp).sum(axis=1).tolist()
    np.subtract(np.multiply(2.0, m, out=tmp), p, out=tmp)
    tmp -= n
    den = np.abs(tmp, out=tmp).sum(axis=1).tolist()
    return [LrEstimate(t, lr, None if d < 1e-12 * max(1.0, u) else lr * u / d)
            for t, lr, u, d in zip(ts, lrs, num, den)]


def estimate_optimal_lr(theta_prev, theta_mid, theta_next, applied_lr: float,
                        t: int = 0) -> LrEstimate:
    """Estimate the locally optimal rate from three consecutive snapshots.

    ``applied_lr`` must be the rate of the first step taken after
    ``theta_mid`` was captured.
    """
    check_count(VerifyError, "t", t, 0, "a non-negative integer")
    try:
        p, m, n = (np.asarray(x, dtype=float) for x in (theta_prev, theta_mid, theta_next))
    except (TypeError, ValueError) as exc:
        raise VerifyError("snapshots must be arrays of reals") from exc
    if not (p.shape == m.shape == n.shape):
        raise VerifyError(f"snapshot shapes differ: {p.shape}, {m.shape}, {n.shape}")
    applied_lr = check_real(VerifyError, "applied_lr", applied_lr, *POSITIVE)
    if not (np.isfinite(p).all() and np.isfinite(m).all() and np.isfinite(n).all()):
        raise VerifyError("non-finite snapshot")
    # Each snapshot is one row in memory order, as arithmetic on the arrays would visit
    # it; snapshots laid out unlike each other are read in C order, so they stay aligned.
    order = "K" if p.strides == m.strides == n.strides else "C"
    return _estimates(*(x.ravel(order)[None] for x in (p, m, n)), [t], [applied_lr])[0]


def optimal_lr_trace(task: Task, policy: LRPolicy, *, budget_iters: int, stride: int = 1,
                     seed: int = 0, optimizer: str = "sgd") -> list[LrEstimate]:
    """Train once with snapshots every ``stride`` steps and estimate per triple.

    Estimates land at the middle snapshot of each consecutive triple and
    use the rate applied by the first step after it.  Needs
    ``budget_iters >= 3 * stride`` so at least one triple exists even if
    the final snapshot is lost to divergence.  The run evaluates once.
    """
    check_count(VerifyError, "budget_iters", budget_iters)
    check_count(VerifyError, "stride", stride)
    if budget_iters < 3 * stride:
        raise VerifyError(f"budget_iters={budget_iters} too short for stride={stride}; "
                          f"need at least {3 * stride}")
    record = train(task, policy, budget_iters=budget_iters, seed=seed, optimizer=optimizer,
                   eval_every=budget_iters, snapshot_stride=stride)
    if len(record.snapshots) < 3:
        raise VerifyError(f"only {len(record.snapshots)} snapshots captured (diverged early?); need 3")
    ts, lrs = [t for t, _ in record.snapshots[1:-1]], record.lr_trace.lrs
    S = np.stack([theta for _, theta in record.snapshots])
    del record  # the stack is the one copy of the snapshots from here on
    return _estimates(S[:-2], S[1:-1], S[2:], ts, [lrs[t] for t in ts])


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
    target_top1 = check_real(VerifyError, "target_top1", target_top1, *CLOSED_UNIT)
    check_count(VerifyError, "budget_iters", budget_iters)
    check_count(VerifyError, "n_top", n_top)
    seeds = check_items(VerifyError, "seeds", seeds)
    if not task.has_accuracy:
        raise VerifyError(f"task {task.task_id!r} has no accuracy metric to verify against")
    optimizer = check_optimizer(VerifyError, optimizer)
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

    # Consult the store for the same dataset and model under any
    # optimizer, ranked by the pooled mean, but trust only a mean measured
    # under this optimizer: the rest are re-trained here, in ranked order,
    # as one population with the candidate.  A policy that cannot run at
    # this budget (a COMPOSITE realized over another) is neither re-trained
    # nor handed back.
    stored = db.query_partial(dataset_id=task.task_id, model_id=task.model_id)
    ranked = [policy for policy, _ in mean_peak_by_policy(r.summary for r in stored)
              if policy != candidate and not validate_policy(policy, budget_iters)][:n_top]
    means = dict(mean_peak_by_policy(r.summary for r in stored if r.key == key))
    means.update(measure([candidate, *(policy for policy in ranked if policy not in means)]))
    cand_top1 = means[candidate]
    verified = cand_top1 >= target_top1
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
