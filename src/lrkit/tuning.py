"""Learning-rate tuning: range tests, searches, and plateau composition.

The workflow mirrors how rates get tuned by hand, made mechanical:

1. :func:`lr_range_test` brackets the useful rate interval with cheap
   fixed-rate probes over a log grid and a few epoch budgets;
2. :func:`grid_search` / :func:`random_search` train candidate policies
   confined to that interval and :func:`rank_policies` orders the
   results;
3. :func:`change_lr_on_plateau` runs an ordered ladder of policies,
   moving to a faster one while progress stalls early and to a slower
   one when it stalls late, and records the realized schedule so the
   run replays as a static COMPOSITE;
4. :func:`compose_staged_policy` freezes any staged schedule into a
   COMPOSITE value.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, TunerError
from .schedules import (Composite, Cyclic, Exp, Fix, LRPolicy, Poly,
                        POLICY_TYPES, Segment, Step, eval_lr, serialize_policy,
                        validate_policy)
from .tasks import Task
from .training import TrialRecord, train

__all__ = ["Action", "PlateauConfig", "plateau_action", "PolicyLadderController",
           "change_lr_on_plateau", "check_policy_ordering", "RangeTestResult",
           "lr_range_test", "range_result_to_doc", "standard_candidates", "grid_search",
           "random_search", "rank_policies", "iterations_to_target",
           "compose_staged_policy", "mean_peak_by_policy", "RANK_METRICS"]


class Action(enum.Enum):
    """What to do about the current policy, judged from recent progress."""

    NONE = "none"
    INCREASE = "increase"
    DECREASE = "decrease"


@dataclass(frozen=True)
class PlateauConfig:
    """Knobs for plateau detection and phase-dependent switching.

    ``patience`` is how many consecutive recent observations must show
    no improvement beyond ``min_delta`` before the policy changes.
    Before ``phase_split`` of the budget a plateau asks for a larger
    rate; after it, a smaller one.  ``monitored`` selects per-step
    training loss or evaluated validation loss as the signal.
    """

    patience: int = 5
    min_delta: float = 0.05
    monitored: str = "train_loss"  # or "val_loss"
    warmup: int = 0
    phase_split: float = 0.7

    def check(self) -> None:
        if self.patience < 1:
            raise TunerError(f"patience must be >= 1, got {self.patience}")
        if not self.min_delta > 0:
            raise TunerError(f"min_delta must be > 0, got {self.min_delta}")
        if self.monitored not in ("train_loss", "val_loss"):
            raise TunerError(f"monitored must be 'train_loss' or 'val_loss', got {self.monitored!r}")
        if self.warmup < 0:
            raise TunerError(f"warmup must be >= 0, got {self.warmup}")
        if not 0.0 < self.phase_split < 1.0:
            raise TunerError(f"phase_split must lie strictly inside (0, 1), got {self.phase_split}")


def plateau_action(history, current: float, t: int, budget: int,
                   cfg: PlateauConfig = PlateauConfig()) -> Action:
    """Judge progress at iteration ``t`` given past observations.

    Returns NONE while warming up, while fewer than ``patience``
    transitions are observable, or while any of the last ``patience``
    consecutive improvements exceeds ``min_delta``.  Otherwise the
    stream is on a plateau: INCREASE before ``phase_split * budget``,
    DECREASE after.
    """
    if t < cfg.warmup:
        return Action.NONE
    seq = list(history) + [float(current)]
    if len(seq) < cfg.patience + 1:
        return Action.NONE
    window = seq[-(cfg.patience + 1):]
    if any(a - b > cfg.min_delta for a, b in zip(window, window[1:])):
        return Action.NONE
    return Action.INCREASE if t < cfg.phase_split * budget else Action.DECREASE


def check_policy_ordering(policies, budget_iters: int) -> None:
    """Raise unless ``policies[0](t) >= policies[1](t) >= ...`` at every iteration t."""
    if len(policies) < 2:
        return
    for t in range(budget_iters):
        vals = [eval_lr(p, t, budget_iters) for p in policies]
        for j, (a, b) in enumerate(zip(vals, vals[1:])):
            if a < b:
                raise ScheduleError(
                    f"policy ladder is not ordered: policy {j} gives {a:.6g} < "
                    f"policy {j + 1} gives {b:.6g} at t={t}")


def _bind_horizon(policy: LRPolicy, horizon: int) -> LRPolicy:
    # A POLY without an explicit horizon decays over whatever span it is
    # evaluated on; pin the span it actually ran with so a replay over a
    # shorter segment computes the same values.
    if isinstance(policy, Poly) and policy.max_iter is None:
        return Poly(k=policy.k, p=policy.p, max_iter=horizon)
    return policy


class PolicyLadderController:
    """Schedule controller walking an ordered policy ladder on plateaus.

    ``policies`` are ordered from largest to smallest rate; ``index``
    points at the active one.  On a plateau the index moves one rung
    toward larger rates early in the run and toward smaller rates late,
    clamped at the ends.  Each switch restarts the active policy on a
    segment-local clock and clears the observation window, so the window
    must refill before the next move.
    """

    def __init__(self, policies, start_index: int, budget_iters: int,
                 cfg: PlateauConfig = PlateauConfig()):
        cfg.check()
        if cfg.warmup >= budget_iters:
            raise TunerError(f"warmup {cfg.warmup} must be < budget {budget_iters}")
        policies = list(policies)
        if not policies:
            raise TunerError("policy ladder must not be empty")
        if not 0 <= start_index < len(policies):
            raise TunerError(f"start_index {start_index} outside [0, {len(policies)})")
        for i, p in enumerate(policies):
            bad = validate_policy(p, budget_iters)
            if bad:
                raise ScheduleError(f"ladder policy {i} invalid: {'; '.join(bad)}")
            if isinstance(p, Composite):
                raise TunerError("composite policies cannot be ladder rungs")
        check_policy_ordering(policies, budget_iters)
        self._policies = policies
        self._budget = budget_iters
        self._cfg = cfg
        self._index = start_index
        self._seg_start = 0
        # plateau_action reads at most the last `patience` past values.
        self._window: deque[float] = deque(maxlen=cfg.patience)
        # realized segments: (start, index); closed on each switch
        self._switches: list[tuple[int, int]] = [(0, start_index)]

    @property
    def index(self) -> int:
        return self._index

    @property
    def switches(self) -> list[tuple[int, int]]:
        return list(self._switches)

    def lr_for_step(self, t: int) -> float:
        policy = self._bound_active()
        return eval_lr(policy, t - self._seg_start, self._budget - self._seg_start)

    def _bound_active(self) -> LRPolicy:
        return _bind_horizon(self._policies[self._index], self._budget - self._seg_start)

    def observe_train(self, t: int, loss: float) -> None:
        # The loss observed at step t was measured before that step's
        # update, and lr(t) is already spent: a switch first applies at t+1.
        if self._cfg.monitored == "train_loss":
            self._observe(t, t + 1, loss)

    def observe_val(self, iteration: int, loss: float) -> None:
        # A validation point at `iteration` means that many steps are
        # done; the next rate drawn is lr(iteration) itself.
        if self._cfg.monitored == "val_loss":
            self._observe(iteration, iteration, loss)

    def _observe(self, t: int, next_step: int, value: float) -> None:
        action = plateau_action(self._window, value, t, self._budget, self._cfg)
        self._window.append(float(value))
        if action is Action.NONE:
            return
        step = -1 if action is Action.INCREASE else 1
        target = min(max(self._index + step, 0), len(self._policies) - 1)
        if target == self._index:
            return
        self._index = target
        self._seg_start = next_step
        self._window.clear()
        self._switches.append((next_step, target))

    def realized_policy(self) -> LRPolicy:
        """The run's schedule as a COMPOSITE over the realized segments."""
        segments = []
        for (start, idx), nxt in zip(self._switches, self._switches[1:] + [(self._budget, -1)]):
            end = min(nxt[0], self._budget)
            if end <= start:
                continue
            segments.append(Segment(start=start, end=end,
                                    policy=_bind_horizon(self._policies[idx], self._budget - start)))
        return Composite(segments=tuple(segments))


def change_lr_on_plateau(task: Task, policies, start_index: int, *, budget_iters: int,
                         seed: int = 0, optimizer: str = "momentum",
                         cfg: PlateauConfig = PlateauConfig(),
                         eval_every: int | None = None) -> TrialRecord:
    """Train with a plateau-driven policy ladder and record the composite.

    ``policies`` must be ordered from largest to smallest rate at every
    iteration; ``start_index`` picks the initial rung (0-based).  The
    returned record's ``policy`` is the realized COMPOSITE, and its lr
    trace equals that composite's evaluation at every step.
    """
    controller = PolicyLadderController(policies, start_index, budget_iters, cfg)
    return train(task, controller, budget_iters=budget_iters, seed=seed,
                 optimizer=optimizer, eval_every=eval_every)


# ---------------------------------------------------------------------------
# range test

@dataclass(frozen=True)
class RangeTestResult:
    """Accuracy of fixed-rate probes plus the recommended rate interval."""

    lr_grid: tuple[float, ...]
    budgets_epochs: tuple[int, ...]
    top1: tuple[tuple[float, ...], ...]  # [budget][grid point]
    diverged: tuple[tuple[bool, ...], ...]
    recommended: tuple[float, float]


def lr_range_test(task: Task, lr_low: float, lr_high: float, points: int,
                  budgets_epochs, *, seed: int = 0, optimizer: str = "momentum",
                  eval_every: int | None = None) -> RangeTestResult:
    """Probe a log-spaced rate grid with fixed-rate trials.

    The recommendation comes from the largest budget's accuracy curve:
    the upper bound is the largest rate within 0.02 of the peak
    accuracy, the lower bound the smallest rate within 0.05.  A
    degenerate interval widens to the geometric midpoints around the
    peak, so the result always satisfies ``lr_min < lr_max`` and
    contains the empirical argmax.
    """
    if not (0.0 < lr_low < lr_high) or not (np.isfinite(lr_low) and np.isfinite(lr_high)):
        raise TunerError(f"need 0 < lr_low < lr_high, got {lr_low!r}, {lr_high!r}")
    if points < 4:
        raise TunerError(f"need at least 4 grid points, got {points}")
    budgets = sorted(set(int(b) for b in budgets_epochs))
    if not budgets or budgets[0] < 1:
        raise TunerError(f"budgets_epochs must be positive integers, got {budgets_epochs!r}")
    if not task.has_accuracy:
        raise TunerError(f"range test needs an accuracy metric; task {task.task_id!r} has none")
    grid = [float(g) for g in np.geomspace(lr_low, lr_high, points)]
    spe = task.steps_per_epoch

    top1 = [[0.0] * len(grid) for _ in budgets]
    dive = [[False] * len(grid) for _ in budgets]
    for bi, epochs in enumerate(budgets):
        for gi, lr in enumerate(grid):
            rec = train(task, Fix(k=lr), budget_iters=epochs * spe, seed=seed,
                        optimizer=optimizer, eval_every=eval_every)
            top1[bi][gi] = rec.peak_top1 if rec.peak_top1 is not None else 0.0
            dive[bi][gi] = rec.diverged
    if all(all(row) for row in dive):
        raise TunerError("every range-test trial diverged; the grid is too hot")

    curve = top1[-1]
    peak = max(curve)
    arg = curve.index(peak)
    hi_ok = [lr for lr, a in zip(grid, curve) if a >= peak - 0.02]
    lo_ok = [lr for lr, a in zip(grid, curve) if a >= peak - 0.05]
    lr_max = max(hi_ok)
    lr_min = min(lo_ok)
    if lr_min >= lr_max:
        # Single qualifying point: widen to the geometric midpoints
        # around the argmax (grid ends clamp to themselves).
        lr_min = math.sqrt(grid[arg - 1] * grid[arg]) if arg > 0 else grid[0]
        lr_max = math.sqrt(grid[arg] * grid[arg + 1]) if arg + 1 < len(grid) else grid[-1]
    return RangeTestResult(lr_grid=tuple(grid), budgets_epochs=tuple(budgets),
                           top1=tuple(tuple(r) for r in top1),
                           diverged=tuple(tuple(r) for r in dive),
                           recommended=(lr_min, lr_max))


def range_result_to_doc(result: RangeTestResult) -> dict:
    return {
        "lr_grid": list(result.lr_grid),
        "budgets_epochs": list(result.budgets_epochs),
        "top1": [list(r) for r in result.top1],
        "diverged": [list(r) for r in result.diverged],
        "recommended": {"lr_min": result.recommended[0], "lr_max": result.recommended[1]},
    }


# ---------------------------------------------------------------------------
# candidate enumeration and searches

_FAMILIES = ("FIX", "STEP", "EXP", "POLY", "TRI", "SIN", "COS")


def standard_candidates(lr_range: tuple[float, float], budget_iters: int,
                        families=_FAMILIES, points: int = 3) -> list[LRPolicy]:
    """A small cross-family candidate grid confined to ``lr_range``.

    Fixed candidates sit on a log grid across the range; decaying ones
    start at the top and decay toward the bottom over the budget; cyclic
    ones swing across the whole range in four half-cycles.
    """
    lo, hi = float(lr_range[0]), float(lr_range[1])
    if not (0.0 < lo < hi):
        raise TunerError(f"need 0 < lr_min < lr_max, got {lr_range!r}")
    if points < 1:
        raise TunerError(f"points must be >= 1, got {points}")
    ratio = lo / hi
    out: list[LRPolicy] = []
    l_cyc = max(budget_iters // 4, 1)
    for fam in families:
        if fam == "FIX":
            out.extend(Fix(k=float(k)) for k in np.geomspace(lo, hi, points))
        elif fam == "STEP":
            drops = 4
            out.append(Step(k=hi, gamma=max(ratio ** (1.0 / drops), 1e-9),
                            l=max(budget_iters // (drops + 1), 1)))
        elif fam == "EXP":
            out.append(Exp(k=hi, gamma=min(max(ratio ** (1.0 / budget_iters), 1e-9), 1 - 1e-12)))
        elif fam == "POLY":
            out.append(Poly(k=hi, p=1.2))
        elif fam in ("TRI", "SIN", "COS"):
            out.append(Cyclic(kind=fam, k0=lo, k1=hi, l=l_cyc))
        else:
            raise TunerError(f"unknown candidate family {fam!r}")
    return out


def grid_search(task: Task, candidates, *, budget_iters: int, seeds=(0,),
                optimizer: str = "momentum", eval_every: int | None = None) -> list[TrialRecord]:
    """Train every candidate under every seed; records keep grid order."""
    candidates = list(candidates)
    if not candidates:
        raise TunerError("grid_search needs at least one candidate")
    seeds = list(seeds)
    if not seeds:
        raise TunerError("grid_search needs at least one seed")
    for i, cand in enumerate(candidates):
        bad = validate_policy(cand, budget_iters)
        if bad:
            raise ScheduleError(f"candidate {i} invalid: {'; '.join(bad)}")
    return [train(task, cand, budget_iters=budget_iters, seed=seed,
                  optimizer=optimizer, eval_every=eval_every)
            for cand in candidates for seed in seeds]


def random_search(task: Task, lr_range: tuple[float, float], n_samples: int, *,
                  budget_iters: int, seeds=(0,), sample_seed: int = 0,
                  families=_FAMILIES, optimizer: str = "momentum",
                  eval_every: int | None = None) -> list[TrialRecord]:
    """Train ``n_samples`` policies drawn log-uniformly inside ``lr_range``."""
    if n_samples < 1:
        raise TunerError(f"n_samples must be >= 1, got {n_samples}")
    lo, hi = float(lr_range[0]), float(lr_range[1])
    if not (0.0 < lo < hi):
        raise TunerError(f"need 0 < lr_min < lr_max, got {lr_range!r}")
    rng = np.random.default_rng((sample_seed, 17))
    log_lo, log_hi = math.log(lo), math.log(hi)

    def draw_rate(a: float = log_lo, b: float = log_hi) -> float:
        return float(math.exp(rng.uniform(a, b)))

    mid = 0.5 * (log_lo + log_hi)
    samples: list[LRPolicy] = []
    for _ in range(n_samples):
        fam = str(rng.choice(list(families)))
        if fam == "FIX":
            samples.append(Fix(k=draw_rate()))
        elif fam == "STEP":
            drops = int(rng.integers(2, 6))
            samples.append(Step(k=draw_rate(mid, log_hi),
                                gamma=float(rng.uniform(0.3, 0.9)),
                                l=max(budget_iters // (drops + 1), 1)))
        elif fam == "EXP":
            decay = float(rng.uniform(0.01, 0.5))
            samples.append(Exp(k=draw_rate(mid, log_hi),
                               gamma=min(decay ** (1.0 / budget_iters), 1 - 1e-12)))
        elif fam == "POLY":
            samples.append(Poly(k=draw_rate(mid, log_hi), p=float(rng.uniform(0.8, 2.0))))
        elif fam in ("TRI", "SIN", "COS"):
            k0 = draw_rate(log_lo, mid)
            k1 = draw_rate(mid, log_hi)
            half = max(budget_iters // int(rng.integers(2, 9)), 1)
            samples.append(Cyclic(kind=fam, k0=k0, k1=k1, l=half))
        else:
            raise TunerError(f"unknown candidate family {fam!r}")
    return grid_search(task, samples, budget_iters=budget_iters, seeds=seeds,
                       optimizer=optimizer, eval_every=eval_every)


# ---------------------------------------------------------------------------
# ranking

RANK_METRICS = ("peak_top1", "final_loss", "iters_to_target")


def iterations_to_target(record: TrialRecord, target_top1: float) -> int | None:
    """First evaluated iteration reaching ``target_top1``, or None."""
    if all(m.top1 is None for m in record.series):
        raise TunerError(f"record for task {record.task_id!r} has no accuracy series")
    for m in record.series:
        if m.top1 is not None and m.top1 >= target_top1:
            return m.iteration
    return None


def rank_policies(records, metric: str = "peak_top1",
                  target_top1: float | None = None) -> list[TrialRecord]:
    """Order records best-first under ``metric``.

    ``peak_top1`` ranks high accuracy first; ``final_loss`` low loss
    first (non-finite last); ``iters_to_target`` few iterations first
    with unreached runs last.  Ties break on the serialized policy and
    then the seed, so the output is a pure function of the multiset of
    records.
    """
    records = list(records)
    if not records:
        raise TunerError("rank_policies needs at least one record")
    if metric not in RANK_METRICS:
        raise TunerError(f"unknown metric {metric!r}; expected one of {RANK_METRICS}")
    if metric == "iters_to_target" and target_top1 is None:
        raise TunerError("metric 'iters_to_target' needs target_top1")

    def key(rec: TrialRecord):
        if metric == "peak_top1":
            missing = rec.peak_top1 is None
            head = (missing, -(rec.peak_top1 or 0.0))
        elif metric == "final_loss":
            bad = not np.isfinite(rec.final_loss)
            head = (bad, rec.final_loss if not bad else 0.0)
        else:
            it = iterations_to_target(rec, target_top1)
            head = (it is None, it if it is not None else 0)
        return (*head, serialize_policy(rec.policy), rec.seed)

    return sorted(records, key=key)


def mean_peak_by_policy(records) -> list[tuple[LRPolicy, float]]:
    """Mean peak accuracy per distinct policy, best first.

    Ties break on the serialized policy, mirroring :func:`rank_policies`.
    """
    groups: dict[str, tuple[LRPolicy, list[float]]] = {}
    for rec in records:
        if rec.peak_top1 is None:
            continue
        key = serialize_policy(rec.policy)
        groups.setdefault(key, (rec.policy, []))[1].append(rec.peak_top1)
    rows = [(policy, sum(vals) / len(vals), key) for key, (policy, vals) in groups.items()]
    rows.sort(key=lambda r: (-r[1], r[2]))
    return [(policy, value) for policy, value, _ in rows]


def compose_staged_policy(stages) -> Composite:
    """Freeze ``(start, end, policy)`` stages into a validated COMPOSITE."""
    stages = list(stages)
    if not stages:
        raise TunerError("compose_staged_policy needs at least one stage")
    segments = []
    for stage in stages:
        try:
            start, end, policy = stage
        except (TypeError, ValueError):
            raise TunerError(f"stage {stage!r} is not (start, end, policy)") from None
        if not isinstance(policy, POLICY_TYPES):
            raise TunerError(f"stage policy {policy!r} is not a policy value")
        segments.append(Segment(start=int(start), end=int(end), policy=policy))
    composite = Composite(segments=tuple(segments))
    bad = validate_policy(composite, segments[-1].end)
    if bad:
        raise ScheduleError(f"invalid staged policy: {'; '.join(bad)}")
    return composite
