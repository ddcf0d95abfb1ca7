"""Learning-rate tuning: range tests, searches, and plateau composition.

The workflow mirrors how rates get tuned by hand, made mechanical:

1. :func:`lr_range_test` brackets the useful rate interval with cheap
   fixed-rate probes over a log grid and a few epoch budgets;
2. :func:`grid_search` / :func:`random_search` train candidate policies
   confined to that interval and :func:`rank_policies` orders the
   results;
3. :func:`plateau_search` runs an ordered ladder of policies under
   every seed as one population, each seed moving to a faster rung
   while its progress stalls early and to a slower one when it stalls
   late, and records each realized schedule so the run replays as a
   static COMPOSITE; :func:`change_lr_on_plateau` is its one-seed case;
4. :func:`compose_staged_policy` freezes any staged schedule into a
   COMPOSITE value.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, TunerError, allocating, check_count, is_count
from .schedules import (Composite, Cyclic, Exp, Fix, LRPolicy, Poly, POLICY_TYPES, Segment,
                        Step, check_policy, lr_values, serialize_policy)
from .tasks import Task
from .training import TrialRecord, train_population

__all__ = ["Action", "PlateauConfig", "plateau_action", "PolicyLadderController",
           "plateau_search", "change_lr_on_plateau", "check_policy_ordering", "RangeTestResult",
           "lr_range_test", "probe_lr_range", "range_result_to_doc", "standard_candidates",
           "grid_search", "random_search", "metric_value", "rank_policies", "iterations_to_target",
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
        check_count(TunerError, "patience", self.patience)
        if not self.min_delta > 0:
            raise TunerError(f"min_delta must be > 0, got {self.min_delta}")
        if self.monitored not in ("train_loss", "val_loss"):
            raise TunerError(f"monitored must be 'train_loss' or 'val_loss', got {self.monitored!r}")
        check_count(TunerError, "warmup", self.warmup, 0)
        if not 0.0 < self.phase_split < 1.0:
            raise TunerError(f"phase_split must lie strictly inside (0, 1), got {self.phase_split}")


def plateau_action(history, current: float, t: int, budget: int,
                   cfg: PlateauConfig = PlateauConfig()) -> Action:
    """Judge progress at iteration ``t`` given past observations.

    Returns NONE while warming up, while fewer than ``patience``
    transitions are observable, or while any of the last ``patience``
    consecutive improvements exceeds ``min_delta``.  Otherwise the
    stream is on a plateau: INCREASE before ``phase_split * budget``,
    DECREASE after.  Only the last ``patience`` past values matter.
    Raises :class:`TunerError` for a ``cfg`` that ``cfg.check()`` refuses.
    """
    cfg.check()
    run, action, seq = 0, Action.NONE, [*list(history)[-cfg.patience:], float(current)]
    for prev, value in zip([None, *seq], seq):
        run, action = _plateau_step(run, prev, value, t, budget, cfg)
    return action


def _plateau_step(run: int, prev, value: float, t: int, budget: int, cfg: PlateauConfig):
    # The plateau rule one observation at a time: `run` counts the
    # consecutive transitions up to `prev` (None at the start of a stream)
    # that improved by at most min_delta (NaN compares as no improvement);
    # returns that count up to `value` and the action at iteration t.
    run = 0 if prev is None or prev - value > cfg.min_delta else run + 1
    if t < cfg.warmup or run < cfg.patience:
        return run, Action.NONE
    return run, Action.INCREASE if t < cfg.phase_split * budget else Action.DECREASE


def check_policy_ordering(policies, budget_iters: int) -> None:
    """Raise unless ``policies[0](t) >= policies[1](t) >= ...`` at every iteration t."""
    if len(policies) < 2:
        return
    ts = np.arange(budget_iters)
    vals = np.stack([lr_values(p, ts, budget_iters) for p in policies], axis=1)
    # (t, j) pairs in the order a walk over t, then over j, meets them.
    bad = np.argwhere(vals[:, :-1] < vals[:, 1:])
    if len(bad):
        t, j = bad[0].tolist()
        raise ScheduleError(
            f"policy ladder is not ordered: policy {j} gives {vals[t, j]:.6g} < "
            f"policy {j + 1} gives {vals[t, j + 1]:.6g} at t={t}")


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
    clamped at the ends.  It streams the rule of :func:`plateau_action`,
    keeping the last value and the stalled transitions ending at it.  Each
    switch restarts the active policy on a segment-local clock and clears
    both, so ``patience`` fresh transitions must stall before the next move.
    """

    def __init__(self, policies, start_index: int, budget_iters: int,
                 cfg: PlateauConfig = PlateauConfig()):
        cfg.check()
        check_count(TunerError, "budget_iters", budget_iters)
        if cfg.warmup >= budget_iters:
            raise TunerError(f"warmup {cfg.warmup} must be < budget {budget_iters}")
        policies = list(policies)
        if not policies:
            raise TunerError("policy ladder must not be empty")
        if not (is_count(start_index) and 0 <= start_index < len(policies)):
            raise TunerError(f"start_index {start_index!r} outside [0, {len(policies)})")
        for i, p in enumerate(policies):
            check_policy(p, budget_iters, f"ladder policy {i} invalid")
            if isinstance(p, Composite):
                raise TunerError("composite policies cannot be ladder rungs")
        check_policy_ordering(policies, budget_iters)
        self._policies = policies
        self._budget = budget_iters
        self._cfg = cfg
        self._index = start_index
        self._seg_start = 0
        self._bind_active()
        # The plateau rule's state since the last switch: the last value
        # seen (None before any) and the stalled transitions ending at it.
        self._last, self._run = None, 0
        # realized segments: (start, index); closed on each switch
        self._switches: list[tuple[int, int]] = [(0, start_index)]

    @property
    def index(self) -> int:
        return self._index

    @property
    def switches(self) -> list[tuple[int, int]]:
        return list(self._switches)

    def lr_for_step(self, t: int) -> float:
        i = t - self._seg_start
        if not 0 <= i < len(self._rates):
            raise ScheduleError(f"iteration {i} outside [0, {len(self._rates)})")
        return self._rates[i]

    def _bind_active(self) -> None:
        """Tabulate the active rung over the rest of the budget, on its segment-local clock."""
        span = self._budget - self._seg_start
        policy = _bind_horizon(self._policies[self._index], span)
        self._rates = lr_values(policy, np.arange(span), span).tolist()

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
        value = float(value)
        self._run, action = _plateau_step(self._run, self._last, value, t, self._budget, self._cfg)
        self._last = value
        if action is Action.NONE:
            return
        step = -1 if action is Action.INCREASE else 1
        target = min(max(self._index + step, 0), len(self._policies) - 1)
        if target == self._index:
            return
        self._index = target
        self._seg_start = next_step
        self._bind_active()
        self._last, self._run = None, 0
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


def plateau_search(task: Task, policies, start_index: int, *, budget_iters: int,
                   seeds=(0,), optimizer: str = "momentum",
                   cfg: PlateauConfig = PlateauConfig(),
                   eval_every: int | None = None) -> list[TrialRecord]:
    """Walk the plateau ladder under every seed as one population.

    Each seed gets its own :class:`PolicyLadderController`, so each
    switches rungs on its own losses; records keep seed order and each
    equals :func:`change_lr_on_plateau` for its seed.
    """
    seeds = list(seeds)
    if not seeds:
        raise TunerError("plateau_search needs at least one seed")
    policies = list(policies)
    trials = [(PolicyLadderController(policies, start_index, budget_iters, cfg), seed)
              for seed in seeds]
    return train_population(task, trials, budget_iters=budget_iters, optimizer=optimizer,
                            eval_every=eval_every)


def change_lr_on_plateau(task: Task, policies, start_index: int, *, budget_iters: int,
                         seed: int = 0, optimizer: str = "momentum",
                         cfg: PlateauConfig = PlateauConfig(),
                         eval_every: int | None = None) -> TrialRecord:
    """Train with a plateau-driven policy ladder and record the composite.

    ``policies`` must be ordered from largest to smallest rate at every
    iteration; ``start_index`` picks the initial rung (0-based).  The
    returned record's ``policy`` is the realized COMPOSITE, and its lr
    trace equals that composite's evaluation at every step.  This is
    :func:`plateau_search` for one seed.
    """
    return plateau_search(task, policies, start_index, budget_iters=budget_iters,
                          seeds=(seed,), optimizer=optimizer, cfg=cfg,
                          eval_every=eval_every)[0]


# ---------------------------------------------------------------------------
# range test

def _lr_range(lo, hi) -> tuple[float, float]:
    """``(lo, hi)`` as floats; raises :class:`TunerError` unless ``0 < lo < hi < inf``."""
    lo, hi = float(lo), float(hi)
    if not 0.0 < lo < hi < math.inf:  # also refuses NaN
        raise TunerError(f"need 0 < lr_min < lr_max < inf, got {lo!r}, {hi!r}")
    return lo, hi


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
    """Probe a log-spaced rate grid with fixed-rate trials, one population per budget.

    The recommendation comes from the largest budget's accuracy curve:
    the upper bound is the largest rate within 0.02 of the peak
    accuracy, the lower bound the smallest rate within 0.05.  A
    degenerate interval widens to the geometric midpoints around the
    peak, so the result always satisfies ``lr_min < lr_max`` and
    contains the empirical argmax.
    """
    lr_low, lr_high = _lr_range(lr_low, lr_high)
    if not (is_count(points) and points >= 4):
        raise TunerError(f"need at least 4 grid points, got {points!r}")
    budgets = list(budgets_epochs)
    if not budgets or not all(is_count(b) and b >= 1 for b in budgets):
        raise TunerError(f"budgets_epochs must be positive integers, got {budgets_epochs!r}")
    budgets = sorted(set(budgets))
    if not task.has_accuracy:
        raise TunerError(f"range test needs an accuracy metric; task {task.task_id!r} has none")
    with allocating(TunerError, "points", points):
        grid = [float(g) for g in np.geomspace(lr_low, lr_high, points)]
    spe = task.steps_per_epoch

    top1, dive = [], []
    for epochs in budgets:
        recs = train_population(task, [(Fix(k=lr), seed) for lr in grid],
                                budget_iters=epochs * spe, optimizer=optimizer,
                                eval_every=eval_every)
        top1.append([rec.peak_top1 if rec.peak_top1 is not None else 0.0 for rec in recs])
        dive.append([rec.diverged for rec in recs])
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


def probe_lr_range(task: Task, *, seed: int = 0, optimizer: str = "momentum") -> RangeTestResult:
    """The default range test: six rates over ``[1e-4, 1]``, one epoch, default eval cadence."""
    return lr_range_test(task, 1e-4, 1.0, 6, [1], seed=seed, optimizer=optimizer)


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
                        points: int = 3) -> list[LRPolicy]:
    """A small cross-family candidate grid confined to ``lr_range``.

    Fixed candidates sit on a log grid across the range; decaying ones
    start at the top and decay toward the bottom over the budget; cyclic
    ones swing across the whole range in four half-cycles.
    """
    lo, hi = _lr_range(lr_range[0], lr_range[1])
    check_count(TunerError, "points", points)
    check_count(TunerError, "budget_iters", budget_iters)
    ratio = lo / hi
    drops = 4
    with allocating(TunerError, "points", points):
        out: list[LRPolicy] = [Fix(k=float(k)) for k in np.geomspace(lo, hi, points)]
    out.append(Step(k=hi, gamma=max(ratio ** (1.0 / drops), 1e-9),
                    l=max(budget_iters // (drops + 1), 1)))
    out.append(Exp(k=hi, gamma=min(max(ratio ** (1.0 / budget_iters), 1e-9), 1 - 1e-12)))
    out.append(Poly(k=hi, p=1.2))
    out.extend(Cyclic(kind=kind, k0=lo, k1=hi, l=max(budget_iters // 4, 1))
               for kind in ("TRI", "SIN", "COS"))
    return out


def grid_search(task: Task, candidates, *, budget_iters: int, seeds=(0,),
                optimizer: str = "momentum", eval_every: int | None = None) -> list[TrialRecord]:
    """Train every candidate under every seed as one population; records
    keep grid order (candidate-major)."""
    check_count(TunerError, "budget_iters", budget_iters)
    candidates = list(candidates)
    if not candidates:
        raise TunerError("grid_search needs at least one candidate")
    seeds = list(seeds)
    if not seeds:
        raise TunerError("grid_search needs at least one seed")
    for i, cand in enumerate(candidates):
        check_policy(cand, budget_iters, f"candidate {i} invalid")
    return train_population(task, [(cand, seed) for cand in candidates for seed in seeds],
                            budget_iters=budget_iters, optimizer=optimizer,
                            eval_every=eval_every)


def random_search(task: Task, lr_range: tuple[float, float], n_samples: int, *,
                  budget_iters: int, seeds=(0,), sample_seed: int = 0,
                  optimizer: str = "momentum",
                  eval_every: int | None = None) -> list[TrialRecord]:
    """Train ``n_samples`` policies drawn log-uniformly inside ``lr_range``."""
    check_count(TunerError, "n_samples", n_samples)
    check_count(TunerError, "budget_iters", budget_iters)
    check_count(TunerError, "sample_seed", sample_seed, 0, rule="a non-negative integer")
    lo, hi = _lr_range(lr_range[0], lr_range[1])
    rng = np.random.default_rng((sample_seed, 17))
    log_lo, log_hi = math.log(lo), math.log(hi)

    def draw_rate(a: float = log_lo, b: float = log_hi) -> float:
        return float(math.exp(rng.uniform(a, b)))

    mid = 0.5 * (log_lo + log_hi)
    samples: list[LRPolicy] = []
    for _ in range(n_samples):
        fam = str(rng.choice(list(_FAMILIES)))
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
        else:  # TRI, SIN, COS
            k0 = draw_rate(log_lo, mid)
            k1 = draw_rate(mid, log_hi)
            half = max(budget_iters // int(rng.integers(2, 9)), 1)
            samples.append(Cyclic(kind=fam, k0=k0, k1=k1, l=half))
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


def metric_value(record, metric: str, target_top1: float | None = None) -> float | None:
    """``record``'s value under ``metric``: its peak top-1 (None without
    accuracy), its final loss, or the iterations it took to reach
    ``target_top1`` (``inf`` if it never did).
    """
    if metric == "peak_top1":
        return record.peak_top1
    if metric == "final_loss":
        return record.final_loss
    it = iterations_to_target(record, target_top1)
    return float("inf") if it is None else float(it)


def rank_policies(records, metric: str = "peak_top1",
                  target_top1: float | None = None) -> list[TrialRecord]:
    """Order records best-first under ``metric``.

    ``peak_top1`` ranks high accuracy first, the others low values first;
    a missing or non-finite value (no accuracy, a non-finite loss, a
    target never reached) ranks last.  Ties break on the serialized
    policy and then the seed, so the output is a pure function of the
    multiset of records.
    """
    records = list(records)
    if not records:
        raise TunerError("rank_policies needs at least one record")
    if metric not in RANK_METRICS:
        raise TunerError(f"unknown metric {metric!r}; expected one of {RANK_METRICS}")
    if metric == "iters_to_target" and target_top1 is None:
        raise TunerError("metric 'iters_to_target' needs target_top1")

    def key(rec: TrialRecord):
        value = metric_value(rec, metric, target_top1)
        last = value is None or not math.isfinite(value)
        head = 0.0 if last else (-value if metric == "peak_top1" else value)
        return (last, head, serialize_policy(rec.policy), rec.seed)

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
        segments.append(Segment(start=start, end=end, policy=policy))
    composite = Composite(segments=tuple(segments))
    check_policy(composite, segments[-1].end, "invalid staged policy")
    return composite
