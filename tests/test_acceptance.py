"""Acceptance suite: the package's headline guarantees, one test each.

Every test pins one numbered guarantee at its stated tolerance and
runtime budget, and prints a one-line PASS summary with the measured
margin (visible under ``pytest -s``; the verbose test row itself is the
pass/fail line):

   1. schedule formulas match a 50-digit oracle over both published
      benchmark grids, relative error <= 1e-12, in under a second;
   2. optimizer steps match hand-computed traces to <= 1e-12, a zero
      momentum coefficient reproduces plain SGD bitwise, and the Adam
      first-step magnitude law holds over random gradients;
   3. analytic gradients of every built-in task agree with central
      finite differences to <= 1e-4 at 10 perturbed points;
   4. the snapshot step-size estimator recovers the exact inverse
      curvature on quadratics (<= 1e-10), flags singular triples, and
      is invariant to parameter rescaling;
   5. on the two-pit landscape, a stepped decay ends strictly below the
      constant rate and the decaying-triangle analogue posts the best
      early cost, with a fixed seed;
   6. on a noisy two-moons MLP, best cyclic mean peak accuracy >= best
      decaying >= best fixed, cyclic beating fixed by >= 0.2 points,
      violations judged against the paired per-seed std;
   7. on the same task, the fastest cyclic policy reaches a
      fixed-rate-achievable accuracy target in <= 1/1.5 of the fixed
      baseline's iterations, averaged over 5 seeds;
   8. plateau-driven ladder composition is non-inferior (1% margin) to
      the best single constituent rate on the blobs task;
   9. the three verification phases produce their exact verdict fields
      on scripted scenarios, and the store's leaderboard over the
      published digit-benchmark accuracies ranks SIN2 first at 0.9933;
  10. store export/import round-trips payloads exactly, the CLI is
      byte-reproducible under --stable-output, and help texts match
      their golden files;
  11. (optional, skipped without data) the IDX digit pipeline reaches
      97% accuracy under a tuned cyclic policy.
"""
import json
import os
import time

import numpy as np
import pytest

from lrkit import (
    Cyclic,
    DbKey,
    Exp,
    Fix,
    Inv,
    NStep,
    PlateauConfig,
    Poly,
    PolicyDb,
    Step,
    adam_step,
    change_lr_on_plateau,
    estimate_optimal_lr,
    eval_lr,
    grid_search,
    iterations_to_target,
    landscape2d,
    load_task,
    make_optimizer,
    mean_peak_by_policy,
    mnist_idx,
    momentum_step,
    optimal_lr_trace,
    policy_from_doc,
    quad1d,
    rank_policies,
    record_to_doc,
    serialize_policy,
    sgd_step,
    train,
    verify_policy,
)
from lrkit.cli import main as cli_main

from _factories import make_record
from fd_check import fd_relative_error
from reference_policies import BUDGET_10K, BUDGET_70K, GRID_10K, GRID_70K, probe_iterations
from sched_oracle import ref_lr, rel_err
from test_tasks import write_idx_fixture
from test_verify import accuracy_table_task

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# ---------------------------------------------------------------------------
# frozen desk-scale configurations
#
# The two-moons setup behind guarantees 6 and 7 was calibrated once and
# is pinned here.  The choices matter: 3000 points keep the validation
# split (600) large enough that peak accuracy is not an order-statistic
# lottery across seeds, and batch size 4 raises the gradient noise so
# constant rates plateau at a noise floor that annealed iterates
# (decay tails, cyclic bottoms) dip below.  Cycle lengths are multiples
# of the evaluation cadence (800 // 100 = 8) so the anneal bottoms are
# actually sampled.

MOONS_SPEC = "moons2(n=3000,noise=0.3,seed=7,batch=4)"
MOONS_BUDGET = 800
MOONS_SEEDS = (0, 1, 2, 3, 4)
SPEED_TARGET = 0.88  # reached by the fixed baseline on every seed

FIXED_FAMILY = [Fix(0.02), Fix(0.05), Fix(0.1), Fix(0.2), Fix(0.4), Fix(0.8)]
DECAY_FAMILY = [
    Step(0.4, 0.5, 200),
    Exp(0.4, 0.25 ** (1.0 / MOONS_BUDGET)),
    Inv(0.8, 0.01, 1.0),
    Poly(0.4, 0.5),
]
CYCLIC_FAMILY = [
    Cyclic("SIN", 0.01, 0.4, 60),
    Cyclic("TRI", 0.01, 0.4, 60),
    Cyclic("SIN2", 0.01, 0.6, 24),
    # Fast-annealing variant: short cycles under a strong envelope reach
    # low rates within ~50 iterations, which drives the speedup check.
    Cyclic("SINEXP", 0.01, 0.8, 20, gamma=0.01 ** (1.0 / MOONS_BUDGET)),
]

# Landscape analogues for guarantee 5: the constant rate 0.2 is small
# enough to be captured by the shallow pit on the descent path, the
# stepped policy starts at 1.0 (hops the shallow pit) and drops late,
# and the decaying triangle sweeps rates in [0.05, 1.3] from the start.
LAND_FIX = Fix(0.2)
LAND_NSTEP = NStep(1.0, 0.25, (70, 110))
LAND_TRIEXP = Cyclic("TRIEXP", 0.05, 1.3, 20, gamma=0.985)

# Plateau ladder for guarantee 8, started on the middle rung so both an
# increase and the later decreases are exercised.
BLOBS_LADDER = [Fix(0.05), Fix(0.01), Fix(0.002)]
BLOBS_BUDGET = 3000


def _best_by_mean_peak(records):
    policy, value = mean_peak_by_policy(records)[0]
    return policy, value


def _family_records(by_policy, family):
    return [(pol, by_policy[serialize_policy(pol)]) for pol in family]


@pytest.fixture(scope="module")
def moons_sweep():
    """Train all three policy families over all seeds, grouped by policy."""
    task = load_task(MOONS_SPEC)
    t0 = time.perf_counter()
    records = grid_search(task, FIXED_FAMILY + DECAY_FAMILY + CYCLIC_FAMILY,
                          budget_iters=MOONS_BUDGET, seeds=MOONS_SEEDS,
                          optimizer="momentum")
    elapsed = time.perf_counter() - t0
    by_policy: dict[str, list] = {}
    for rec in records:
        by_policy.setdefault(serialize_policy(rec.policy), []).append(rec)
    return by_policy, elapsed


def test_01_schedule_oracle_equivalence():
    t0 = time.perf_counter()
    checks = 0
    worst = 0.0
    for rows, budget in ((GRID_10K, BUDGET_10K), (GRID_70K, BUDGET_70K)):
        for row in rows:
            doc = row["doc"]
            policy = policy_from_doc(doc)
            for t in probe_iterations(doc, budget):
                err = rel_err(eval_lr(policy, t, budget), ref_lr(doc, t, budget))
                assert err <= 1e-12, (doc, t, err)
                worst = max(worst, err)
                checks += 1
    elapsed = time.perf_counter() - t0
    assert len(GRID_10K) + len(GRID_70K) == 35  # every row of both benchmark tables
    assert checks >= 150
    assert elapsed < 1.0
    print(f"PASS 01 schedule oracle: {checks} points, max rel err {worst:.2e} [{elapsed:.3f}s]")


def test_02_optimizer_exactness():
    t0 = time.perf_counter()

    # Single-step values from hand computation.
    assert sgd_step(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.1).tolist() == [1.0, 2.0]
    assert sgd_step(np.array([1.0]), np.array([2.0]), 0.5).tolist() == [0.0]
    got = sgd_step(np.array([0.3, -0.1]), np.array([1.5, -2.0]), 0.01)
    assert got == pytest.approx([0.285, -0.08], rel=1e-12)

    # Three-step traces against straight-line scalar references.
    theta, grads, lr = 0.3, [1.5, -2.0, 0.25], 0.01
    want = []
    th = theta
    for g in grads:
        th = th - lr * g
        want.append(th)
    th_vec = np.array([theta])
    got_trace = []
    for g in grads:
        th_vec = sgd_step(th_vec, np.array([g]), lr)
        got_trace.append(th_vec[0])
    assert got_trace == pytest.approx(want, rel=1e-12)

    mu, eta = 0.9, 0.05
    v, th = 0.0, 1.0
    want = []
    for g in [2.0, -1.0, 0.5]:
        v = mu * v - eta * g
        th = th + v
        want.append(th)
    state = make_optimizer("momentum", 1)
    th_vec = np.array([1.0])
    got_trace = []
    for g in [2.0, -1.0, 0.5]:
        th_vec, state = momentum_step(th_vec, state, np.array([g]), eta)
        got_trace.append(th_vec[0])
    assert got_trace == pytest.approx(want, rel=1e-12)

    b1, b2, eps, eta = 0.9, 0.999, 1e-8, 0.01
    m = v = 0.0
    th = 0.2
    want = []
    for step, g in enumerate([1.0, -0.5, 0.25], start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** step)
        vhat = v / (1.0 - b2 ** step)
        th = th - eta * mhat / (vhat ** 0.5 + eps)
        want.append(th)
    state = make_optimizer("adam", 1)
    th_vec = np.array([0.2])
    got_trace = []
    for g in [1.0, -0.5, 0.25]:
        th_vec, state = adam_step(th_vec, state, np.array([g]), eta)
        got_trace.append(th_vec[0])
    assert got_trace == pytest.approx(want, rel=1e-12)

    # Zero momentum coefficient is bitwise SGD over 1000 random steps.
    rng = np.random.default_rng(123)
    theta_m = rng.normal(size=5)
    theta_s = theta_m.copy()
    state = make_optimizer("momentum", 5, momentum=0.0)
    for _ in range(1000):
        grad = rng.normal(size=5)
        lr = float(abs(rng.normal()) + 1e-4)
        theta_s = sgd_step(theta_s, grad, lr)
        theta_m, state = momentum_step(theta_m, state, grad, lr)
        assert np.array_equal(theta_s, theta_m)

    # Adam first-step magnitude over 100 random gradient scales: the
    # exact law is |delta| = eta / (1 + eps / |g|), so |delta| <= eta
    # always and the bound is tight once |g| clears eps by enough.
    rng = np.random.default_rng(7)
    eta = 0.003
    for _ in range(100):
        c = float(10.0 ** rng.uniform(-6, 3)) * float(rng.choice([-1.0, 1.0]))
        state = make_optimizer("adam", 1)
        th_vec, _ = adam_step(np.array([0.0]), state, np.array([c]), eta)
        delta = abs(th_vec[0])
        assert delta == pytest.approx(eta / (1.0 + 1e-8 / abs(c)), rel=1e-12)
        assert delta <= eta
        if abs(c) >= 1e-2:
            assert delta >= eta * (1.0 - 1e-6)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS 02 optimizer exactness: traces, 1000-step bitwise, 100-gradient law [{elapsed:.3f}s]")


def test_03_gradient_finite_difference(tmp_path):
    t0 = time.perf_counter()
    idx_dir = write_idx_fixture(str(tmp_path))
    tasks = [
        landscape2d(),
        quad1d(lam=2.0),
        quad1d(lam=10.0, theta0=-3.0),
        load_task("blobs2(n=200,seed=7,model='logreg')"),
        load_task("blobs2(n=200,seed=7,model='mlp',hidden=4)"),
        load_task("moons2(n=200,seed=7)"),
        mnist_idx(path=idx_dir, hidden=2, batch=8),
    ]
    worst = 0.0
    for task in tasks:
        rng = np.random.default_rng(42)
        theta0 = task.init(np.random.default_rng((0, 1)))
        for _ in range(10):
            theta = theta0 + 0.5 * rng.standard_normal(task.param_len)
            err = fd_relative_error(task, theta, rng)
            assert err <= 1e-4, (task.task_id, err)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS 03 gradient check: {len(tasks)} tasks x 10 points, max rel err {worst:.2e} [{elapsed:.2f}s]")


def test_04_step_size_estimator_exactness():
    t0 = time.perf_counter()
    for lam in (0.5, 2.0, 10.0):
        task = quad1d(lam=lam)
        lr = 0.25 / lam  # stable for every lam tested
        trace = optimal_lr_trace(task, Fix(k=lr), budget_iters=12, stride=1,
                                 optimizer="sgd")
        assert len(trace) == 11
        for est in trace:
            assert not est.singular
            assert est.lr_opt == pytest.approx(1.0 / lam, rel=1e-10), (lam, est.t)

    # Equal successive displacements admit no curvature estimate.
    assert estimate_optimal_lr([0.0], [1.0], [2.0], 0.1).singular

    # Rescaling all three snapshots leaves the estimate unchanged;
    # powers of two rescale floats exactly, so those are bitwise.
    p, m, n = np.array([0.2, -1.1]), np.array([0.9, -0.3]), np.array([1.2, 0.1])
    base = estimate_optimal_lr(p, m, n, 0.07).lr_opt
    for c in (4.0, 0.25, -8.0):
        assert estimate_optimal_lr(c * p, c * m, c * n, 0.07).lr_opt == base
    assert estimate_optimal_lr(3.7 * p, 3.7 * m, 3.7 * n, 0.07).lr_opt == \
        pytest.approx(base, rel=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS 04 step-size estimator: 1/lam to 1e-10, singular + scaling laws [{elapsed:.3f}s]")


def test_05_landscape_qualitative_ordering():
    t0 = time.perf_counter()
    task = landscape2d()
    runs = {}
    for name, policy in (("FIX", LAND_FIX), ("NSTEP", LAND_NSTEP), ("TRIEXP", LAND_TRIEXP)):
        rec = train(task, policy, budget_iters=150, seed=0, optimizer="sgd",
                    eval_every=1)
        assert not rec.diverged
        final = rec.series[-1].loss
        best70 = min(m.loss for m in rec.series if m.iteration <= 70)
        runs[name] = (final, best70)

    fix_final, fix_70 = runs["FIX"]
    nstep_final, nstep_70 = runs["NSTEP"]
    triexp_final, triexp_70 = runs["TRIEXP"]
    assert nstep_final < fix_final
    assert triexp_70 <= fix_70
    assert triexp_70 <= nstep_70
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS 05 landscape ordering: NSTEP final {nstep_final:.4f} < FIX {fix_final:.4f}; "
          f"TRIEXP best-70 {triexp_70:.4f} <= others [{elapsed:.3f}s]")


def test_06_policy_family_directional_ordering(moons_sweep):
    by_policy, sweep_s = moons_sweep
    t0 = time.perf_counter()

    def family_best(family):
        recs = [r for pol in family for r in by_policy[serialize_policy(pol)]]
        return _best_by_mean_peak(recs)

    best_fix, mean_fix = family_best(FIXED_FAMILY)
    best_dec, mean_dec = family_best(DECAY_FAMILY)
    best_cyc, mean_cyc = family_best(CYCLIC_FAMILY)

    def seed_peaks(policy):
        return np.array([r.peak_top1 for r in by_policy[serialize_policy(policy)]])

    d_cyc_dec = seed_peaks(best_cyc) - seed_peaks(best_dec)
    d_dec_fix = seed_peaks(best_dec) - seed_peaks(best_fix)
    gap = mean_cyc - mean_fix

    # Ordering on mean peaks; a shortfall is only tolerable within one
    # paired per-seed standard deviation.  The hard gap has no slack.
    assert d_cyc_dec.mean() >= -d_cyc_dec.std(), (mean_cyc, mean_dec)
    assert d_dec_fix.mean() >= -d_dec_fix.std(), (mean_dec, mean_fix)
    assert gap >= 0.002, f"cyclic-fixed gap {gap * 100:.2f}pp below 0.2pp"

    elapsed = time.perf_counter() - t0 + sweep_s
    assert elapsed < 120.0
    print(f"PASS 06 family ordering: cyclic {mean_cyc:.4f} ({best_cyc!r}) >= "
          f"decay {mean_dec:.4f} ({best_dec!r}) >= fixed {mean_fix:.4f} ({best_fix!r}), "
          f"gap {gap * 100:.2f}pp [{elapsed:.1f}s]")


def test_07_cost_to_target_speedup(moons_sweep):
    by_policy, sweep_s = moons_sweep
    t0 = time.perf_counter()

    fixed_recs = [r for pol in FIXED_FAMILY for r in by_policy[serialize_policy(pol)]]
    baseline, _ = _best_by_mean_peak(fixed_recs)
    base_iters = [iterations_to_target(r, SPEED_TARGET)
                  for r in by_policy[serialize_policy(baseline)]]
    assert all(it is not None for it in base_iters), \
        "target must be achievable by the fixed baseline on every seed"
    base_mean = float(np.mean(base_iters))

    best_cyc, best_mean = None, float("inf")
    for policy, recs in _family_records(by_policy, CYCLIC_FAMILY):
        its = [iterations_to_target(r, SPEED_TARGET) for r in recs]
        if any(it is None for it in its):
            continue
        mean = float(np.mean(its))
        if mean < best_mean:
            best_cyc, best_mean = policy, mean
    assert best_cyc is not None, "no cyclic policy reached the target on all seeds"

    speedup = base_mean / best_mean
    assert speedup >= 1.5, (base_mean, best_mean)
    elapsed = time.perf_counter() - t0 + sweep_s
    assert elapsed < 120.0
    print(f"PASS 07 cost-to-target: {baseline!r} {base_mean:.0f} iters vs "
          f"{best_cyc!r} {best_mean:.0f} iters, speedup {speedup:.2f}x [{elapsed:.1f}s]")


def test_08_plateau_composition_non_inferiority():
    t0 = time.perf_counter()
    task = load_task("blobs2")
    seeds = (0, 1, 2, 3, 4)

    ladder_final = []
    for seed in seeds:
        rec = change_lr_on_plateau(task, BLOBS_LADDER, 1, budget_iters=BLOBS_BUDGET,
                                   seed=seed, optimizer="momentum",
                                   cfg=PlateauConfig())
        assert not rec.diverged
        ladder_final.append(rec.final_loss)
    ladder_mean = float(np.mean(ladder_final))

    const_recs = grid_search(task, BLOBS_LADDER, budget_iters=BLOBS_BUDGET,
                             seeds=seeds, optimizer="momentum")
    const_means = {}
    for pol in BLOBS_LADDER:
        key = serialize_policy(pol)
        finals = [r.final_loss for r in const_recs if serialize_policy(r.policy) == key]
        const_means[key] = float(np.mean(finals))
    best_const = min(const_means.values())

    assert ladder_mean <= best_const * 1.01, (ladder_mean, best_const)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS 08 plateau ladder: mean final val loss {ladder_mean:.6f} vs best "
          f"constituent {best_const:.6f} (ratio {ladder_mean / best_const:.4f} <= 1.01) "
          f"[{elapsed:.1f}s]")


def test_09_verification_phases_and_leaderboard(tmp_path):
    t0 = time.perf_counter()

    def verify(table, candidate, target, db):
        return verify_policy(candidate, accuracy_table_task(table), target,
                             budget_iters=1, db=db, optimizer="sgd")

    # Phase 1: the candidate meets the target on its own measurement.
    db1 = PolicyDb(str(tmp_path / "p1.jsonl"))
    v1 = verify({0.3: 0.92}, Fix(k=0.3), 0.9, db1)
    assert v1.phase_reached == 1
    assert v1.verified is True
    assert v1.replacement is None
    assert v1.replacement_top1 is None
    assert v1.candidate_top1 == 0.92

    # Phase 2: the candidate falls short and a stored same-setup
    # measurement supplies the replacement.
    db2 = PolicyDb(str(tmp_path / "p2.jsonl"))
    key = DbKey(dataset_id="table", model_id="probe", optimizer_id="sgd")
    stored = Cyclic(kind="TRI", k0=0.01, k1=0.2, l=10)
    db2.put(key, make_record(stored, accs=[(10, 0.95)], task_id="table",
                             model_id="probe"))
    v2 = verify({0.3: 0.5}, Fix(k=0.3), 0.9, db2)
    assert v2.phase_reached == 2
    assert v2.verified is False
    assert v2.replacement == stored
    assert v2.replacement_top1 == 0.95

    # Phase 3: an empty store forces the range-test fallback, whose
    # standard grid contains the one rate the scripted task rewards.
    db3 = PolicyDb(str(tmp_path / "p3.jsonl"))
    mid_fix = float(np.geomspace(1e-4, 1.0, 3)[1])
    v3 = verify({0.3: 0.5, mid_fix: 0.93}, Fix(k=0.3), 0.9, db3)
    assert v3.phase_reached == 3
    assert v3.verified is False
    assert v3.replacement == Fix(k=mid_fix)
    assert v3.replacement_top1 == 0.93
    assert len(v3.evidence) == 10  # candidate trial + 9 grid candidates

    # Leaderboard: the published digit-benchmark accuracies rank SIN2
    # first at 0.9933.
    db4 = PolicyDb(str(tmp_path / "board.jsonl"))
    board_key = DbKey(dataset_id="digits", model_id="cnn", optimizer_id="sgd")
    for row in GRID_10K:
        db4.put(board_key, make_record(policy_from_doc(row["doc"]),
                                       accs=[(10, row["acc"])],
                                       task_id="digits", model_id="cnn"))
    top = db4.top_n(board_key, 3)
    assert top[0] == (policy_from_doc({"type": "SIN2", "k0": 0.01, "k1": 0.06,
                                       "l": 2000}), 0.9933)
    assert [value for _, value in top] == [0.9933, 0.9932, 0.9931]

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS 09 verification: phases 1/2/3 exact, leaderboard top {top[0][1]} "
          f"[{elapsed:.2f}s]")


def _run_cli(argv, capsys):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_10_persistence_and_cli_stability(tmp_path, capsys):
    t0 = time.perf_counter()

    # Export/import round-trip: payloads, ids, and timestamps survive.
    src = PolicyDb(str(tmp_path / "src.jsonl"))
    key = DbKey(dataset_id="digits", model_id="cnn", optimizer_id="sgd")
    for row in GRID_10K[:6]:
        src.put(key, make_record(policy_from_doc(row["doc"]),
                                 accs=[(10, row["acc"])],
                                 task_id="digits", model_id="cnn"))
    dump = str(tmp_path / "dump.jsonl")
    assert src.export(dump) == 6
    dst = PolicyDb(str(tmp_path / "dst.jsonl"))
    assert dst.import_(dump) == 6

    def payload(db):
        return [(r.id, r.inserted_at, record_to_doc(r.record, stable=True))
                for r in db.query_partial()]

    assert payload(dst) == payload(src)

    # Byte-reproducibility: the same --stable-output invocation twice.
    argv = ["--stable-output", "train", "--task", "quad1d(lam=2)",
            "--policy", '{"type": "FIX", "k": 0.1}', "--iters", "60"]
    code_a, out_a, _ = _run_cli(argv, capsys)
    code_b, out_b, _ = _run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "meta" not in json.loads(out_a)

    # Golden help texts for the top-level parser and every subcommand.
    for name, prefix in [("lrkit", []), ("eval", ["eval"]), ("train", ["train"]),
                         ("range-test", ["range-test"]), ("tune", ["tune"]),
                         ("verify", ["verify"]), ("lr-estimate", ["lr-estimate"]),
                         ("db", ["db"])]:
        code, out, _ = _run_cli(prefix + ["--help"], capsys)
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, f"help_{name}.txt"), encoding="utf-8") as f:
            assert out == f.read(), f"help text drifted for {name!r}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS 10 persistence and CLI: round-trip, byte-stable output, 8 golden "
          f"helps [{elapsed:.2f}s]")


def test_11_idx_digits_pipeline_optional():
    idx_dir = os.environ.get(
        "LRKIT_MNIST_DIR",
        os.path.join(os.path.dirname(__file__), os.pardir, "data", "mnist"))
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    if not all(os.path.exists(os.path.join(idx_dir, f)) for f in needed):
        pytest.skip("IDX digit files not available (set LRKIT_MNIST_DIR)")

    t0 = time.perf_counter()
    task = mnist_idx(path=idx_dir, hidden=64, batch=100)
    candidates = [
        Cyclic("SIN", 0.01, 0.2, 300),
        Cyclic("TRI", 0.01, 0.2, 300),
        Cyclic("SIN2", 0.01, 0.4, 300),
    ]
    records = grid_search(task, candidates, budget_iters=3000, seeds=(0,),
                          optimizer="momentum")
    best = rank_policies(records)[0]
    elapsed = time.perf_counter() - t0
    assert best.peak_top1 >= 0.97, (best.policy, best.peak_top1)
    assert elapsed < 300.0
    print(f"PASS 11 digit pipeline: {best.policy!r} peak {best.peak_top1:.4f} "
          f"[{elapsed:.0f}s]")
