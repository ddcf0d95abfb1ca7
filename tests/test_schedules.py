"""Schedule evaluation, validation, and serialization tests.

The core check is equivalence against an independent high-precision
oracle (sched_oracle) over the benchmark grids at boundary, mid, and
end iterations.  Whole-horizon evaluation is checked bit for bit
against the one-point formulas (sched_scalar) and against pinned
sha256 of the 70k-iteration ``eval`` CSVs.  Property tests cover the
structural invariants:
boundedness, periodicity, envelope decay, monotone decay, NSTEP as a
composite of FIX segments, and parse/serialize round-trips.  A last one
sends any JSON-shaped document through parsing, validation and
evaluation, where every call returns or raises an ``LrKitError``.
"""
import hashlib
import json
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lrkit import (
    Composite,
    Cyclic,
    Exp,
    Fix,
    Inv,
    LrKitError,
    NStep,
    Poly,
    PolicyFormatError,
    ScheduleError,
    Segment,
    Step,
    CYCLIC_KINDS,
    eval_lr,
    lr_values,
    parse_policy,
    policy_from_doc,
    policy_to_doc,
    schedule_series,
    serialize_policy,
    series_to_csv,
    validate_policy,
)
from lrkit import schedules
from lrkit.cli import main
from reference_policies import (
    BUDGET_10K,
    BUDGET_70K,
    GRID_10K,
    GRID_70K,
    GRID_EXTRA,
    probe_iterations,
)
from sched_oracle import REL_TOL, ref_lr, rel_err
from sched_scalar import scalar_series


def _grid_cases():
    cases = []
    for rows, budget in ((GRID_10K, BUDGET_10K), (GRID_70K, BUDGET_70K), (GRID_EXTRA, BUDGET_10K)):
        for row in rows:
            doc = row["doc"]
            label = json.dumps(doc, separators=(",", ":"))
            cases.append(pytest.param(doc, budget, id=f"{budget}-{label}"))
    return cases


@pytest.mark.parametrize("doc,budget", _grid_cases())
def test_grid_matches_oracle(doc, budget):
    policy = policy_from_doc(doc)
    assert validate_policy(policy, budget) == []
    for t in probe_iterations(doc, budget):
        got = eval_lr(policy, t, budget)
        assert rel_err(got, ref_lr(doc, t, budget)) <= REL_TOL, (doc, t, got)


# ---------------------------------------------------------------------------
# pinned example values


def test_fix_is_constant():
    assert eval_lr(Fix(k=0.01), 7777, BUDGET_10K) == 0.01


def test_tri_boundary_values():
    tri = Cyclic("TRI", k0=0.01, k1=0.06, l=2000)
    assert eval_lr(tri, 0, BUDGET_10K) == pytest.approx(0.01, rel=1e-12)
    assert eval_lr(tri, 2000, BUDGET_10K) == pytest.approx(0.06, rel=1e-12)
    assert eval_lr(tri, 4000, BUDGET_10K) == pytest.approx(0.01, rel=1e-12)


def test_step_two_drops():
    step = Step(k=0.01, gamma=0.85, l=5000)
    assert eval_lr(step, 10000, 10001) == pytest.approx(0.007225, rel=1e-12)


def test_nstep_piecewise_values():
    nstep = NStep(k=0.001, gamma=0.1, boundaries=(60000, 65000))
    assert eval_lr(nstep, 59999, BUDGET_70K) == pytest.approx(0.001, rel=1e-12)
    assert eval_lr(nstep, 60000, BUDGET_70K) == pytest.approx(0.0001, rel=1e-12)
    assert eval_lr(nstep, 65000, BUDGET_70K) == pytest.approx(0.00001, rel=1e-12)


def test_cos_starts_high_ends_low():
    cos = Cyclic("COS", k0=0.01, k1=0.06, l=2000)
    assert eval_lr(cos, 0, BUDGET_10K) == pytest.approx(0.06, rel=1e-12)
    assert eval_lr(cos, 2000, BUDGET_10K) == pytest.approx(0.01, rel=1e-12)


def test_tri2_halved_envelope_value():
    tri2 = Cyclic("TRI2", k0=0.01, k1=0.06, l=2000)
    assert eval_lr(tri2, 6000, BUDGET_10K) == pytest.approx(0.035, rel=1e-12)


def test_poly_defaults_horizon_to_total_iters():
    poly = Poly(k=0.01, p=1.2)
    got = eval_lr(poly, 5000, BUDGET_10K)
    assert got == pytest.approx(0.01 * 0.5 ** 1.2, rel=1e-12)


# ---------------------------------------------------------------------------
# series sampling and CSV


def test_series_fix_points():
    s = schedule_series(Fix(k=0.01), 100, 50)
    assert s.points == ((0, 0.01), (50, 0.01))


def test_series_tri_boundaries():
    s = schedule_series(Cyclic("TRI", 0.01, 0.06, 2000), 4001, 2000)
    ts = [t for t, _ in s.points]
    vs = [v for _, v in s.points]
    assert ts == [0, 2000, 4000]
    assert vs[0] == pytest.approx(0.01, rel=1e-12)
    assert vs[1] == pytest.approx(0.06, rel=1e-12)
    assert vs[2] == pytest.approx(0.01, rel=1e-12)


def test_series_exp_endpoint():
    s = schedule_series(Exp(k=0.01, gamma=0.99994), 10000, 9999)
    (t0, v0), (t1, v1) = s.points
    assert (t0, v0) == (0, 0.01)
    assert t1 == 9999
    assert v1 == pytest.approx(0.005488, rel=1e-3)
    doc = {"type": "EXP", "k": 0.01, "gamma": 0.99994}
    assert rel_err(v1, ref_lr(doc, 9999, 10000)) <= REL_TOL


def test_series_to_csv_format():
    s = schedule_series(Fix(k=0.01), 3, 1)
    assert series_to_csv(s) == "t,lr\n0,0.01\n1,0.01\n2,0.01\n"


def test_series_rejects_bad_stride():
    with pytest.raises(ScheduleError):
        schedule_series(Fix(k=0.01), 10, 0)


# ---------------------------------------------------------------------------
# whole-horizon evaluation, bit for bit


def _assert_bitwise(policy, total, stride=1):
    """schedule_series equals the one-point formulas in every bit."""
    got = [v for _, v in schedule_series(policy, total, stride).points]
    assert list(map(float.hex, got)) == list(map(float.hex, scalar_series(policy, total, stride)))


@pytest.mark.parametrize("doc", [row["doc"] for row in GRID_70K + GRID_EXTRA],
                         ids=lambda doc: json.dumps(doc, separators=(",", ":")))
def test_series_grid_matches_scalar_formulas(doc):
    _assert_bitwise(policy_from_doc(doc), BUDGET_70K)


_TRI_AT_70K = Cyclic("TRI", 0.001, 0.006, 2000)
_EDGE_CASES = [
    *(pytest.param(Cyclic(kind, 0.01, 0.06, 1, 0.9 if "EXP" in kind else None), 50, 1,
                   id=f"{kind}-l1") for kind in ("TRI", "SIN2", "COS", "TRIEXP", "SINEXP", "COS2")),
    pytest.param(Cyclic("SIN", 0.02, 0.02, 7), 100, 1, id="k0-eq-k1"),
    pytest.param(Cyclic("TRIEXP", 0.05, 0.05, 3, 0.99), 100, 1, id="k0-eq-k1-exp"),
    *(pytest.param(p, 1, 1, id=f"total1-{type(p).__name__}") for p in (
        Fix(0.1), Step(0.1, 0.5, 3), Exp(0.1, 0.5), Inv(0.1, 0.5, 1.5), Poly(0.1, 2.0),
        Cyclic("COSEXP", 0.01, 0.06, 4, 0.9))),
    pytest.param(_TRI_AT_70K, BUDGET_70K, 7, id="stride7"),
    pytest.param(_TRI_AT_70K, BUDGET_70K, 1000, id="stride1000"),
    pytest.param(_TRI_AT_70K, BUDGET_70K, 69999, id="stride69999"),
    pytest.param(_TRI_AT_70K, 10, 25, id="stride-past-total"),
    pytest.param(Poly(0.01, 1.2), 500, 1, id="poly-max-iter-none"),
    pytest.param(Poly(0.01, 1.2, max_iter=499), 500, 1, id="poly-max-iter-total-1"),
    pytest.param(Poly(0.01, 0.5, max_iter=499), 500, 3, id="poly-max-iter-total-1-stride3"),
    pytest.param(Poly(0.01, 1.2, max_iter=500), 500, 1, id="poly-max-iter-total"),
    pytest.param(Poly(0.01, 0.5, max_iter=500), 500, 3, id="poly-max-iter-total-stride3"),
    pytest.param(Step(0.1, 0.5, 900), 500, 1, id="step-l-past-total"),
    pytest.param(NStep(0.1, 0.3, (10, 499, 500, 800)), 500, 1, id="nstep-boundaries-past-horizon"),
    pytest.param(Exp(0.01, 1 - 1e-7), BUDGET_70K, 1, id="exp-gamma-1-1e-7"),
    pytest.param(Inv(0.01, 0.0003, 0.37), 5000, 1, id="inv-non-integer-p"),
    pytest.param(Composite((Segment(0, 35, Cyclic("TRI", 0.01, 0.05, 10)),
                            Segment(35, 80, Cyclic("COS2", 0.05, 0.001, 7)),
                            Segment(80, 123, Cyclic("SINEXP", 0.002, 0.02, 6, 0.97)),
                            Segment(123, 200, Poly(0.01, 1.5)))), 200, 1,
                 id="composite-cyclic-restart"),
]


@pytest.mark.parametrize("policy,total,stride", _EDGE_CASES)
def test_series_edge_cases_match_scalar_formulas(policy, total, stride):
    if isinstance(policy, Poly) and policy.max_iter == total - 1:
        # Its rate reaches 0 at the last iteration, so evaluation refuses it.
        with pytest.raises(ScheduleError, match=rf"^invalid policy: the rate reaches 0 by "
                                                rf"t={total - 1}$"):
            schedule_series(policy, total, stride)
    else:
        _assert_bitwise(policy, total, stride)


@pytest.mark.parametrize("policy,calls", [
    (Cyclic("TRI", 0.01, 0.06, 7), {"sin": 100, "asin": 100}),
    (Cyclic("SIN2", 0.01, 0.06, 7), {"sin": 100, "pow": 100}),
    (Cyclic("COSEXP", 0.01, 0.06, 7, 0.99), {"cos": 100, "pow": 100}),
    (Step(0.1, 0.5, 30), {"pow": 100}),
    (NStep(0.1, 0.5, (10, 20, 200)), {"pow": 100}),
    (Exp(0.1, 0.99), {"pow": 100}),
    (Inv(0.1, 0.01, 0.75), {"pow": 100}),
    (Poly(0.1, 1.5), {"pow": 100}),
    (Fix(0.1), {}),
], ids=lambda x: getattr(x, "TYPE", ""))
def test_libm_calls_stay_on_pythons(policy, calls, monkeypatch):
    # numpy's sin, arcsin, cos and power may round differently from Python's
    # on some platforms, so whole-horizon evaluation must make every libm call
    # through Python, once per point, and once more where validation
    # evaluates the last iteration.
    seen = Counter()

    def counted(name, fn):
        return lambda *args: (seen.update([name]), fn(*args))[1]

    for name in ("sin", "asin", "cos"):
        monkeypatch.setattr(math, name, counted(name, getattr(math, name)))
    monkeypatch.setattr(schedules, "pow", counted("pow", pow), raising=False)
    got = [v for _, v in schedule_series(policy, 100).points]
    monkeypatch.undo()
    assert dict(seen) == {name: n + 1 for name, n in calls.items()}
    assert got == scalar_series(policy, 100)


def _random_policy(rng: random.Random, total: int, composite: bool = True):
    """One valid policy over ``total`` iterations, with parameters spread over decades."""
    kinds = ["FIX", "STEP", "NSTEP", "EXP", "INV", "POLY", *CYCLIC_KINDS]
    kind = rng.choice(kinds + ["COMPOSITE"] * (composite and total > 1))

    def rate():
        return 10 ** rng.uniform(-5, 0)

    def gamma():
        return rng.choice([1 - 10 ** rng.uniform(-7, -1), rng.uniform(0.5, 0.99)])

    if kind == "FIX":
        return Fix(rate())
    if kind == "STEP":
        return Step(rate(), gamma(), rng.randint(max(1, total // 100), 2 * total))
    if kind == "NSTEP":
        bounds = sorted(rng.sample(range(1, 2 * total + 10), rng.randint(1, 6)))
        return NStep(rate(), rng.uniform(0.5, 0.99), tuple(bounds))
    if kind == "EXP":
        return Exp(rate(), 1 - 10 ** rng.uniform(-7, -3))
    if kind == "INV":
        return Inv(rate(), 10 ** rng.uniform(-6, 0), rng.uniform(0.1, 3.0))
    if kind == "POLY":
        return Poly(rate(), rng.uniform(0.1, 3.0),
                    rng.choice([None, total + rng.randint(0, 3)]))
    if kind == "COMPOSITE":
        cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(1, 3))))
        edges = [0, *cuts, total]
        return Composite(tuple(Segment(a, b, _random_policy(rng, b - a, composite=False))
                               for a, b in zip(edges, edges[1:])))
    k0 = rate()
    k1 = k0 if rng.random() < 0.1 else rate()
    l = rng.choice([1, 2, 3, rng.randint(1, total)])
    return Cyclic(kind, k0, k1, l, 1 - 10 ** rng.uniform(-7, -2) if kind.endswith("EXP") else None)


@pytest.mark.parametrize("seed", range(4))
def test_series_random_policies_match_scalar_formulas(seed):
    rng = random.Random(seed)
    for _ in range(80):
        total = int(10 ** rng.uniform(0, 4))
        policy = _random_policy(rng, total)
        assert validate_policy(policy, max(total, 1)) == [], policy
        _assert_bitwise(policy, total, rng.choice([1, 1, rng.randint(2, 50)]))


def _tabulate_docs():
    """The benchmark's tabulate policies: both reference grids and a 3-segment COMPOSITE."""
    docs = [row["doc"] for row in GRID_70K + GRID_EXTRA]
    cut1, cut2 = BUDGET_70K // 7, BUDGET_70K * 4 // 7
    docs.append({"type": "COMPOSITE", "segments": [
        {"start": a, "end": b, "policy": d}
        for a, b, d in ((0, cut1, docs[9]), (cut1, cut2, docs[5]), (cut2, BUDGET_70K, docs[8]))]})
    return docs


# sha256 of ``lrkit eval --iters 70000`` for each tabulate policy, as the
# one-point formulas wrote them.
_EVAL_70K_SHA256 = [
    "1603e5c4ee420d3f731a4d4f3faa6fa10bee20265651344fccd861378a24bed8",
    "39049c9b847edc90ea2f840573d23cc74f560e9572837c21089d9b678a2a1016",
    "a280c9a36aec75fffec5fc37ea3b6486db9fa6e70f4b17e0a772acf6dd782c9f",
    "424700a49aebd0e9b94bccd1cc4250c0e3ef260b492f67def0fb15b530e79ffa",
    "7924c50c684aafe782fae74ed6874f13d48ec67356c5876770f2cd60cee27a2f",
    "a3cadc7d56d3fafa8a52731cf518be38a3500db65539e2e98bd09029b482c2f2",
    "da4ac733b77ec998c8dd2d89ccc94df532cf673ceea016cc5ede86bb4a067b52",
    "5def2cff895696f9738b527f083fe25d3306d5615ab4242ad630442d64e17792",
    "e599eb384267ffe35e13b74d198a274eb17d14fb3b45678685e8e2e9befdadd7",
    "f226b68d3b74bc650d7700fb498dc432da7da8ad49afdf6e0a1f7bc4533d1e89",
    "3021a85e8350890aaa7405e094747f71178c97cf3eea616ec40ab5d94501325e",
    "8881f7ebcc94a33bdd3ca1211efd01479d96ba1f8251f0a0e45aa358d472eec1",
    "0e66bb76b85df41f2fbfab93bdab1a981f2b1c6f8af114e82aebd2f631725692",
    "028bcfa8e75e456c4f21b1f69a4f41b4fd1b55989d8f71ac744eafe74f6401f1",
    "e5fb26d9076486be492273d44f02ee0eb32ecddd1e588b51f05f946c972772a4",
    "4361278c6515845eeb917093f0b4f1cb7c72377d92766e3308c23031a7f684ad",
    "beaabbf43d528a30ea2c05617571d5346825a86581e88744bf408a711533200d",
    "4e5e3f2bc091d57dd09f62dab9ad8ce506a874d6ee2090687fb619d4a99a2a5e",
    "2892a6f64c61531b47dca0bc2d189514b4f172b6e00a3f28e86c38b464e4c574",
    "bf2ef12c6a75dc16f91ee98def2625d6af885ff5c3b2751d9e8f82b6d75627a9",
    "c64e6b820a62aa8990079d64eddab413e1568c97d4b636d0ad8271bfc0c0e1fd",
    "fc0398051fd9f16694ae3f5bf835cc7445c4e6e216aabaa7f13cd42bf9c08b7f",
]


@pytest.mark.parametrize("i", range(len(_EVAL_70K_SHA256)))
def test_eval_70k_csv_bytes_are_pinned(i, tmp_path, capsys):
    prefix = str(tmp_path / "lr")
    doc = _tabulate_docs()[i]
    assert main(["--out", prefix, "eval", "--policy", json.dumps(doc),
                 "--iters", str(BUDGET_70K)]) == 0
    with open(prefix + ".csv", "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == _EVAL_70K_SHA256[i], doc


def test_lr_values_is_eval_lr_at_each_iteration():
    policy = Composite((Segment(0, 40, Cyclic("TRI2", 0.01, 0.05, 6)),
                        Segment(40, 90, Inv(0.02, 0.01, 0.75))))
    ts = np.array([89, 0, 39, 40, 41, 17, 17])
    for arr in (ts, ts.astype(">i8"), ts.astype(np.uint8), ts.astype(np.int32), np.arange(90)[::7]):
        assert lr_values(policy, arr, 90).tolist() == [eval_lr(policy, int(t), 90) for t in arr]
    assert lr_values(policy, np.array([], dtype=int), 90).shape == (0,)


def test_lr_values_rejects_bad_iterations():
    with pytest.raises(ScheduleError, match=r"iteration 10 outside \[0, 10\)"):
        lr_values(Fix(0.1), np.array([3, 10, -1]), 10)
    with pytest.raises(ScheduleError, match="1-D integer array"):
        lr_values(Fix(0.1), np.array([0.0, 1.0]), 10)
    with pytest.raises(ScheduleError, match=r"^invalid policy: max_iter=5 is shorter than the "
                                            r"horizon: .* \(need >= 9\)$"):
        lr_values(Poly(0.1, 1.0, max_iter=5), np.arange(10), 10)


def test_inv_overflow_is_a_schedule_error():
    # (1 + t * 1e300) ** 5 leaves the float range from t = 1, so the rate
    # reaches 0 within the horizon and evaluation refuses the policy.
    inv = Inv(k=1.0, gamma=1e300, p=5.0)
    assert validate_policy(inv, 10) == ["the rate reaches 0 by t=9"]
    for evaluate in (lambda: schedule_series(inv, 10), lambda: eval_lr(inv, 0, 10)):
        with pytest.raises(ScheduleError, match=r"^invalid policy: the rate reaches 0 by t=9$"):
            evaluate()
    # In a COMPOSITE the segment's own clock names the iteration.
    comp = Composite((Segment(0, 5, Fix(0.1)), Segment(5, 10, Inv(1.0, 1e100, 3.5))))
    assert validate_policy(comp, 10) == ["segment 1: the rate reaches 0 by t=4"]
    with pytest.raises(ScheduleError,
                       match=r"^invalid policy: segment 1: the rate reaches 0 by t=4$"):
        schedule_series(comp, 10, 2)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_fix():
    assert validate_policy(Fix(k=0.01), BUDGET_10K) == []


def test_validate_rejects_step_gamma_out_of_range():
    out = validate_policy(Step(k=0.01, gamma=1.5, l=5000), BUDGET_10K)
    assert len(out) == 1 and "gamma" in out[0]


def test_validate_rejects_uncovered_composite():
    comp = Composite((
        Segment(0, 60000, Cyclic("TRI", 0.01, 0.06, 2000)),
        Segment(60000, 65000, Cyclic("TRI2", 0.01, 0.06, 2000)),
    ))
    out = validate_policy(comp, BUDGET_70K)
    assert any("cover" in v for v in out)


def test_validate_rejects_gap_and_overlap():
    gap = Composite((Segment(0, 10, Fix(0.1)), Segment(12, 20, Fix(0.1))))
    overlap = Composite((Segment(0, 10, Fix(0.1)), Segment(8, 20, Fix(0.1))))
    assert any("gap" in v for v in validate_policy(gap, 20))
    assert any("overlap" in v for v in validate_policy(overlap, 20))


def test_validate_rejects_composite_not_starting_at_zero():
    comp = Composite((Segment(5, 20, Fix(0.1)),))
    assert any("start at 0" in v for v in validate_policy(comp, 20))


def test_validate_rejects_nested_composite():
    inner = Composite((Segment(0, 10, Fix(0.1)),))
    comp = Composite((Segment(0, 10, inner),))
    assert any("nested" in v for v in validate_policy(comp, 10))


def test_validate_rejects_bad_boundaries():
    out = validate_policy(NStep(k=0.01, gamma=0.9, boundaries=(10, 10)), 100)
    assert any("strictly increasing" in v for v in out)
    out = validate_policy(NStep(k=0.01, gamma=0.9, boundaries=()), 100)
    assert any("empty" in v for v in out)


def test_validate_rejects_nonpositive_rates():
    assert validate_policy(Fix(k=0.0), 10) != []
    assert validate_policy(Fix(k=-1.0), 10) != []
    assert validate_policy(Fix(k=float("nan")), 10) != []
    assert validate_policy(Cyclic("TRI", 0.0, 0.06, 2000), BUDGET_10K) != []


def test_validate_inv_gamma_is_a_timescale_not_a_ratio():
    assert validate_policy(Inv(k=0.01, gamma=5.0, p=0.75), 100) == []


def test_validate_gamma_presence_on_cyclic_kinds():
    missing = validate_policy(Cyclic("TRIEXP", 0.01, 0.06, 2000), BUDGET_10K)
    assert any("requires gamma" in v for v in missing)
    extra = validate_policy(Cyclic("TRI", 0.01, 0.06, 2000, gamma=0.99), BUDGET_10K)
    assert any("does not take gamma" in v for v in extra)


def test_validate_unknown_cyclic_kind():
    assert validate_policy(Cyclic("SAW", 0.01, 0.06, 2000), BUDGET_10K) != []


def test_validate_short_poly_horizon():
    out = validate_policy(Poly(k=0.01, p=1.2, max_iter=100), 1000)
    assert any("max_iter" in v for v in out)


def test_validate_requires_positive_total():
    with pytest.raises(ScheduleError):
        validate_policy(Fix(k=0.01), 0)


_HUGE = 10**30


@pytest.mark.parametrize("policy,message", [
    (Step(0.1, 0.5, _HUGE), f"l must be below 2**53, got {_HUGE}"),
    (Cyclic("TRI2", 0.1, 0.5, _HUGE), f"l must be below 2**53, got {_HUGE}"),
    (Cyclic("SIN2", 0.1, 0.5, 2**62), f"l must be below 2**53, got {2**62}"),
    (Poly(0.1, 1.0, max_iter=_HUGE), f"max_iter must be below 2**53, got {_HUGE}"),
    (Poly(0.1, 1.0, max_iter=2**53), f"max_iter must be below 2**53, got {2**53}"),
    (NStep(0.1, 0.5, (1, _HUGE)), f"boundaries must be below 2**53, got [1, {_HUGE}]"),
    (Composite((Segment(0, 5, Fix(0.1)), Segment(5, 10, Step(0.1, 0.5, _HUGE)))),
     f"segment 1: l must be below 2**53, got {_HUGE}"),
], ids=["step", "tri2", "sin2-int64", "poly", "poly-2**53", "nstep", "composite"])
def test_integer_fields_past_2_53_are_reported_and_refused(policy, message):
    assert validate_policy(policy, 10) == [message]
    for evaluate in (lambda: eval_lr(policy, 0, 10), lambda: lr_values(policy, np.arange(10), 10),
                     lambda: schedule_series(policy, 10)):
        with pytest.raises(ScheduleError) as info:
            evaluate()
        assert str(info.value) == "invalid policy: " + message


def test_integer_fields_just_below_2_53_stay_valid():
    for policy in (Step(0.1, 0.5, 2**53 - 1), Cyclic("TRI2", 0.1, 0.5, 2**53 - 1),
                   NStep(0.1, 0.5, (1, 2**53 - 1)), Poly(0.1, 1.0, max_iter=2**53 - 1)):
        assert validate_policy(policy, 10) == []
        assert eval_lr(policy, 9, 10) == lr_values(policy, np.arange(10), 10)[9]


def test_composite_bounds_past_2_53_are_reported_and_refused():
    comp = Composite((Segment(0, _HUGE, Step(0.1, 0.5, 3)),))
    # Reported alone: the segment's own checks would run over its length.
    assert validate_policy(comp, 10) == [f"segment 0: end must be below 2**53, got {_HUGE}"]
    with pytest.raises(ScheduleError,
                       match=r"^invalid policy: segment 0: end must be below 2\*\*53"):
        lr_values(comp, np.arange(3), 10)


def test_horizons_past_2_53_are_schedule_errors():
    message = f"total_iters must be below 2**53, got {_HUGE}"
    for call in (lambda: validate_policy(Inv(0.1, 0.5, 2.0), _HUGE),
                 lambda: eval_lr(Inv(0.1, 0.5, 2.0), 3, _HUGE),
                 lambda: lr_values(Fix(0.1), np.arange(3), _HUGE),
                 lambda: schedule_series(Fix(0.1), _HUGE, 10**29)):
        with pytest.raises(ScheduleError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ScheduleError, match=r"total_iters must be below 2\*\*53, got 9007199254740992"):
        validate_policy(Fix(0.1), 2**53)
    assert validate_policy(Inv(0.1, 0.5, 2.0), 2**53 - 1) == []


def test_inv_overflowing_product_leaks_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_policy(Inv(1.0, 1e308, 1.0), 100) == ["the rate reaches 0 by t=99"]
        with pytest.raises(ScheduleError, match=r"^invalid policy: the rate reaches 0 by t=99$"):
            eval_lr(Inv(1.0, 1e308, 1.0), 99, 100)


def test_rates_past_the_float_range_are_violations():
    assert validate_policy(Fix(k=10**400), 10) == [
        f"k must be a positive finite number, got {10**400}"]
    # JSON reads such an integer as it reads the literal 1e400.
    assert policy_from_doc({"type": "FIX", "k": 10**400}) == Fix(k=math.inf)
    assert policy_from_doc({"type": "EXP", "k": 0.1, "gamma": -10**400}).gamma == -math.inf


_TRI_ARGS = (0.01, 0.06, 2000)


@pytest.mark.parametrize("policy,total,messages", [
    # one invalid value per field kind
    (Fix(k=0.0), 10, ["k must be a positive finite number, got 0.0"]),
    (Exp(k=0.01, gamma=1.0), 10, ["gamma must lie in (0, 1), got 1.0"]),
    (Inv(k=0.01, gamma=0.0, p=0.75), 10, ["gamma must be a positive finite number, got 0.0"]),
    (Step(k=0.01, gamma=0.5, l=0), 10, ["l must be an integer >= 1, got 0"]),
    (Poly(k=0.01, p=1.2, max_iter=2.5), 2, ["max_iter must be an integer >= 1, got 2.5"]),
    (NStep(k=0.01, gamma=0.5, boundaries=()), 10, ["boundaries must not be empty"]),
    (NStep(k=0.01, gamma=0.5, boundaries=(1, 2.5)), 10,
     ["boundaries must be integers, got [1, 2.5]"]),
    (NStep(k=0.01, gamma=0.5, boundaries=(0, 5)), 10,
     ["boundaries must be strictly increasing positive integers, got [0, 5]"]),
    # one per rule spanning fields
    (Poly(k=0.01, p=1.2, max_iter=100), 1000,
     ["max_iter=100 is shorter than the horizon: evaluation past it is an error (need >= 999)"]),
    (Cyclic("SAW", *_TRI_ARGS), 10, ["unknown cyclic kind 'SAW'"]),
    (Cyclic("TRIEXP", *_TRI_ARGS), 10, ["TRIEXP requires gamma"]),
    (Cyclic("COS", *_TRI_ARGS, gamma=0.99), 10, ["COS does not take gamma"]),
    (Cyclic("SINEXP", *_TRI_ARGS, gamma=1.5), 10, ["gamma must lie in (0, 1), got 1.5"]),
    # an unknown kind still reports a gamma it cannot take; a kind that takes
    # no gamma reports only that, not the gamma's range
    (Cyclic("SAW", *_TRI_ARGS, gamma=0.5), 10,
     ["unknown cyclic kind 'SAW'", "SAW does not take gamma"]),
    (Cyclic("SIN", *_TRI_ARGS, gamma=1.5), 10, ["SIN does not take gamma"]),
    # several problems are reported in field order
    (Cyclic("SAW", 0.0, 0.06, 0, gamma=0.5), 10,
     ["unknown cyclic kind 'SAW'", "k0 must be a positive finite number, got 0.0",
      "l must be an integer >= 1, got 0", "SAW does not take gamma"]),
    (Poly(k=-1.0, p=0.0, max_iter=5), 100,
     ["k must be a positive finite number, got -1.0", "p must be a positive finite number, got 0.0",
      "max_iter=5 is shorter than the horizon: evaluation past it is an error (need >= 99)"]),
    # segments check their inner policy against the segment length
    (Composite((Segment(0, 10, Fix(k=0.0)), Segment(10, 30, Poly(k=0.1, p=1.0, max_iter=5)))), 30,
     ["segment 0: k must be a positive finite number, got 0.0",
      "segment 1: max_iter=5 is shorter than the horizon: evaluation past it is an error "
      "(need >= 19)"]),
    # a rate that reaches 0 within the horizon, a segment's on its own clock
    (Poly(k=0.1, p=1.0, max_iter=99), 100, ["the rate reaches 0 by t=99"]),
    (Exp(k=0.1, gamma=0.5), 1200, ["the rate reaches 0 by t=1199"]),
    (Inv(k=0.1, gamma=1.0, p=1e300), 10, ["the rate reaches 0 by t=9"]),  # overflows
    (Composite((Segment(0, 10, Fix(k=0.1)), Segment(10, 30, Poly(k=0.1, p=1.0, max_iter=19)))), 30,
     ["segment 1: the rate reaches 0 by t=19"]),
])
def test_validate_exact_messages(policy, total, messages):
    assert validate_policy(policy, total) == messages


# ---------------------------------------------------------------------------
# evaluation errors


def test_eval_rejects_out_of_range_t():
    with pytest.raises(ScheduleError):
        eval_lr(Fix(k=0.01), 10, 10)
    with pytest.raises(ScheduleError):
        eval_lr(Fix(k=0.01), -1, 10)
    with pytest.raises(ScheduleError):
        eval_lr(Fix(k=0.01), 1.5, 10)


def test_eval_rejects_poly_past_max_iter():
    with pytest.raises(ScheduleError, match=r"^invalid policy: max_iter=50 is shorter than"):
        eval_lr(Poly(k=0.01, p=1.2, max_iter=50), 51, 100)


def test_eval_rejects_composite_hole():
    comp = Composite((Segment(0, 10, Fix(0.1)), Segment(12, 20, Fix(0.1))))
    with pytest.raises(ScheduleError, match=r"^invalid policy: gap between segment ending at "
                                            r"10 and segment starting at 12$"):
        eval_lr(comp, 11, 20)


# ---------------------------------------------------------------------------
# parse / serialize


def test_parse_minimal_fix():
    assert parse_policy('{"type":"FIX","k":0.01}') == Fix(k=0.01)


def test_parse_missing_field_message():
    with pytest.raises(PolicyFormatError, match="gamma"):
        parse_policy('{"type":"STEP","k":0.01}')


def test_parse_unknown_type():
    with pytest.raises(PolicyFormatError, match="unknown policy type"):
        parse_policy('{"type":"SAW","k":0.01}')


def test_parse_rejects_extra_fields():
    with pytest.raises(PolicyFormatError, match="unknown fields"):
        parse_policy('{"type":"FIX","k":0.01,"gamma":0.5}')


def test_parse_rejects_gamma_on_plain_cyclic():
    with pytest.raises(PolicyFormatError, match="unknown fields"):
        parse_policy('{"type":"TRI","k0":0.01,"k1":0.06,"l":2000,"gamma":0.9}')


def test_parse_requires_gamma_on_exp_cyclic():
    with pytest.raises(PolicyFormatError, match="gamma"):
        parse_policy('{"type":"TRIEXP","k0":0.01,"k1":0.06,"l":2000}')


def test_parse_rejects_bool_and_float_integers():
    with pytest.raises(PolicyFormatError, match="number"):
        parse_policy('{"type":"FIX","k":true}')
    with pytest.raises(PolicyFormatError, match="integer"):
        parse_policy('{"type":"STEP","k":0.01,"gamma":0.85,"l":5000.0}')


def test_parse_rejects_bad_boundaries_payload():
    with pytest.raises(PolicyFormatError, match="boundaries"):
        parse_policy('{"type":"NSTEP","k":0.01,"gamma":0.9,"boundaries":[1,"x"]}')


def test_parse_rejects_nested_composite():
    doc = {"type": "COMPOSITE", "segments": [
        {"start": 0, "end": 10,
         "policy": {"type": "COMPOSITE", "segments": [
             {"start": 0, "end": 10, "policy": {"type": "FIX", "k": 0.1}}]}},
    ]}
    with pytest.raises(PolicyFormatError, match="nest"):
        policy_from_doc(doc)


def test_parse_rejects_non_json():
    with pytest.raises(PolicyFormatError, match="JSON"):
        parse_policy("not a document")


def test_parse_rejects_non_object():
    with pytest.raises(PolicyFormatError, match="object"):
        parse_policy("[1, 2]")


def test_serialize_stable_bytes():
    tri = Cyclic("TRI", k0=0.01, k1=0.06, l=2000)
    assert serialize_policy(tri) == '{"type": "TRI", "k0": 0.01, "k1": 0.06, "l": 2000}'
    assert serialize_policy(Fix(k=0.01)) == '{"type": "FIX", "k": 0.01}'


def test_round_trip_example():
    tri = Cyclic("TRI", k0=0.00005, k1=0.006, l=2000)
    assert parse_policy(serialize_policy(tri)) == tri


_CYCLIC_TEXT = '"k0": 0.01, "k1": 0.06, "l": 2000'


@pytest.mark.parametrize("policy,text", [
    (Fix(k=0.01), '{"type": "FIX", "k": 0.01}'),
    (Step(k=0.01, gamma=0.85, l=5000), '{"type": "STEP", "k": 0.01, "gamma": 0.85, "l": 5000}'),
    (NStep(k=0.001, gamma=0.1, boundaries=(60000, 65000)),
     '{"type": "NSTEP", "k": 0.001, "gamma": 0.1, "boundaries": [60000, 65000]}'),
    (Exp(k=0.01, gamma=0.99994), '{"type": "EXP", "k": 0.01, "gamma": 0.99994}'),
    (Inv(k=0.01, gamma=0.0001, p=0.75), '{"type": "INV", "k": 0.01, "gamma": 0.0001, "p": 0.75}'),
    (Poly(k=0.01, p=1.2), '{"type": "POLY", "k": 0.01, "p": 1.2}'),
    (Poly(k=0.01, p=1.2, max_iter=10000),
     '{"type": "POLY", "k": 0.01, "p": 1.2, "max_iter": 10000}'),
    *[(Cyclic(kind, *_TRI_ARGS), f'{{"type": "{kind}", {_CYCLIC_TEXT}}}')
      for kind in ("TRI", "TRI2", "SIN", "SIN2", "COS", "COS2")],
    *[(Cyclic(kind, *_TRI_ARGS, gamma=0.99994),
       f'{{"type": "{kind}", {_CYCLIC_TEXT}, "gamma": 0.99994}}')
      for kind in ("TRIEXP", "SINEXP", "COSEXP")],
    (Composite((Segment(0, 100, Fix(k=0.1)), Segment(100, 300, Poly(k=0.2, p=2.0)))),
     '{"type": "COMPOSITE", "segments": [{"start": 0, "end": 100, "policy": {"type": "FIX", '
     '"k": 0.1}}, {"start": 100, "end": 300, "policy": {"type": "POLY", "k": 0.2, "p": 2.0}}]}'),
])
def test_serialize_pins_every_type(policy, text):
    assert serialize_policy(policy) == text
    assert parse_policy(text) == policy


@pytest.mark.parametrize("text,message", [
    ('{"type":"STEP","k":0.01,"gamma":0.5}', "STEP is missing field 'l'"),
    ('{"type":"EXP","k":"0.01","gamma":0.5}', "EXP field 'k' must be a number, got '0.01'"),
    ('{"type":"POLY","k":0.01,"p":1.0,"max_iter":1.5}',
     "POLY field 'max_iter' must be an integer, got 1.5"),
    ('{"type":"NSTEP","k":0.01,"gamma":0.5,"boundaries":5}',
     "NSTEP field 'boundaries' must be a list of integers, got 5"),
    ('{"type":"INV","k":0.01,"gamma":0.5,"p":1.0,"q":1,"a":2}', "INV has unknown fields: a, q"),
    ('{"type":"SINEXP","k0":0.01,"k1":0.06,"l":20}', "SINEXP is missing field 'gamma'"),
    ('{"type":"COS2","k0":0.01,"k1":0.06,"l":20,"gamma":0.5}', "COS2 has unknown fields: gamma"),
    ('{"type":"TRI","k0":0.01,"k1":0.06,"l":true}', "TRI field 'l' must be an integer, got True"),
    ('{"k":0.01}', "policy document is missing 'type'"),
    ('{"type":"COMPOSITE","segments":[]}', "COMPOSITE field 'segments' must be a non-empty list"),
    ('{"type":"COMPOSITE","segments":[{"start":0,"end":5}]}',
     "COMPOSITE segment 0 is missing field 'policy'"),
])
def test_parse_exact_messages(text, message):
    with pytest.raises(PolicyFormatError) as info:
        parse_policy(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# property tests

_rates = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False)
_gammas = st.floats(min_value=1e-5, max_value=1.0 - 1e-6, allow_nan=False, exclude_max=False)
_powers = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
_lens = st.integers(min_value=1, max_value=400)

_fix_s = st.builds(Fix, k=_rates)
_step_s = st.builds(Step, k=_rates, gamma=_gammas, l=_lens)
_exp_s = st.builds(Exp, k=_rates, gamma=_gammas)
_inv_s = st.builds(Inv, k=_rates, gamma=st.floats(min_value=1e-5, max_value=10.0), p=_powers)
_poly_unbound_s = st.builds(Poly, k=_rates, p=_powers, max_iter=st.none())
_boundaries_s = st.lists(
    st.integers(min_value=1, max_value=2000), min_size=1, max_size=5, unique=True
).map(lambda bs: tuple(sorted(bs)))
_nstep_s = st.builds(NStep, k=_rates, gamma=_gammas, boundaries=_boundaries_s)
_plain_kinds = st.sampled_from(["TRI", "TRI2", "SIN", "SIN2", "COS", "COS2"])
_exp_kinds = st.sampled_from(["TRIEXP", "SINEXP", "COSEXP"])
_cyclic_plain_s = st.builds(Cyclic, kind=_plain_kinds, k0=_rates, k1=_rates, l=_lens,
                            gamma=st.none())
_cyclic_exp_s = st.builds(Cyclic, kind=_exp_kinds, k0=_rates, k1=_rates, l=_lens, gamma=_gammas)
_cyclic_s = st.one_of(_cyclic_plain_s, _cyclic_exp_s)
_non_composite_s = st.one_of(
    _fix_s, _step_s, _exp_s, _inv_s, _poly_unbound_s, _nstep_s, _cyclic_s
)


@st.composite
def _composites(draw):
    lengths = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4))
    start = 0
    segs = []
    for ln in lengths:
        segs.append(Segment(start, start + ln, draw(_non_composite_s)))
        start += ln
    return Composite(tuple(segs))


@st.composite
def _any_policy(draw):
    poly_bound = st.builds(
        Poly, k=_rates, p=_powers, max_iter=st.integers(min_value=1, max_value=100000)
    )
    return draw(st.one_of(_non_composite_s, poly_bound, _composites()))


@given(_any_policy())
@settings(max_examples=200)
def test_parse_serialize_round_trip(policy):
    assert parse_policy(serialize_policy(policy)) == policy
    assert policy_from_doc(policy_to_doc(policy)) == policy


@given(_cyclic_s, st.integers(min_value=0, max_value=100000))
@settings(max_examples=200)
def test_cyclic_lr_is_bounded(policy, t):
    lo = min(policy.k0, policy.k1)
    hi = max(policy.k0, policy.k1)
    lr = eval_lr(policy, t, 100001)
    assert lo <= lr <= hi


@given(
    st.sampled_from(["TRI", "SIN", "COS"]),
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1e-4, max_value=1.0),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=200)
def test_cyclic_periodicity(kind, k0, k1, l, t):
    policy = Cyclic(kind, k0=k0, k1=k1, l=l)
    total = t + 2 * l + 1
    a = eval_lr(policy, t, total)
    b = eval_lr(policy, t + 2 * l, total)
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12 * max(k0, k1))


@given(
    st.sampled_from(["TRI2", "SIN2"]),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=200)
def test_envelope_quartering(kind, k0, k1, l):
    # Peaks at t = l + 4l*j shrink by 1/4 every two cycles.
    if abs(k0 - k1) < max(k0, k1) / 100.0:
        k1 = 2.0 * k0
    policy = Cyclic(kind, k0=k0, k1=k1, l=l)
    lo = min(k0, k1)
    total = 10 * l
    p0 = eval_lr(policy, l, total) - lo
    p1 = eval_lr(policy, 5 * l, total) - lo
    assert p1 == pytest.approx(p0 / 4.0, rel=1e-9)


def test_envelope_quartering_reference_values():
    tri2 = Cyclic("TRI2", k0=0.01, k1=0.06, l=2000)
    p0 = eval_lr(tri2, 2000, BUDGET_70K) - 0.01
    p1 = eval_lr(tri2, 10000, BUDGET_70K) - 0.01
    p2 = eval_lr(tri2, 18000, BUDGET_70K) - 0.01
    assert p1 == pytest.approx(p0 / 4.0, rel=1e-12)
    assert p2 == pytest.approx(p0 / 16.0, rel=1e-12)


@given(st.one_of(_step_s, _nstep_s, _exp_s, _inv_s), st.integers(min_value=0, max_value=3000))
@settings(max_examples=200)
def test_decaying_policies_never_increase(policy, t):
    total = t + 2
    assume(validate_policy(policy, total) == [])  # a rate underflowing to 0 is refused
    a = eval_lr(policy, t, total)
    b = eval_lr(policy, t + 1, total)
    assert b <= a * (1.0 + 5e-16)


@given(_powers, st.integers(min_value=2, max_value=500), st.data())
@settings(max_examples=200)
def test_poly_never_increases_on_horizon(p, horizon, data):
    # Its rate reaches 0 at max_iter, so it serves a horizon of max_iter.
    policy = Poly(k=1.0, p=p, max_iter=horizon)
    t = data.draw(st.integers(min_value=0, max_value=horizon - 2))
    a = eval_lr(policy, t, horizon)
    b = eval_lr(policy, t + 1, horizon)
    assert b <= a * (1.0 + 5e-16)


@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.lists(st.integers(min_value=1, max_value=199), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=100)
def test_nstep_equals_composite_of_fix(k, gamma, raw_bounds):
    budget = 200
    bounds = tuple(sorted(raw_bounds))
    nstep = NStep(k=k, gamma=gamma, boundaries=bounds)
    edges = [0, *bounds, budget]
    segs = tuple(
        Segment(a, b, Fix(k=k * gamma ** i)) for i, (a, b) in enumerate(zip(edges, edges[1:]))
    )
    comp = Composite(segs)
    assert validate_policy(comp, budget) == []
    for t in range(budget):
        assert eval_lr(nstep, t, budget) == eval_lr(comp, t, budget)


@given(_non_composite_s, st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=59))
@settings(max_examples=200)
def test_composite_uses_segment_local_clock(inner, seg_len, offset):
    # A segment's inner policy sees iteration t - start, bitwise.
    if offset >= seg_len:
        offset %= seg_len
    comp = Composite((Segment(0, 40, Fix(k=0.5)), Segment(40, 40 + seg_len, inner)))
    total = 40 + seg_len
    assert eval_lr(comp, 40 + offset, total) == eval_lr(inner, offset, seg_len)


def test_composite_binds_poly_to_segment_length():
    comp = Composite((Segment(0, 50, Fix(0.1)), Segment(50, 150, Poly(k=0.2, p=2.0))))
    got = eval_lr(comp, 149, 150)
    assert got == pytest.approx(0.2 * (1.0 / 100.0) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# any JSON-shaped document

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(min_value=-3, max_value=3000),
    st.sampled_from([2**53 - 1, 2**53, 2**62, 2**63, 10**30, 10**400, -(10**400)]),
    st.floats(), st.floats(min_value=1e-6, max_value=1.0),
    st.sampled_from([1e308, 5e-324, 1.0 - 2**-53]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_field_names = st.sampled_from(["type", "k", "gamma", "l", "p", "max_iter", "boundaries",
                                "k0", "k1", "segments", "start", "end", "policy"])


def _parts(doc: dict) -> list[dict]:
    """``doc``, its segment objects and their policy objects."""
    parts = [doc]
    segments = doc.get("segments")
    for seg in segments if isinstance(segments, list) else []:
        if isinstance(seg, dict):
            parts.append(seg)
            if isinstance(seg.get("policy"), dict):
                parts.append(seg["policy"])
    return parts


@st.composite
def _mutated(draw, doc):
    """``doc`` with up to two keys, at any depth, set to any JSON value or removed."""
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        target, name = draw(st.sampled_from(_parts(doc))), draw(_field_names)
        if draw(st.booleans()):
            target[name] = draw(_json_values)
        else:
            target.pop(name, None)
    return doc


@st.composite
def _policy_docs(draw):
    """A policy document: a valid one, one with a few fields damaged, or any JSON value."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(_json_values)
    doc = policy_to_doc(draw(_any_policy()))
    return draw(_mutated(doc)) if draw(st.booleans()) else doc


class _Raised:
    """Outcome of a call that raised an :class:`LrKitError`."""


def _returns_or_raises(fn, *args):
    try:
        return fn(*args)
    except LrKitError:
        return _Raised


@given(_policy_docs(), st.data())
@settings(max_examples=300, deadline=None)
def test_any_json_policy_document_returns_or_raises_an_lrkit_error(doc, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = _returns_or_raises(policy_from_doc, doc)
        if policy is _Raised:
            return
        ends = [seg.end for seg in getattr(policy, "segments", ())[-1:]]
        total = data.draw(st.one_of(
            st.integers(min_value=1, max_value=3000), st.sampled_from(ends or [1]),
            st.sampled_from([2**53 - 1, 2**53, 10**30]), st.integers(max_value=0)))
        if _returns_or_raises(validate_policy, policy, total) != []:
            return
        # A few points of the horizon, however long it is.
        stride = max(1, -(-total // 64))
        ts = np.unique(np.array([0, total // 2, total - 1, data.draw(
            st.integers(min_value=0, max_value=total - 1))]))
        for t in ts.tolist():
            _returns_or_raises(eval_lr, policy, t, total)
        _returns_or_raises(lr_values, policy, ts, total)
        _returns_or_raises(schedule_series, policy, total, stride)
