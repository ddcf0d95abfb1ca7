"""Schedule evaluation, validation, and serialization tests.

The core check is equivalence against an independent high-precision
oracle (sched_oracle) over the benchmark grids at boundary, mid, and
end iterations.  Property tests cover the structural invariants:
boundedness, periodicity, envelope decay, monotone decay, NSTEP as a
composite of FIX segments, and parse/serialize round-trips.
"""
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from lrkit import (
    Composite,
    Cyclic,
    Exp,
    Fix,
    Inv,
    NStep,
    Poly,
    PolicyFormatError,
    ScheduleError,
    Segment,
    Step,
    eval_lr,
    parse_policy,
    policy_from_doc,
    policy_to_doc,
    schedule_series,
    serialize_policy,
    series_to_csv,
    validate_policy,
)
from reference_policies import (
    BUDGET_10K,
    BUDGET_70K,
    GRID_10K,
    GRID_70K,
    GRID_EXTRA,
    probe_iterations,
)
from sched_oracle import REL_TOL, ref_lr, rel_err


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
    with pytest.raises(ScheduleError):
        eval_lr(Poly(k=0.01, p=1.2, max_iter=50), 51, 100)


def test_eval_rejects_composite_hole():
    comp = Composite((Segment(0, 10, Fix(0.1)), Segment(12, 20, Fix(0.1))))
    with pytest.raises(ScheduleError):
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
    a = eval_lr(policy, t, total)
    b = eval_lr(policy, t + 1, total)
    assert b <= a * (1.0 + 5e-16)


@given(_powers, st.integers(min_value=2, max_value=500), st.data())
@settings(max_examples=200)
def test_poly_never_increases_on_horizon(p, horizon, data):
    policy = Poly(k=1.0, p=p, max_iter=horizon)
    t = data.draw(st.integers(min_value=0, max_value=horizon - 1))
    a = eval_lr(policy, t, horizon + 1)
    b = eval_lr(policy, t + 1, horizon + 1)
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
