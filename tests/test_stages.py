"""The vectorised popular-sum stages against their literal-loop reference.

``stage_reference`` keeps the stage arithmetic as double loops over the
half-arity support.  Both are run on the same r_s and r_{s/2}: the new
stages must pick the same S, anchor, R_x, Y, z, Y1, Sprime and A', write
the same trace and checks, or collapse at the same stage.  Besides the
natural inputs (r_s and r_{s/2} of A itself), r_s and r_{s/2} are taken
from other sets, which empties stages that natural inputs do not: S
(paper assertions), anchor, Y, Y1 (paper bounds) and Aprime.  The other
stages cannot empty: the heaviest fiber of Y1 always passes the Y2 test;
r_uv is never empty, and in paper mode, once the mass assertion of S
holds, E_s >= |G|^2 / |S| keeps the Sprime threshold below
2^-33 |S|; and U' is a non-empty subset of sums(Y1), so Y3 is not empty.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import stage_reference as ref
from energia import _kernel, _keys, bsg, precision
from energia.bsg import CALIBRATED, PAPER
from energia.energy import ADDITIVE, MULTIPLICATIVE, rep_function
from energia.errors import StageCollapseError
from energia.sets import IntSet

MODES = (ADDITIVE, MULTIPLICATIVE)
REGIMES = (CALIBRATED, PAPER)
# scale factors: 3 keeps values small; the others push sums past 2^62
# (additive) and products past 2^62 (multiplicative)
SCALES = (1, 3, 2**31 + 11, 2**61 + 3)


def _scaled(values, scale):
    return IntSet(scale * v for v in values)


def _outcome(fn):
    try:
        return fn()
    except StageCollapseError as exc:
        return ("collapse", exc.stage)


def _new(A, s, delta, mode, energy_mode, shifts, r_s, half):
    """Run bsg._run_stages, recording what its stages chose."""
    seen = {}
    fiber_stages, bsg_extract = bsg._fiber_stages, bsg.bsg_extract
    # in key form the stages see exponent keys; the indices they return
    # are into the value-sorted support of r_{s/2}
    codec = half.codec
    H = half.by_value[0].tolist()

    def spy_fiber(coords, h, S, *rest):
        a, R_x, Y, thr_Y, z, Y1 = fiber_stages(coords, h, S, *rest)
        vals = lambda idx: [H[i] for i in idx.tolist()]
        S = S if codec is None else sorted(codec.values(S, s).tolist())
        seen.update(S=list(S), anchor=H[a], R_x=vals(R_x), Y=vals(Y), z=H[z], Y1=vals(Y1))
        return a, R_x, Y, thr_Y, z, Y1

    def spy_extract(U, V, G, grid=None):
        seen["Sprime"] = sorted(G.sum_filter)
        return bsg_extract(U, V, G, grid)

    E_s, d = r_s.energy_count(), precision.rational(delta, "delta")  # as kp_pipeline passes them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsg, "_fiber_stages", spy_fiber)
        mp.setattr(bsg, "bsg_extract", spy_extract)
        res = bsg._run_stages(A, s, delta, mode, energy_mode, shifts, half, r_s, None, None, len(A), E_s, d)
    # checks[0] is the energy check kp_pipeline passes in, checks[-1] the
    # final-size report, both outside the stages compared here
    return res.trace, res.checks[1:-1], res.A_prime, res.anchor_sum, seen


def _compare(A, s, delta, mode, energy_mode, foreign=None):
    """The stages on A's own r_{s/2} and r_s, or with ``foreign`` = (X, Y)
    on r_{s/2} of X and r_s of Y.  A key form's codec belongs to the set
    it was built for, so foreign inputs and A's shifts are all built in
    value forms, as the pipeline never mixes forms."""
    if foreign is None:
        shifts, half, r_s = bsg._chain(A, s, energy_mode)
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_keys, "encode", lambda elements, arity: None)
            shifts = bsg._chain(A, s, energy_mode)[0]
            half = rep_function(foreign[0], s // 2, energy_mode)
            r_s = rep_function(foreign[1], s, energy_mode)
    got = _outcome(lambda: _new(A, s, delta, mode, energy_mode, shifts, r_s, half))
    want = _outcome(lambda: ref.run_stages(A, s, delta, mode, energy_mode, r_s, half))
    assert got == want
    return got


sets = st.lists(st.integers(-30, 60), min_size=2, max_size=9, unique=True)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=sets,
    scale=st.sampled_from(SCALES),
    energy_mode=st.sampled_from(MODES),
    mode=st.sampled_from(REGIMES),
    delta=st.sampled_from((0.05, 0.5, 3.0)),
    chunk=st.sampled_from((None, 7)),
)
def test_pipeline_stages_match_reference(values, scale, energy_mode, mode, delta, chunk):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # grids, products and spans in blocks of a few rows
            mp.setattr(bsg, "_BLOCK", chunk)
            mp.setattr(_kernel, "_CHUNK", chunk)
        _compare(_scaled(values, scale), 4, delta, mode, energy_mode)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=sets,
    half_values=sets,
    s_values=sets,
    scale=st.sampled_from(SCALES[:3]),
    energy_mode=st.sampled_from(MODES),
    mode=st.sampled_from(REGIMES),
    delta=st.sampled_from((0.05, 0.5, 3.0)),
)
def test_foreign_rep_functions_match_reference(values, half_values, s_values, scale, energy_mode, mode, delta):
    foreign = (_scaled(half_values, scale), _scaled(s_values, scale))
    _compare(_scaled(values, scale), 4, delta, mode, energy_mode, foreign)


def test_arity_six_matches_reference():
    for energy_mode in MODES:
        for mode, delta in ((CALIBRATED, 0.05), (PAPER, 3.0)):
            _compare(IntSet([1, 2, 4, 5, 9, 13, 14]), 6, delta, mode, energy_mode)


# stage -> (A, r_{s/2} taken from, r_s taken from, energy mode, regime, delta)
COLLAPSES = {
    "S": ([5, 10, 27], [31, 39], [5, 12], MULTIPLICATIVE, PAPER, 0.05),
    "anchor": ([2, 21], [25, 28], [37, 39], ADDITIVE, CALIBRATED, 0.05),
    "Y": ([6, 17, 37], [9, 13], [5, 6, 12], ADDITIVE, PAPER, 0.05),
    "Y1": ([17, 18, 28, 34], [20, 34], [21, 26, 30, 37], ADDITIVE, PAPER, 0.05),
    "Aprime": ([30, 34], [1, 25], [17, 25], ADDITIVE, CALIBRATED, 0.05),
}


@pytest.mark.parametrize("stage", sorted(COLLAPSES))
def test_collapse_at_each_stage(stage):
    values, half_values, s_values, energy_mode, mode, delta = COLLAPSES[stage]
    foreign = (IntSet(half_values), IntSet(s_values))
    assert _compare(IntSet(values), 4, delta, mode, energy_mode, foreign) == ("collapse", stage)


@settings(max_examples=80, deadline=None)
@given(
    H=st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True),
    data=st.data(),
    scale=st.sampled_from(SCALES),
    additive=st.booleans(),
    mode=st.sampled_from(REGIMES),
    nA=st.integers(2, 12),
)
def test_fiber_stages_match_reference(H, data, scale, additive, mode, nA):
    H = sorted(scale * v for v in H)
    h = data.draw(st.lists(st.integers(1, 6), min_size=len(H), max_size=len(H)))
    op = (lambda a, b: a + b) if additive else (lambda a, b: a * b)
    reach = sorted({op(x, y) for x in H for y in H})
    S = sorted(set(data.draw(st.lists(st.sampled_from(reach), max_size=len(reach)))))
    if data.draw(st.booleans()):  # values no pair forms
        S = sorted(set(S) | {v + 1 for v in reach[:3]} - set(reach)) or S
    if not S:
        S = reach[:1]
    d = precision.rational(0.05, "delta")  # as kp_pipeline passes it

    def new():
        a, R_x, Y, thr_Y, z, Y1 = bsg._fiber_stages(H, np.array(h, dtype=np.int64), S, additive, mode, nA, 4, d)
        vals = lambda idx: [H[i] for i in idx.tolist()]
        return H[a], vals(R_x), vals(Y), thr_Y, H[z], vals(Y1)

    want = _outcome(lambda: ref.fiber_stages(H, dict(zip(H, h)), S, additive, mode, nA, 4, d))
    assert _outcome(new) == want


@given(st.dictionaries(st.integers(-(2**70), 2**70), st.integers(0, 50), max_size=40))
def test_top_mass_matches_reference(mass):
    values = sorted(mass)
    got = bsg._top_mass(np.array([mass[v] for v in values], dtype=np.int64))
    want = ref.top_mass(values, lambda v: mass[v], lambda v: v)
    assert [values[i] for i in got.tolist()] == sorted(want)
