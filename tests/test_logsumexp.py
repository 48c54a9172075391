import filecmp
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from alphadrs import cli
from alphadrs.distributions import logsumexp

_DMAX = np.finfo(np.float64).max

# small integers give ties at the max; the special values cover every
# fallback branch (all -inf, +inf, NaN)
_ELEMENTS = st.one_of(
    st.floats(-700.0, 700.0),
    st.floats(-700.0, 700.0),
    st.integers(-3, 3).map(float),
    st.sampled_from([-np.inf, -np.inf, np.inf, np.nan]),
)


@st.composite
def _case(draw):
    a = draw(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=9),
                    elements=_ELEMENTS))
    if draw(st.booleans()):
        a = np.where(draw(arrays(np.bool_, a.shape)), -np.inf, a)
    axis = draw(st.sampled_from([None, *range(a.ndim)]))
    return a, axis, draw(st.booleans())


def _assert_same(a, axis, keepdims):
    ours = logsumexp(a, axis=axis, keepdims=keepdims)
    # scipy itself warns when a - max overflows; ours must not
    with np.errstate(all="ignore"):
        ref = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref)
    assert np.array_equal(ours, ref, equal_nan=True), (a, axis, keepdims, ours, ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(_case())
def test_bit_identical_to_scipy(case):
    _assert_same(*case)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "a",
    [
        np.full(5, -np.inf),
        np.array([np.inf, 1.0]),
        np.array([np.inf, -np.inf]),
        np.array([np.nan, 1.0]),
        np.array([[1.0, -np.inf], [-np.inf, -np.inf]]),
        np.array([[2.0, 2.0, 2.0], [np.nan, np.inf, -np.inf]]),
        # finite rows next to all -inf, +inf and NaN rows
        np.array([[1.0, 2.0, 3.0], [-np.inf, -np.inf, -np.inf], [0.5, np.inf, 1.0],
                  [np.nan, 0.0, 1.0], [-3.0, -3.0, 7.0]]),
        # on axis 0: all -inf, all +inf and all NaN columns, and columns that
        # mix +inf or NaN with finite entries, next to a finite one
        np.array([[1.0, -np.inf, np.inf, np.nan, np.inf, np.nan],
                  [2.0, -np.inf, np.inf, np.nan, 1.0, 0.0],
                  [2.0, -np.inf, np.inf, np.nan, -np.inf, 3.0]]),
        # at the largest double: ties, and a - max overflowing to -inf
        np.array([_DMAX, _DMAX]),
        np.array([_DMAX, _DMAX, _DMAX]),
        np.array([_DMAX, _DMAX, -_DMAX]),
        np.array([[_DMAX, _DMAX, 1.0], [1.0, 2.0, 2.0]]),
        # a - max overflows without a tie at the largest double
        np.array([2.0**1023, -(2.0**1023), 1.0]),
    ],
)
@pytest.mark.parametrize("keepdims", [False, True])
def test_edge_cases_match_scipy(a, keepdims):
    for axis in (None, *range(a.ndim)):
        _assert_same(a, axis, keepdims)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 32), st.integers(1, 7)), elements=_ELEMENTS))
def test_component_major_reductions_match_row_reductions(a):
    # make_gmm_target reduces a (K, n) array over axis 0; its bits equal the
    # (n, K) axis-1 results only while numpy sums fewer than 8 entries in order
    def bits(x):
        # a NaN's sign bit depends on the machine instruction, not on the order
        return np.isnan(x).tobytes() + np.where(np.isnan(x), 0.0, x).tobytes()

    with np.errstate(all="ignore"):
        ref_lse = scipy.special.logsumexp(a, axis=1)
        ref_sum = np.add.reduce(a, axis=1)
        for t in (a.T, np.ascontiguousarray(a.T)):
            assert bits(logsumexp(t, axis=0)) == bits(ref_lse), a
            assert bits(np.add.reduce(t, axis=0)) == bits(ref_sum), a


def test_gmm_demo_reports_match_scipy_logsumexp(tmp_path, monkeypatch):
    args = ["gmm-demo", "--alpha", "2", "--iters", "600", "--samples", "1000",
            "--seed", "11"]
    ours, ref = tmp_path / "ours", tmp_path / "scipy"
    assert cli.main([*args, "--out", str(ours)]) == 0
    bound = [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith("alphadrs") and getattr(mod, "logsumexp", None) is logsumexp
    ]
    assert {m.__name__ for m in bound} >= {
        "alphadrs.distributions", "alphadrs.rdvi", "alphadrs.drs", "alphadrs.bnn"
    }
    for mod in bound:
        monkeypatch.setattr(mod, "logsumexp", scipy.special.logsumexp)
    assert cli.main([*args, "--out", str(ref)]) == 0
    names = sorted(p.name for p in ours.iterdir())
    assert names == sorted(p.name for p in ref.iterdir()) and len(names) >= 5
    _, mismatch, errors = filecmp.cmpfiles(ours, ref, names, shallow=False)
    assert mismatch == [] and errors == []
