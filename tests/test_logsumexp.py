import re
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from alphadrs import cli
from alphadrs.distributions import logsumexp
from conftest import peak_traced_bytes

_DMAX = np.finfo(np.float64).max
_EPS = np.finfo(np.float64).eps

# small integers give ties at the max; the special values cover every
# non-finite lane (all -inf, +inf, NaN)
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


def _assert_agrees(a, axis, keepdims):
    ours = logsumexp(a, axis=axis, keepdims=keepdims)
    # scipy itself warns when a - max overflows; ours must not, which the
    # RuntimeWarning filter in pyproject.toml checks
    with np.errstate(all="ignore"):
        ref = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref)
    finite = np.isfinite(ref)
    assert np.array_equal(np.where(finite, 0.0, ours), np.where(finite, 0.0, ref),
                          equal_nan=True), (a, axis, keepdims, ours, ref)
    # the shifted sum rounds where scipy takes the ties at the max out of it
    # and uses log1p: over 2 * 10^5 random cases of these shapes and elements
    # the largest gap was 2 eps * max(1, |ref|), so the bound is twice that
    ref = np.where(finite, ref, 0.0)
    gap = np.abs(np.where(finite, ours, 0.0) - ref)
    assert np.all(gap <= 4 * _EPS * np.maximum(1.0, np.abs(ref))), (a, axis, ours, ref)


@settings(max_examples=400, deadline=None)
@given(_case())
def test_agrees_with_scipy(case):
    _assert_agrees(*case)


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
        _assert_agrees(a, axis, keepdims)


def test_equal_entries_return_x_plus_log_n():
    # every shifted entry is exp(0) = 1, so the sum n is exact; one entry is itself
    for x in (-745.0, 0.0, 1e-300, 2.0, 700.0):
        assert logsumexp(np.array([x])) == x
        for n in (2, 3, 7, 100):
            assert logsumexp(np.full(n, x)) == x + np.log(n), (x, n)


def test_small_tail_below_rounding_is_the_accepted_error():
    # exp(-40) = 4.2e-18 vanishes in 1 + exp(-40), so the result is 0 where the
    # exact value is log1p(exp(-40)): the textbook form's absolute error is
    # below eps, here the whole result
    assert abs(logsumexp(np.array([0.0, -40.0])) - np.log1p(np.exp(-40.0))) <= _EPS


@pytest.mark.parametrize(
    "a", [np.array([_DMAX, _DMAX, -_DMAX]), np.array([2.0**1023, -(2.0**1023), 1.0])]
)
def test_overflowing_shift_returns_the_max(a):
    # a - max overflows to -inf in one lane, without a warning
    assert logsumexp(a) == a.max()


def test_axis_reduction_peak_memory_stays_below_twice_the_input():
    # one shifted copy of the input is exponentiated in place; measured with
    # tracemalloc on a (4, 10^6) input (32 MB): 56 MB for this form, 76 MB for the
    # scipy-style tie-count arithmetic and 72 MB for an out-of-place exp(a - max)
    a = np.random.default_rng(0).standard_normal((4, 10**6))
    _, peak, _ = peak_traced_bytes(logsumexp, a, 0)
    assert peak <= 2 * a.nbytes, peak


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 32), st.integers(1, 7)), elements=_ELEMENTS))
def test_component_major_reductions_match_row_reductions(a):
    # make_gmm_target reduces a (K, n) array over axis 0; its bits equal the
    # (n, K) axis-1 results only while numpy sums fewer than 8 entries in order
    def bits(x):
        # a NaN's sign bit depends on the machine instruction, not on the order
        return np.isnan(x).tobytes() + np.where(np.isnan(x), 0.0, x).tobytes()

    with np.errstate(all="ignore"):
        ref_lse = logsumexp(a, axis=1)
        ref_sum = np.add.reduce(a, axis=1)
        for t in (a.T, np.ascontiguousarray(a.T)):
            assert bits(logsumexp(t, axis=0)) == bits(ref_lse), a
            assert bits(np.add.reduce(t, axis=0)) == bits(ref_sum), a


_NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)")


def test_gmm_demo_reports_match_scipy_logsumexp(tmp_path, monkeypatch):
    args = ["gmm-demo", "--alpha", "2", "21", "--iters", "600", "--samples", "1000",
            "--seed", "11"]
    ours, ref = tmp_path / "ours", tmp_path / "scipy"
    assert cli.main([*args, "--out", str(ours)]) == 0
    bound = [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith("alphadrs") and getattr(mod, "logsumexp", None) is logsumexp
    ]
    assert {m.__name__ for m in bound} >= {
        "alphadrs.distributions", "alphadrs.rdvi", "alphadrs.bnn"
    }
    for mod in bound:
        monkeypatch.setattr(mod, "logsumexp", scipy.special.logsumexp)
    assert cli.main([*args, "--out", str(ref)]) == 0
    names = sorted(p.name for p in ours.iterdir())
    assert names == sorted(p.name for p in ref.iterdir()) and len(names) == 8
    # alpha 2's reports are byte-identical; alpha 21's 600-step fit is far from
    # converged, and the last-bit differences of its weights reach its trace,
    # estimates and 198 of its 1000 samples, by at most 1e-8: the bound is 10x
    for name in names:
        mine, theirs = (d.joinpath(name).read_text() for d in (ours, ref))
        assert _NUMBER.sub("#", mine) == _NUMBER.sub("#", theirs), name
        np.testing.assert_allclose(
            [float(v) for v in _NUMBER.findall(mine)],
            [float(v) for v in _NUMBER.findall(theirs)],
            rtol=1e-7, atol=1e-7, err_msg=name,
        )
