import math
import tracemalloc

import numpy as np
import pytest

from alphadrs import (
    OptimizerConfig,
    STUDENT_T,
    VariationalDist,
    fit,
    four_mode_gmm_spec,
    make_gmm_target,
)


def peak_traced_bytes(fn, *args):
    """(fn(*args), the peak bytes tracemalloc traced during the call, the bytes
    still traced when it returned)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


def gmm_cdf(spec, x):
    """Exact CDF of a 1-D Gaussian mixture ``spec`` at ``x``.  scipy is imported
    here, so the test files that do not use it run without it."""
    from scipy.stats import norm

    x = np.asarray(x, dtype=float)
    return sum(
        w * norm.cdf(x, m, math.sqrt(v))
        for w, m, v in zip(spec.weights, spec.means, spec.variances)
    )


@pytest.fixture(scope="session")
def gmm_target():
    return make_gmm_target(four_mode_gmm_spec())


@pytest.fixture(scope="session")
def fitted_gmm_q(gmm_target):
    """Stage-1 t(10) fits of the benchmark mixture, cached per alpha."""
    cache = {}

    def get(alpha):
        if alpha not in cache:
            init = VariationalDist(
                mu=[0.0], log_var=[math.log(25.0)], family=STUDENT_T, nu=10.0
            )
            config = OptimizerConfig(alpha=alpha, seed=1)
            cache[alpha] = fit(gmm_target, init, config).final
        return cache[alpha]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
