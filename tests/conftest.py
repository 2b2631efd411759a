import threading

import numpy as np
import pytest

from forelli_lab import FormalSeries, pipeline

try:
    from hypothesis import settings
except ImportError:                    # property tests skip themselves
    pass
else:
    # Tier 1: the same bounded set of examples on every run, no deadline
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=200)
    settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """A thread left running, on an error path for instance, fails the test
    that started it: the jet's sampling and solve helper."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, threading.enumerate()


@pytest.fixture(autouse=True)
def fresh_capacity_checks():
    """Every test starts with no kept normality check, so a test that
    patches the check cannot read a result that another test kept."""
    pipeline._normality.cache_clear()
    yield
    pipeline._normality.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_series(rng, n, max_order, num_terms=12, holomorphic=False,
                  integer=False):
    """Random canonical series; integer=True gives exactly-representable
    Gaussian-integer coefficients (ring laws hold exactly in floats)."""
    terms = {}
    for _ in range(num_terms):
        total = int(rng.integers(0, max_order + 1))
        cut = 0 if holomorphic else int(rng.integers(0, total + 1))
        alpha = rng.multinomial(total - cut, np.ones(n) / n)
        beta = rng.multinomial(cut, np.ones(n) / n)
        if integer:
            c = complex(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        if c != 0:
            terms[(tuple(int(a) for a in alpha),
                   tuple(int(b) for b in beta))] = c
    return FormalSeries(n, max_order, terms)


def geometric_product_series(n_max=6, max_order=12):
    """Truncation of 1/((1-z1)(1-z2)) with exponents capped at n_max."""
    terms = {((i, j), (0, 0)): 1.0
             for i in range(n_max + 1) for j in range(n_max + 1)
             if i + j <= max_order}
    return FormalSeries(2, max_order, terms)
