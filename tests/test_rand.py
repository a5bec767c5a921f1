import numpy as np
import pytest

from bhtmm.rand import categorical, inverse_cdf


class FixedUniform:
    """Stands in for a generator whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


TOP = np.nextafter(1.0, 0.0)  # the largest value ``rng.random()`` returns


def row_major(cum, rows, u):
    """The row-major draw ``inverse_cdf`` replaced: gather one cumulative
    row per draw, count its hits over all S columns, cap at S - 1."""
    gathered = cum[rows]
    hits = (gathered <= (u * gathered[:, -1])[:, None]).sum(axis=1)
    return np.minimum(hits, cum.shape[1] - 1)


def assert_matches_categorical(weights, u):
    """Every row of ``weights`` against ``categorical`` at each ``u``."""
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    cum = np.cumsum(weights, axis=1)
    rows = np.repeat(np.arange(len(weights)), len(u))
    us = np.tile(np.asarray(u, dtype=np.float64), len(weights))
    got = inverse_cdf(cum, rows, us)
    want = [categorical(weights[r], FixedUniform(x)) for r, x in zip(rows, us)]
    assert got.tolist() == want


GRID = [0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, TOP]


@pytest.mark.parametrize("weights", [
    pytest.param([0.0, 0.0, 0.5, 0.5], id="zero-mass-start"),
    pytest.param([0.5, 0.0, 0.0, 0.5], id="zero-mass-middle"),
    pytest.param([0.5, 0.5, 0.0, 0.0], id="zero-mass-end"),
    pytest.param([0.0, 0.0, 0.0], id="no-mass"),
    pytest.param([5e-324, 0.0, 5e-324], id="subnormal-mass"),
    pytest.param([1.0], id="one-state"),
    pytest.param([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.6, 0.0, 0.4]], id="three-rows"),
])
def test_matches_categorical(weights):
    assert_matches_categorical(weights, GRID)


def test_uniform_landing_on_a_cumulative_value():
    # u * total == 0.5 == cum[1] exactly: the draw is the state after it.
    assert_matches_categorical([0.25, 0.25, 0.5], [0.5, 0.25])
    assert inverse_cdf(np.cumsum([[0.25, 0.25, 0.5]], axis=1), [0, 0], np.array([0.5, 0.25])
                       ).tolist() == [2, 1]


@pytest.mark.parametrize("n_states", [1, 3])
def test_no_draws(n_states):
    cum = np.cumsum(np.full((2, n_states), 1.0 / n_states), axis=1)
    got = inverse_cdf(cum, np.empty(0, np.int64), np.empty(0))
    assert got.shape == (0,) and got.dtype.kind == "i"


def test_one_row_table():
    # Many draws read the same single row, as the sp slot draw does.
    weights = np.array([0.2, 0.0, 0.5, 0.3])
    u = np.linspace(0.0, TOP, 101)
    got = inverse_cdf(np.cumsum(weights)[None], np.zeros(len(u), np.int64), u)
    assert got.tolist() == [categorical(weights, FixedUniform(x)) for x in u]


@pytest.mark.parametrize("n_rows", [1, 3, 50])
@pytest.mark.parametrize("n_states", [1, 2, 11])
def test_matches_row_major_draw(n_rows, n_states):
    rng = np.random.default_rng(1000 * n_rows + n_states)
    for _ in range(20):
        # About a third of the columns carry no mass, so some rows have none.
        weights = rng.random((n_rows, n_states)) * (rng.random((n_rows, n_states)) > 0.3)
        cum = np.cumsum(weights, axis=1)
        n = int(rng.integers(0, 200))
        rows = rng.integers(0, n_rows, size=n)
        u = rng.random(n)
        u[rng.random(n) < 0.1] = 0.0
        u[rng.random(n) < 0.1] = TOP
        got = inverse_cdf(cum, rows, u)
        assert np.array_equal(got, row_major(cum, rows, u))
        assert got.min(initial=0) >= 0 and got.max(initial=0) <= n_states - 1
