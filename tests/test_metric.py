import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somimpute import (
    UNCLASSIFIABLE,
    CodeBook,
    GridTopology,
    assign,
)
from somimpute import metric
from helpers import brute_masked_sq_distance, brute_winner


def _distance(x, observed, code):
    """Masked squared distance from one row to one code vector: ``assign``
    on a one-row block and a one-unit codebook.  NaN when nothing is
    observed."""
    x, code = np.asarray(x, dtype=float), np.asarray(code, dtype=float)
    return assign(code[None], x[None], np.asarray(observed, dtype=bool)[None]).sq_distances[0]


def test_complete_identical_vectors_are_at_zero():
    x = np.array([1.0, 2.0, 3.0])
    assert _distance(x, np.ones(3, bool), x) == 0.0


def test_hand_case_skips_missing_component():
    x = np.array([1.0, np.nan, 3.0])
    obs = np.array([True, False, True])
    c = np.array([0.0, 5.0, 1.0])
    assert _distance(x, obs, c) == 5.0


def test_all_missing_row_is_empty_sum():
    x = np.full(4, np.nan)
    assert metric._sq_distances(np.arange(4.0)[None], x[None], np.zeros((1, 4), bool))[0, 0] == 0.0


def test_matches_bruteforce_loop_exactly():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = int(rng.integers(1, 12))
        x = rng.normal(size=p)
        c = rng.normal(size=p)
        obs = rng.random(p) < 0.7
        if obs.any():
            assert _distance(x, obs, c) == brute_masked_sq_distance(x, obs, c)
        else:
            assert np.isnan(_distance(x, obs, c))


def test_complete_row_reduces_to_plain_squared_euclidean():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.normal(size=6)
        c = rng.normal(size=6)
        plain = 0.0
        for k in range(6):
            d = x[k] - c[k]
            plain += d * d
        assert _distance(x, np.ones(6, bool), c) == plain


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_masking_a_component_never_increases_distance(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 10))
    x = rng.normal(size=p)
    c = rng.normal(size=p)
    obs = rng.random(p) < 0.8
    observed_idx = np.flatnonzero(obs)
    if observed_idx.size:
        base = _distance(x, obs, c)
        shrunk = obs.copy()
        shrunk[observed_idx[int(rng.integers(observed_idx.size))]] = False
        # with its last component masked the row is at the empty sum, 0.0
        less = (_distance(x, shrunk, c) if shrunk.any()
                else metric._sq_distances(c[None], x[None], shrunk[None])[0, 0])
        assert less <= base


def test_vectorized_distances_agree_with_scalar():
    rng = np.random.default_rng(5)
    codes = rng.normal(size=(7, 5))
    for _ in range(100):
        x = rng.normal(size=5)
        obs = rng.random(5) < 0.6
        vec = metric._sq_distances(codes, x[None], obs[None])[0]
        for u in range(7):
            assert vec[u] == brute_masked_sq_distance(x, obs, codes[u])
            if obs.any():
                assert _distance(x, obs, codes[u]) == vec[u]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        assign(np.zeros((1, 4)), np.zeros((1, 3)), np.ones((1, 3), bool))
    with pytest.raises(ValueError):
        assign(np.zeros((2, 4)), np.zeros((1, 3)), np.ones((1, 3), bool))
    with pytest.raises(ValueError):
        assign(np.zeros((2, 3)), np.zeros((1, 3)), np.ones((1, 4), bool))


def _winner(x, observed, codes):
    """The winner of one row: ``assign`` on a one-row block."""
    x, observed = np.asarray(x, dtype=float), np.asarray(observed, dtype=bool)
    return int(assign(np.asarray(codes, dtype=float), x[None], observed[None]).units[0])


def test_single_unit_codebook_always_wins():
    assert _winner([0.0, 0.0], np.ones(2, bool), [[4.0, 4.0]]) == 0


def test_winner_hand_case():
    x = np.array([0.0, np.nan])
    obs = np.array([True, False])
    assert _winner(x, obs, [[0.0, 9.0], [5.0, 0.0]]) == 0  # distances 0 vs 25


def test_exact_tie_breaks_to_lowest_unit():
    codes = np.arange(12.0).reshape(6, 2)
    codes[5] = codes[2]  # units 2 and 5 tie exactly at distance 0
    assert _winner(codes[2].copy(), np.ones(2, bool), codes) == 2


def test_winner_invariant_under_positive_rescaling():
    rng = np.random.default_rng(8)
    codes = rng.normal(size=(9, 4))
    for _ in range(50):
        x = rng.normal(size=4)
        obs = rng.random(4) < 0.7
        if not obs.any():
            continue
        assert _winner(x, obs, codes) == _winner(3.7 * x, obs, 3.7 * codes)


def test_all_missing_row_has_no_winner():
    got = assign(np.array([[0.0], [1.0]]), np.array([[np.nan]]), np.array([[False]]))
    assert got.units[0] == UNCLASSIFIABLE
    assert np.isnan(got.sq_distances[0])


def test_winner_is_deterministic():
    rng = np.random.default_rng(11)
    codes = rng.normal(size=(5, 3))
    x = rng.normal(size=3)
    obs = np.array([True, False, True])
    assert _winner(x, obs, codes) == _winner(x, obs, codes)


def test_codebook_validation():
    with pytest.raises(ValueError):
        CodeBook(np.array([[np.nan, 0.0]]), GridTopology(1, 1), ("a", "b"))
    with pytest.raises(ValueError):
        CodeBook(np.zeros((3, 2)), GridTopology(2, 2), ("a", "b"))


def _brute_assignment(codes, values, mask):
    units, dists = [], []
    for x, obs in zip(values, mask):
        if not obs.any():
            units.append(UNCLASSIFIABLE)
            dists.append(np.nan)
            continue
        w = brute_winner(x, obs, codes)
        units.append(w)
        dists.append(brute_masked_sq_distance(x, obs, codes[w]))
    return units, np.array(dists)


def _assert_assign_matches_brute(codes, values, mask):
    got = assign(codes, values, mask)
    units, dists = _brute_assignment(codes, values, mask)
    assert got.units.tolist() == units
    assert got.sq_distances.tobytes() == dists.tobytes()


@pytest.mark.parametrize("n_units", [1, 2, 5, 13, 40])
def test_assign_matches_bruteforce_bit_for_bit(n_units, monkeypatch):
    # a small chunk so that every call spans several chunks
    monkeypatch.setattr(metric, "_CHUNK_CELLS", 4 * n_units)
    rng = np.random.default_rng(700 + n_units)
    for _ in range(25):
        p = int(rng.integers(1, 41))
        n = int(rng.integers(1, 30))
        codes = rng.normal(size=(n_units, p))
        values = rng.normal(size=(n, p))
        mask = rng.random((n, p)) < rng.uniform(0.1, 1.0)
        mask[rng.random(n) < 0.15] = False  # all-missing rows
        values[~mask] = np.nan
        _assert_assign_matches_brute(codes, values, mask)


def test_assign_rows_not_a_multiple_of_the_chunk(monkeypatch):
    monkeypatch.setattr(metric, "_CHUNK_CELLS", 3 * 6)  # 3 rows per chunk
    rng = np.random.default_rng(5)
    codes = rng.normal(size=(6, 4))
    for n in (1, 2, 3, 4, 10, 11):
        values = rng.normal(size=(n, 4))
        mask = rng.random((n, 4)) < 0.7
        _assert_assign_matches_brute(codes, values, mask)


def test_assign_exact_ties_go_to_the_lowest_unit():
    # small integers make exact ties between units frequent
    rng = np.random.default_rng(9)
    codes = rng.integers(-2, 3, size=(12, 3)).astype(float)
    codes[7] = codes[2]
    values = rng.integers(-2, 3, size=(200, 3)).astype(float)
    mask = rng.random((200, 3)) < 0.6
    _assert_assign_matches_brute(codes, values, mask)
    got = assign(codes, codes[[2, 7]], np.ones((2, 3), bool))
    assert got.units.tolist() == [2, 2]


def test_assign_flags_all_missing_rows():
    codes = np.zeros((3, 2))
    got = assign(codes, np.array([[np.nan, np.nan], [1.0, np.nan]]),
                 np.array([[False, False], [True, False]]))
    assert got.units.tolist() == [UNCLASSIFIABLE, 0]
    assert np.isnan(got.sq_distances[0]) and got.sq_distances[1] == 1.0


def test_single_code_distance_is_the_ascending_sum_for_long_rows():
    # one code vector: the sum runs in ascending component order here too
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = int(rng.integers(1, 41))
        x = rng.normal(size=p)
        c = rng.normal(size=(1, p))
        obs = rng.random(p) < 0.8
        if obs.any():
            assert _distance(x, obs, c[0]) == brute_masked_sq_distance(x, obs, c[0])
        else:
            assert np.isnan(_distance(x, obs, c[0]))


@pytest.mark.parametrize("build, message", [
    (lambda: CodeBook(np.zeros(2), GridTopology(1, 2), ("x",)),
     "codes must be 2-D, got shape (2,)"),
    (lambda: CodeBook(np.zeros((2, 3)), GridTopology(1, 2), ("x", "y")),
     "expected 3 column names, got 2"),
    (lambda: metric.Assignment(np.zeros(2, int), np.zeros(3), 4),
     "units and sq_distances must be 1-D arrays of equal length"),
    (lambda: metric.Assignment(np.array([0, 4]), np.zeros(2), 4), "unit index out of range"),
], ids=["codes-not-2d", "column-names", "assignment-shapes", "unit-out-of-range"])
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
