"""Pins for the likelihood fast paths against their naive references.

Three layers of guarantee, in decreasing strictness:

* **byte-identical** — the default (``renormalize=True``) PMF
  operations and the exact-key memo must produce *bit-for-bit* the
  values the pre-optimization code produced; the seed-stability
  digests depend on it.  These assert ``np.array_equal`` / ``==``.
* **within 1e-12** — the fast-path-only operations (FFT convolution,
  CDF-domain ops without re-normalization, the fused convolution
  mixture, incremental refresh) are pinned to the reference chain
  within 1e-12 absolute error.
* **structural** — cache/version bookkeeping (effective support,
  windowed-histogram versions, memo LRU, signature-driven
  incremental model builds) behaves as documented.
"""

import numpy as np
import pytest

from repro.core.admission import LikelihoodMemo
from repro.core.histograms import (
    Pmf,
    WindowedHistogram,
    _reference_convolve,
    _reference_iid_max,
    _reference_max_of,
    _reference_mixture,
    _reference_quorum_of,
)
from repro.core.likelihood import CommitLikelihoodModel, LatencyMatrix
from repro.core.statistics import StatisticsService
from repro.mdcc import Cluster
from repro.net import uniform_topology
from repro.sim import Environment, RandomStreams

BIN_MS = 2.0
TOL = 1e-12


def random_pmfs(seed, n_bins=256, count=8):
    """A zoo of PMF shapes: dense, sparse, heavy-tail, saturated."""
    rng = np.random.default_rng(seed)
    pmfs = []
    for index in range(count):
        probs = np.zeros(n_bins)
        kind = index % 4
        if kind == 0:  # dense lump
            width = int(rng.integers(8, n_bins // 2))
            probs[:width] = rng.random(width)
        elif kind == 1:  # sparse spikes
            spikes = rng.integers(0, n_bins, size=5)
            probs[spikes] = rng.random(5)
        elif kind == 2:  # heavy tail reaching the last bin
            probs = rng.random(n_bins) ** 4
            probs[-1] += 0.05  # genuine saturated mass
        else:  # narrow point-like mass
            probs[int(rng.integers(0, n_bins))] = 1.0
        pmfs.append(Pmf(probs / probs.sum(), BIN_MS))
    return pmfs


def max_abs_diff(a: Pmf, b: Pmf) -> float:
    n = max(a.n_bins, b.n_bins)
    pa = np.zeros(n)
    pa[:a.n_bins] = a.probs
    pb = np.zeros(n)
    pb[:b.n_bins] = b.probs
    return float(np.abs(pa - pb).max())


# ---------------------------------------------------------------- convolution


def test_fft_convolve_matches_reference_within_tolerance():
    pmfs = random_pmfs(seed=1)
    for a in pmfs:
        for b in pmfs:
            fast = a.convolve(b, method="fft")
            exact = _reference_convolve(a, b)
            assert max_abs_diff(fast, exact) < TOL


def test_default_convolve_is_byte_identical_to_reference():
    # The default method is the exact direct path: the result must be
    # byte-identical to the naive reference.
    for a in random_pmfs(seed=2, n_bins=512, count=6):
        for b in random_pmfs(seed=3, n_bins=512, count=6):
            default = a.convolve(b)
            exact = _reference_convolve(a, b)
            assert np.array_equal(default.probs, exact.probs)


def test_convolve_rejects_unknown_method():
    a, b = random_pmfs(seed=4, count=2)
    with pytest.raises(ValueError):
        a.convolve(b, method="fancy")


def test_convolution_mixture_matches_per_pair_chain():
    pmfs = random_pmfs(seed=5, count=6)
    pairs = [(pmfs[i], pmfs[i + 1]) for i in range(5)]
    weights = [0.1, 0.3, 0.2, 0.25, 0.15]
    fused = Pmf.convolution_mixture(pairs, weights)
    chain = Pmf.mixture([a.convolve(b) for a, b in pairs], weights)
    assert max_abs_diff(fused, chain) < TOL


def test_convolution_mixture_validation():
    a, b = random_pmfs(seed=6, count=2)
    with pytest.raises(ValueError):
        Pmf.convolution_mixture([], [])
    with pytest.raises(ValueError):
        Pmf.convolution_mixture([(a, b)], [1.0, 2.0])
    with pytest.raises(ValueError):
        Pmf.convolution_mixture([(a, b)], [0.0])


# ---------------------------------------------------------- CDF-domain algebra


def test_default_quorum_of_is_byte_identical_to_reference():
    pmfs = random_pmfs(seed=7, count=5)
    for quorum in (1, 3, 5):
        fast = Pmf.quorum_of(pmfs, quorum)
        ref = _reference_quorum_of(pmfs, quorum)
        assert np.array_equal(fast.probs, ref.probs)


def test_default_iid_max_is_byte_identical_to_reference():
    for pmf in random_pmfs(seed=8):
        for k in (1, 2, 7):
            assert np.array_equal(pmf.iid_max(k).probs,
                                  _reference_iid_max(pmf, k).probs)


def test_default_max_of_is_byte_identical_to_reference():
    pmfs = random_pmfs(seed=9, count=4)
    assert np.array_equal(Pmf.max_of(pmfs).probs,
                          _reference_max_of(pmfs).probs)


def test_default_mixture_is_byte_identical_to_reference():
    pmfs = random_pmfs(seed=10, count=4)
    weights = [0.4, 0.3, 0.2, 0.1]
    assert np.array_equal(Pmf.mixture(pmfs, weights).probs,
                          _reference_mixture(pmfs, weights).probs)


def test_unnormalized_cdf_ops_within_tolerance():
    pmfs = random_pmfs(seed=11, count=5)
    assert max_abs_diff(Pmf.quorum_of(pmfs, 3, renormalize=False),
                        _reference_quorum_of(pmfs, 3)) < TOL
    assert max_abs_diff(Pmf.max_of(pmfs, renormalize=False),
                        _reference_max_of(pmfs)) < TOL
    for pmf in pmfs:
        assert max_abs_diff(pmf.iid_max(4, renormalize=False),
                            _reference_iid_max(pmf, 4)) < TOL


def test_unnormalized_mixture_within_tolerance():
    pmfs = random_pmfs(seed=12, count=4)
    weights = [1.0, 2.0, 3.0, 4.0]
    assert max_abs_diff(Pmf.mixture(pmfs, weights, renormalize=False),
                        _reference_mixture(pmfs, weights)) < TOL


# -------------------------------------------------------------------- support


def test_effective_support_trims_cdf_artifact_not_real_mass():
    # A CDF-domain result plants ~1e-16 of artifact mass in the last
    # bin (the forced cdf[-1] = 1.0); effective_support must see
    # through it while plain support cannot.
    lump = Pmf.from_samples([10.0, 12.0, 14.0], BIN_MS, 64)
    artifact = lump.iid_max(3, renormalize=False)
    if artifact.support == artifact.n_bins:
        assert artifact.effective_support < artifact.n_bins
    # Genuine saturated mass is orders of magnitude above the
    # tolerance and must be kept.
    saturated = Pmf.point(10.0, BIN_MS, 16).shift(1_000.0)
    assert saturated.effective_support == saturated.support


def test_effective_support_never_exceeds_support():
    for pmf in random_pmfs(seed=13):
        assert 1 <= pmf.effective_support <= pmf.support


# ---------------------------------------------------------------- memoization


N_DC = 3
N_BINS = 256


def make_model(rtt_ms=40.0, **kwargs) -> CommitLikelihoodModel:
    rtts = {(a, b): Pmf.from_samples(
        [rtt_ms + a + 2 * b, rtt_ms + 4.0, rtt_ms - 2.0], BIN_MS, N_BINS)
        for a in range(N_DC) for b in range(a + 1, N_DC)}
    matrix = LatencyMatrix(N_DC, rtts, BIN_MS, N_BINS)
    model = CommitLikelihoodModel(
        matrix, leader_distribution=[1.0 / N_DC] * N_DC,
        size_distribution={1: 0.6, 2: 0.3, 3: 0.1}, **kwargs)
    model.precompute()
    return model


def test_memoized_record_likelihood_is_bit_identical():
    model = make_model()
    cases = [(cc, l, rate, w)
             for cc in range(N_DC) for l in range(N_DC)
             for rate in (0.0, 1e-3, 0.02) for w in (0.0, 5.0)]
    # Unmemoized ground truth: the integral straight on the cell.
    truth = [model.conflict_window_pmf(cc, l).no_arrival_probability(
        rate, extra_ms=w) for cc, l, rate, w in cases]
    # First pass fills the memo, second pass is all hits; both must
    # equal the ground truth exactly (exact keys, no quantization).
    for _ in range(2):
        got = [model.record_likelihood(cc, l, rate, w_ms=w)
               for cc, l, rate, w in cases]
        assert got == truth
    assert model.memo.hits >= len(cases)


def test_transaction_likelihood_memo_and_vectorization_agree():
    model = make_model()
    records = [(0, 1e-3), (1, 2e-3), (2, 0.0), (0, 1e-3)]
    expected = 1.0
    for leader, rate in records:
        phi = model.conflict_window_pmf(1, leader)
        expected *= phi.no_arrival_probability(rate, extra_ms=3.0)
    cold = model.transaction_likelihood(1, records, w_ms=3.0)
    warm = model.transaction_likelihood(1, records, w_ms=3.0)
    assert cold == expected
    assert warm == expected


def test_memo_lru_eviction_and_counters():
    memo = LikelihoodMemo(capacity=2)
    key_a, _ = memo.lookup(0, 0, 1e-3, 0.0)
    memo.store(key_a, 0.5)
    key_b, _ = memo.lookup(0, 1, 1e-3, 0.0)
    memo.store(key_b, 0.6)
    # Touch A so B is the least-recently-used entry.
    _, hit = memo.lookup(0, 0, 1e-3, 0.0)
    assert hit == 0.5
    key_c, _ = memo.lookup(0, 2, 1e-3, 0.0)
    memo.store(key_c, 0.7)
    assert len(memo) == 2
    assert memo.lookup(0, 1, 1e-3, 0.0)[1] is None  # B evicted
    assert memo.lookup(0, 0, 1e-3, 0.0)[1] == 0.5   # A survived
    assert memo.hits == 2 and memo.misses == 4
    assert memo.hit_rate() == pytest.approx(2 / 6)


def test_memo_validation():
    with pytest.raises(ValueError):
        LikelihoodMemo(capacity=0)


def test_refresh_invalidates_only_changed_cells_in_memo():
    model = make_model()
    for cc in range(N_DC):
        for l in range(N_DC):
            model.record_likelihood(cc, l, 1e-3, w_ms=2.0)
    filled = len(model.memo)
    assert filled == N_DC * N_DC
    update = model.latency.rtt(0, 1).shift(4.0)
    changed = model.refresh(rtt_updates={(0, 1): update, (1, 0): update})
    assert changed  # something was dirtied
    # Exactly the changed cells' entries are gone.
    assert len(model.memo) == filled - len(changed)


# ------------------------------------------------------------ incremental refresh


def test_refresh_matches_fresh_precompute_within_tolerance():
    model = make_model()
    update = model.latency.rtt(0, 1).shift(6.0)
    model.refresh(rtt_updates={(0, 1): update, (1, 0): update})

    fresh = make_model()
    fresh.latency.update_rtt(0, 1, update)
    fresh.latency.update_rtt(1, 0, update)
    fresh.precompute()

    for cc in range(N_DC):
        for l in range(N_DC):
            assert max_abs_diff(model.conflict_window_pmf(cc, l),
                                fresh.conflict_window_pmf(cc, l)) < TOL
            got = model.record_likelihood(cc, l, 2e-3, w_ms=5.0)
            want = fresh.record_likelihood(cc, l, 2e-3, w_ms=5.0)
            assert got == pytest.approx(want, abs=TOL)


def test_refresh_distribution_changes_match_fresh_model():
    model = make_model()
    new_leaders = [0.6, 0.3, 0.1]
    new_sizes = {1: 0.2, 2: 0.8}
    changed = model.refresh(leader_distribution=new_leaders,
                            size_distribution=new_sizes)
    assert changed == {(cc, l) for cc in range(N_DC) for l in range(N_DC)}

    fresh = make_model()
    fresh.leader_dist = list(new_leaders)
    fresh.size_dist = fresh._normalize_sizes(new_sizes, fresh.max_size)
    fresh.precompute()
    for cc in range(N_DC):
        for l in range(N_DC):
            assert max_abs_diff(model.conflict_window_pmf(cc, l),
                                fresh.conflict_window_pmf(cc, l)) < TOL


def test_refresh_without_changes_is_a_no_op():
    model = make_model()
    assert model.refresh() == set()
    assert model.refresh(leader_distribution=list(model.leader_dist)) == set()


def test_refresh_before_precompute_falls_back_to_full_build():
    rtts = {(a, b): Pmf.point(40.0, BIN_MS, N_BINS)
            for a in range(N_DC) for b in range(a + 1, N_DC)}
    matrix = LatencyMatrix(N_DC, rtts, BIN_MS, N_BINS)
    model = CommitLikelihoodModel(matrix, [1.0] * N_DC)
    assert not model.ready
    changed = model.refresh()
    assert model.ready
    assert changed == {(cc, l) for cc in range(N_DC) for l in range(N_DC)}


def test_update_rtt_validation():
    model = make_model()
    pmf = Pmf.point(10.0, BIN_MS, N_BINS)
    with pytest.raises(ValueError):
        model.latency.update_rtt(1, 1, pmf)
    with pytest.raises(ValueError):
        model.latency.update_rtt(0, 99, pmf)


# ----------------------------------------------------- windowed-histogram cache


def test_windowed_histogram_version_tracks_content():
    hist = WindowedHistogram(BIN_MS, 64, generations=2)
    v0 = hist.version
    hist.add(10.0)
    assert hist.version > v0
    v1 = hist.version
    # Rotation only bumps the version once counts actually age out —
    # unchanged stats must not dirty the model signature.
    hist.rotate()  # sample now in the older generation, still counted
    assert hist.version == v1
    hist.rotate()  # sample retired: aggregate counts changed
    assert hist.version > v1
    v_empty = hist.version
    hist.rotate()  # nothing left to retire
    assert hist.version == v_empty


def test_windowed_histogram_pmf_is_cached_until_dirty():
    hist = WindowedHistogram(BIN_MS, 64, generations=2)
    hist.add(10.0)
    first = hist.pmf()
    assert hist.pmf() is first  # cache hit: same object
    hist.add(14.0)
    second = hist.pmf()
    assert second is not first
    assert second.mean() != first.mean()


def test_windowed_histogram_fallback_pmf_not_cached_across_adds():
    hist = WindowedHistogram(BIN_MS, 64, generations=2)
    fallback = Pmf.point(20.0, BIN_MS, 64)
    assert hist.pmf(fallback=fallback) is fallback
    hist.add(10.0)
    assert hist.pmf(fallback=fallback) is not fallback


# ------------------------------------------------------ statistics incremental


def make_stats(n_dc=3, seed=9):
    env = Environment()
    topo = uniform_topology(n_dc, one_way_ms=20.0, sigma=0.05)
    streams = RandomStreams(seed=seed)
    cluster = Cluster(env, topo, streams)
    stats = StatisticsService(env, cluster, streams, rotate_ms=0,
                              n_bins=N_BINS)
    for a in range(n_dc):
        for b in range(a + 1, n_dc):
            for sample in (38.0, 40.0, 44.0):
                stats.record_rtt(a, b, sample + a + b)
    return stats, topo


def test_incremental_build_reuses_and_patches_the_model():
    stats, topo = make_stats()
    first = stats.build_model(fallback=topo)
    # No new samples: the same object comes back, nothing recomputed.
    assert stats.build_model(fallback=topo) is first
    # New samples on one pair: still the same object, now patched.
    for _ in range(50):
        stats.record_rtt(0, 1, 80.0)
    patched = stats.build_model(fallback=topo)
    assert patched is first
    assert patched.latency.rtt(0, 1).mean() > 50.0

    stats._model = None  # drop the cached model: the next build is cold
    fresh = stats.build_model(fallback=topo)
    assert fresh is not first
    for cc in range(3):
        for l in range(3):
            assert max_abs_diff(patched.conflict_window_pmf(cc, l),
                                fresh.conflict_window_pmf(cc, l)) < TOL


def test_incremental_build_falls_back_on_quorum_change():
    stats, topo = make_stats()
    first = stats.build_model(fallback=topo)
    other = stats.build_model(fallback=topo, quorum=3)
    assert other is not first
    assert other.quorum == 3


# ------------------------------------------------------------- rows on demand


def eager_reference_matrix(model: CommitLikelihoodModel):
    """The whole conflict-window matrix, built eagerly from the
    reference PMF operations (the pre-rows-on-demand precompute)."""
    latency, n = model.latency, model.latency.n
    q_leader = {l: _reference_quorum_of([latency.rtt(l, b) for b in range(n)],
                                        model._phase2_quorum)
                for l in range(n)}
    u = {}
    for cp in range(n):
        mixed = _reference_mixture(
            [_reference_convolve(q_leader[l], latency.one_way(l, cp))
             for l in range(n)], model.leader_dist)
        u[cp] = _reference_mixture(
            [_reference_iid_max(mixed, tau) for tau in model.size_dist],
            list(model.size_dist.values()))
    p = model.collision_probability
    phi = {}
    for cc in range(n):
        visible = _reference_mixture(
            [_reference_convolve(u[cp], latency.one_way(cp, cc))
             for cp in range(n)], model.client_dist)
        for l in range(n):
            cell = _reference_convolve(visible, latency.one_way(cc, l))
            if p > 0.0:
                q_classic = _reference_quorum_of(
                    [latency.rtt(l, b) for b in range(n)], model.quorum)
                recovery = _reference_convolve(latency.one_way(cc, l),
                                               q_classic)
                cell = _reference_mixture(
                    [cell, _reference_convolve(cell, recovery)],
                    [1.0 - p, p])
            phi[(cc, l)] = cell
    return phi


ROW_MODES = [dict(), dict(mode="fast", collision_probability=0.3)]


@pytest.mark.parametrize("kwargs", ROW_MODES, ids=["classic", "fast"])
def test_rows_on_demand_are_bit_identical_to_eager_reference(kwargs):
    model = make_model(**kwargs)
    expected = eager_reference_matrix(model)
    assert model.rows_built == 0  # precompute builds no client row
    # Rows come in any order; each is built once, on its first read.
    for cc in (2, 0, 1):
        for l in range(N_DC):
            got = model.conflict_window_pmf(cc, l)
            assert np.array_equal(got.probs, expected[(cc, l)].probs)
    assert model.rows_built == N_DC
    model.record_likelihood(1, 2, 1e-3)
    assert model.rows_built == N_DC


@pytest.mark.parametrize("kwargs", ROW_MODES, ids=["classic", "fast"])
@pytest.mark.parametrize("read_before", [(), (1,), (0, 1, 2)])
def test_rows_after_refresh_match_precompute(kwargs, read_before):
    model = make_model(**kwargs)
    for cc in read_before:
        model.conflict_window_pmf(cc, 0)
    update = model.latency.rtt(0, 2).shift(6.0)
    changed = model.refresh(rtt_updates={(0, 2): update, (2, 0): update})
    assert changed == {(cc, l) for cc in range(N_DC) for l in range(N_DC)}
    # Only the shared chain was rebuilt; every row waits for a read.
    built = model.rows_built
    fresh = make_model(**kwargs)
    fresh.latency.update_rtt(0, 2, update)
    fresh.latency.update_rtt(2, 0, update)
    fresh.precompute()
    for cc in range(N_DC):
        for l in range(N_DC):
            assert max_abs_diff(model.conflict_window_pmf(cc, l),
                                fresh.conflict_window_pmf(cc, l)) < TOL
    assert model.rows_built == built + N_DC


def test_unread_rows_are_never_built():
    model = make_model()
    model.transaction_likelihood(2, [(0, 1e-3), (1, 2e-3)], w_ms=1.0)
    update = model.latency.rtt(0, 1).shift(2.0)
    model.refresh(rtt_updates={(0, 1): update, (1, 0): update})
    model.record_likelihood(2, 2, 1e-3)
    assert model.rows_built == 2  # row 2, once per build
    unbuilt = CommitLikelihoodModel(model.latency, [1.0] * N_DC)
    with pytest.raises(RuntimeError):
        unbuilt.conflict_window_pmf(0, 0)
