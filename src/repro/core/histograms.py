"""Discrete probability mass functions over message-delay bins.

All the stochastic-variable manipulations of §5.1.2 — convolution of
delays (eq. 1/3/5), quorum order statistics (eq. 2), maxima over
leaders (eq. 4), mixtures over unknown locations and sizes (eq. 6),
and the Poisson no-conflict integral (eq. 7/8b) — are carried out on
fixed-width histograms, mirroring the paper's own simplification
("in practice, the integration itself is simplified as we use
histograms for the statistics", §5.2).

A :class:`Pmf` is immutable; a :class:`WindowedHistogram` is the
mutable, aging sample collector the statistics service maintains.

Fast paths
----------
The likelihood engine evaluates thousands of these operations per
model rebuild, so the algebra carries two speed layers on top of the
exact defaults:

* **derived-value caching** — a ``Pmf`` lazily caches its CDF, its
  support (index past the last nonzero bin), and its real-FFT spectra
  (keyed by transform size).  Caches hold values that are *identical*
  to what the uncached code computed, so they are always on.
* **fast-path-only operations** — ``convolve(method="fft")`` (a
  spectral product over cached spectra), :meth:`Pmf.convolution_mixture`,
  and ``renormalize=False`` on the CDF-domain operations
  (:meth:`quorum_of`, :meth:`iid_max`, :meth:`max_of`,
  :meth:`mixture`), which skips the final re-normalizing division
  when the caller knows the mass already sums to one.  Only the
  incremental model refresh uses them; the property suite pins them
  to the exact path within 1e-12 (measured error is ~1e-17).  Every
  default is the exact path.

The naive implementations are preserved verbatim as module-level
``_reference_*`` functions; the property tests compare every fast path
against them so the fast paths cannot silently drift.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Trailing probability mass the FFT path may ignore when sizing its
#: transforms.  CDF-domain operations force saturation by pinning the
#: last CDF entry to 1.0, which plants ~1e-16 of float-rounding
#: artifact in the last bin; sizing transforms to the *exact* support
#: would then always pay full-width FFTs.  Dropping a trailing tail of
#: at most this mass perturbs a convolution by the same amount —
#: orders of magnitude inside the 1e-12 property-test pin — while
#: keeping any genuine saturated mass (which dwarfs the tolerance).
SPECTRUM_TAIL_TOLERANCE = 1e-14


def _next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (FFT sizes; 2^k is fastest)."""
    return 1 << max(0, (n - 1).bit_length())


class Pmf:
    """A distribution over delays ``[0, n_bins * bin_ms)``.

    Mass that would fall beyond the last bin is accumulated *in* the
    last bin so that total mass stays 1 (a deliberate saturation — the
    likelihood integral then under-estimates commit probability for
    extreme tails, which is the conservative direction).
    """

    __slots__ = ("bin_ms", "probs", "_cdf", "_support", "_esupport",
                 "_spectra")

    def __init__(self, probs: np.ndarray, bin_ms: float):
        if bin_ms <= 0:
            raise ValueError("bin_ms must be positive")
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if (probs < -1e-12).any():
            raise ValueError("negative probability mass")
        total = probs.sum()
        if total <= 0:
            raise ValueError("zero total mass")
        self.bin_ms = float(bin_ms)
        self.probs = np.clip(probs, 0.0, None) / total
        self._cdf: Optional[np.ndarray] = None
        self._support: Optional[int] = None
        self._esupport: Optional[int] = None
        self._spectra: Optional[Dict[int, np.ndarray]] = None

    @classmethod
    def _trusted(cls, probs: np.ndarray, bin_ms: float,
                 cdf: Optional[np.ndarray] = None) -> "Pmf":
        """Wrap ``probs`` without validation or re-normalization.

        Internal fast-path constructor: the caller guarantees a
        non-empty 1-D float array of non-negative mass summing to one
        (within float rounding).  ``cdf`` may hand over an already
        computed CDF to seed the cache.
        """
        pmf = object.__new__(cls)
        pmf.bin_ms = bin_ms
        pmf.probs = probs
        pmf._cdf = cdf
        pmf._support = None
        pmf._esupport = None
        pmf._spectra = None
        return pmf

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, delay_ms: float, bin_ms: float, n_bins: int) -> "Pmf":
        """All mass on one delay (degenerate distribution)."""
        probs = np.zeros(n_bins)
        index = min(int(delay_ms / bin_ms), n_bins - 1)
        probs[index] = 1.0
        return cls(probs, bin_ms)

    @classmethod
    def from_samples(cls, samples: Sequence[float], bin_ms: float,
                     n_bins: int) -> "Pmf":
        """Bin a list of delay samples (values beyond the range saturate)."""
        if len(samples) == 0:
            raise ValueError("no samples")
        indices = np.minimum(
            (np.asarray(samples, dtype=float) / bin_ms).astype(int),
            n_bins - 1)
        probs = np.bincount(indices, minlength=n_bins).astype(float)
        return cls(probs, bin_ms)

    @classmethod
    def from_counts(cls, counts: np.ndarray, bin_ms: float) -> "Pmf":
        return cls(np.asarray(counts, dtype=float), bin_ms)

    # -- descriptive ----------------------------------------------------------

    @property
    def n_bins(self) -> int:
        return self.probs.size

    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_ms

    def mean(self) -> float:
        return float(np.dot(self.probs, self.bin_centers()))

    def cdf(self) -> np.ndarray:
        """Cumulative distribution; cached, returned read-only."""
        cached = self._cdf
        if cached is None:
            cached = np.cumsum(self.probs)
            cached.setflags(write=False)
            self._cdf = cached
        return cached

    @property
    def support(self) -> int:
        """Index one past the last nonzero bin (cached)."""
        cached = self._support
        if cached is None:
            nonzero = np.flatnonzero(self.probs)
            cached = int(nonzero[-1]) + 1 if nonzero.size else 1
            self._support = cached
        return cached

    @property
    def effective_support(self) -> int:
        """Support with a negligible trailing tail ignored (cached).

        Index one past the last bin that matters to the FFT path:
        trailing bins holding at most :data:`SPECTRUM_TAIL_TOLERANCE`
        total mass are not counted.  Genuine saturated mass is many
        orders of magnitude above the tolerance, so only float-rounding
        artifacts (e.g. the forced ``cdf[-1] = 1.0`` of the CDF-domain
        operations) are trimmed.
        """
        cached = self._esupport
        if cached is None:
            trailing = np.cumsum(self.probs[::-1])
            drop = int(np.searchsorted(trailing, SPECTRUM_TAIL_TOLERANCE,
                                       side="right"))
            cached = max(1, self.n_bins - drop)
            self._esupport = cached
        return cached

    def spectrum(self, size: int) -> np.ndarray:
        """Real-FFT of the effective-support prefix, padded to ``size``.

        Cached per transform size; a model rebuild convolving the same
        operand against many partners pays the forward transform once.
        """
        spectra = self._spectra
        if spectra is None:
            spectra = {}
            self._spectra = spectra
        spec = spectra.get(size)
        if spec is None:
            spec = np.fft.rfft(self.probs[:self.effective_support], size)
            spectra[size] = spec
        return spec

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q outside [0, 1]")
        index = int(np.searchsorted(self.cdf(), q))
        return min(index, self.n_bins - 1) * self.bin_ms

    # -- algebra of stochastic variables -------------------------------------

    def _check_compatible(self, other: "Pmf") -> None:
        if abs(other.bin_ms - self.bin_ms) > 1e-9:
            raise ValueError("mismatched bin widths")

    def convolve(self, other: "Pmf", method: str = "direct") -> "Pmf":
        """Distribution of the sum of two independent delays (eq. 1).

        ``method`` selects the algorithm: ``"direct"`` is the exact
        ``np.convolve`` path, ``"fft"`` the spectral product (identical
        saturation semantics, ~1e-17 rounding difference).
        """
        self._check_compatible(other)
        if method == "direct":
            return _reference_convolve(self, other)
        if method != "fft":
            raise ValueError(f"unknown convolution method {method!r}")
        n = max(self.n_bins, other.n_bins)
        sa, sb = self.effective_support, other.effective_support
        raw_size = sa + sb - 1
        size = _next_pow2(raw_size)
        raw = np.fft.irfft(
            self.spectrum(size) * other.spectrum(size), size)[:raw_size]
        # FFT rounding can leave tiny negative values where the exact
        # result is zero; clip before saturating.
        np.maximum(raw, 0.0, out=raw)
        probs = np.zeros(n)
        if raw_size <= n:
            probs[:raw_size] = raw
        else:
            probs[:n] = raw[:n]
            probs[n - 1] += raw[n:].sum()  # saturate the tail
        total = probs.sum()
        if not 0.0 < total < np.inf:  # pragma: no cover - degenerate input
            raise ValueError("convolution lost all mass")
        probs /= total
        return Pmf._trusted(probs, self.bin_ms)

    def shift(self, delay_ms: float) -> "Pmf":
        """Add a constant delay."""
        if delay_ms < 0:
            raise ValueError("negative shift")
        # Half-up rounding (not banker's) so .5 boundaries shift right.
        k = math.floor(delay_ms / self.bin_ms + 0.5)
        if k == 0:
            return self
        probs = np.zeros_like(self.probs)
        if k < self.n_bins:
            probs[k:] = self.probs[:-k]
            probs[-1] += self.probs[-k:].sum()  # saturate displaced mass
        else:
            probs[-1] = 1.0
        return Pmf(probs, self.bin_ms)

    def scale(self, factor: float) -> "Pmf":
        """Distribution of ``factor * X`` (used for RTT -> one-way)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        centers = np.arange(self.n_bins) * factor
        indices = np.minimum(centers.astype(int), self.n_bins - 1)
        probs = np.zeros_like(self.probs)
        np.add.at(probs, indices, self.probs)
        return Pmf(probs, self.bin_ms)

    @staticmethod
    def mixture(pmfs: Sequence["Pmf"], weights: Sequence[float],
                renormalize: bool = True) -> "Pmf":
        """Marginalize over a discrete latent choice (eq. 6).

        ``renormalize=False`` skips the final normalizing division: a
        convex combination of normalized PMFs already sums to one up to
        float rounding (the fast-path callers' property tests pin the
        difference below 1e-12).
        """
        if renormalize:
            return _reference_mixture(pmfs, weights)
        if len(pmfs) != len(weights) or not pmfs:
            raise ValueError("pmfs and weights must align and be non-empty")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights sum to zero")
        n = max(p.n_bins for p in pmfs)
        acc = np.zeros(n)
        for pmf, weight in zip(pmfs, weights):
            pmfs[0]._check_compatible(pmf)
            # Bins past the support are exactly zero, so accumulating
            # only the support prefix adds the identical values.
            s = pmf.support
            acc[:s] += (weight / total) * pmf.probs[:s]
        return Pmf._trusted(acc, pmfs[0].bin_ms)

    @staticmethod
    def convolution_mixture(pairs: Sequence[Sequence["Pmf"]],
                            weights: Sequence[float]) -> "Pmf":
        """``sum_i w_i * (a_i ⊛ b_i)`` in one spectral pass.

        Convolution and mixture commute, so the weighted sum of
        pairwise convolutions is a single inverse transform of the
        weighted sum of spectral products — one ``irfft`` instead of
        one per pair.  A fast-path-only operation (the reference is
        the per-pair :meth:`convolve` + :meth:`mixture` chain, pinned
        within 1e-12 by the property suite): range saturation folds
        after the mixture instead of per term — identical, since
        folding is linear — and the normalizing division happens once
        on the mixed result.
        """
        if len(pairs) != len(weights) or not pairs:
            raise ValueError("pairs and weights must align and be non-empty")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights sum to zero")
        first = pairs[0][0]
        n = 0
        raw_size = 1
        for a, b in pairs:
            first._check_compatible(a)
            first._check_compatible(b)
            n = max(n, a.n_bins, b.n_bins)
            raw_size = max(raw_size,
                           a.effective_support + b.effective_support - 1)
        size = _next_pow2(raw_size)
        spec = None
        for (a, b), weight in zip(pairs, weights):
            term = (weight / total) * a.spectrum(size) * b.spectrum(size)
            spec = term if spec is None else spec + term
        raw = np.fft.irfft(spec, size)[:raw_size]
        np.maximum(raw, 0.0, out=raw)
        probs = np.zeros(n)
        if raw_size <= n:
            probs[:raw_size] = raw
        else:
            probs[:n] = raw[:n]
            probs[n - 1] += raw[n:].sum()  # saturate the tail
        total_mass = probs.sum()
        if not 0.0 < total_mass < np.inf:  # pragma: no cover - degenerate
            raise ValueError("convolution mixture lost all mass")
        probs /= total_mass
        return Pmf._trusted(probs, first.bin_ms)

    @staticmethod
    def max_of(pmfs: Sequence["Pmf"],
               renormalize: bool = True) -> "Pmf":
        """Distribution of the max of independent delays (eq. 4)."""
        if not pmfs:
            raise ValueError("need at least one pmf")
        n = max(p.n_bins for p in pmfs)
        cdf = np.ones(n)
        for pmf in pmfs:
            pmfs[0]._check_compatible(pmf)
            c = np.ones(n)
            c[:pmf.n_bins] = pmf.cdf()
            cdf *= c
        return Pmf._from_cdf(cdf, pmfs[0].bin_ms, renormalize=renormalize)

    def iid_max(self, k: int, renormalize: bool = True) -> "Pmf":
        """Max of ``k`` independent copies of this variable.

        The CDF is exactly constant past the support, so the k-th
        power is evaluated once there and broadcast — identical values,
        a fraction of the elementwise work.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        cdf = self.cdf()
        s = self.support
        powered = np.empty_like(cdf)
        np.power(cdf[:s], k, out=powered[:s])
        if s < powered.size:
            powered[s:] = np.power(cdf[s - 1], k)
        return Pmf._from_cdf(powered, self.bin_ms,
                             renormalize=renormalize)

    @staticmethod
    def quorum_of(pmfs: Sequence["Pmf"], quorum: int,
                  renormalize: bool = True) -> "Pmf":
        """Time until ``quorum`` of the independent delays elapsed (eq. 2).

        This is the ``quorum``-th order statistic of independent,
        non-identically distributed delays, computed bin-wise through
        the Poisson-binomial distribution of "how many responses have
        arrived by t".
        """
        n_replicas = len(pmfs)
        if not 1 <= quorum <= n_replicas:
            raise ValueError(
                f"quorum {quorum} impossible with {n_replicas} replicas")
        n = max(p.n_bins for p in pmfs)
        # Every input CDF is exactly constant past its support, so the
        # Poisson-binomial sweep is too: run it over the widest support
        # and broadcast the final column across the constant tail —
        # identical values to the full-width sweep.
        width = min(n, max(p.support for p in pmfs))
        arrived = np.empty((n_replicas, width))
        for i, pmf in enumerate(pmfs):
            pmfs[0]._check_compatible(pmf)
            row = arrived[i]
            row[:] = 1.0
            stop = min(pmf.n_bins, width)
            row[:stop] = pmf.cdf()[:stop]
        # dp[k] = P(exactly k responses arrived by t), vectorized over t.
        dp = np.zeros((n_replicas + 1, width))
        dp[0] = 1.0
        for i in range(n_replicas):
            p = arrived[i]
            for k in range(i + 1, 0, -1):
                dp[k] = dp[k] * (1.0 - p) + dp[k - 1] * p
            dp[0] = dp[0] * (1.0 - p)
        cdf = np.empty(n)
        cdf[:width] = dp[quorum:].sum(axis=0)
        if width < n:
            cdf[width:] = cdf[width - 1]
        return Pmf._from_cdf(cdf, pmfs[0].bin_ms, renormalize=renormalize)

    @staticmethod
    def _from_cdf(cdf: np.ndarray, bin_ms: float,
                  renormalize: bool = True) -> "Pmf":
        if renormalize:
            cdf = np.clip(cdf, 0.0, 1.0)
            # Force saturation so the result is a proper distribution
            # even when some mass lies beyond the modelled range.
            cdf[-1] = 1.0
            probs = np.diff(cdf, prepend=0.0)
            np.clip(probs, 0.0, None, out=probs)
            return Pmf(probs, bin_ms)
        # Fast path: every caller hands over a freshly built scratch
        # array, so the clip and the difference run in place (same
        # values as the reference; np.diff with prepend=0.0 is exactly
        # the first-element copy plus pairwise subtraction).
        np.clip(cdf, 0.0, 1.0, out=cdf)
        cdf[-1] = 1.0
        probs = np.empty_like(cdf)
        probs[0] = cdf[0]
        np.subtract(cdf[1:], cdf[:-1], out=probs[1:])
        np.maximum(probs, 0.0, out=probs)
        # The differences of a clipped CDF ending at exactly 1.0 sum
        # to 1.0 up to float rounding; hand the CDF to the cache.
        cdf.setflags(write=False)
        return Pmf._trusted(probs, bin_ms, cdf=cdf)

    # -- the no-conflict integral (eq. 8b) -------------------------------------

    def no_arrival_probability(self, rate_per_ms: float,
                               extra_ms: float = 0.0) -> float:
        """``sum_t P(T = t) * exp(-lambda * (t + extra))``.

        With ``T`` the conflict-window length and ``lambda`` the
        Poisson update-arrival rate of the record, this is the
        probability that no interfering update arrives during the
        window — the per-record commit likelihood of eq. 8b, with
        ``extra`` playing the role of the processing time *w*.
        """
        if rate_per_ms < 0:
            raise ValueError("negative arrival rate")
        if rate_per_ms == 0:
            return 1.0
        times = self.bin_centers() + max(extra_ms, 0.0)
        value = float(np.dot(self.probs, np.exp(-rate_per_ms * times)))
        return min(max(value, 0.0), 1.0)  # clamp float-rounding drift


# -- reference implementations -------------------------------------------------
#
# These are the original, exact algorithms, kept verbatim so the
# property tests can compare every accelerated path against them.
# ``Pmf.convolve(method="direct")`` and ``mixture(renormalize=True)``
# delegate here — the exact path IS the reference, by construction.


def _reference_convolve(a: Pmf, b: Pmf) -> Pmf:
    """Exact convolution with range saturation (the default path)."""
    a._check_compatible(b)
    n = max(a.n_bins, b.n_bins)
    full = np.convolve(a.probs, b.probs)
    probs = full[:n].copy()
    probs[-1] += full[n:].sum()  # saturate the tail
    return Pmf(probs, a.bin_ms)


def _reference_mixture(pmfs: Sequence[Pmf],
                       weights: Sequence[float]) -> Pmf:
    """Exact mixture with a final re-normalization (the default path)."""
    if len(pmfs) != len(weights) or not pmfs:
        raise ValueError("pmfs and weights must align and be non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights sum to zero")
    n = max(p.n_bins for p in pmfs)
    bin_ms = pmfs[0].bin_ms
    acc = np.zeros(n)
    for pmf, weight in zip(pmfs, weights):
        pmfs[0]._check_compatible(pmf)
        acc[:pmf.n_bins] += (weight / total) * pmf.probs
    return Pmf(acc, bin_ms)


def _reference_from_cdf(cdf: np.ndarray, bin_ms: float) -> Pmf:
    """The original CDF-to-PMF conversion, re-normalizing division and
    all."""
    cdf = np.clip(cdf, 0.0, 1.0)
    cdf[-1] = 1.0
    probs = np.diff(cdf, prepend=0.0)
    return Pmf(np.clip(probs, 0.0, None), bin_ms)


def _reference_max_of(pmfs: Sequence[Pmf]) -> Pmf:
    """Exact max-of: CDF product followed by re-normalization."""
    if not pmfs:
        raise ValueError("need at least one pmf")
    n = max(p.n_bins for p in pmfs)
    cdf = np.ones(n)
    for pmf in pmfs:
        pmfs[0]._check_compatible(pmf)
        c = np.ones(n)
        c[:pmf.n_bins] = np.cumsum(pmf.probs)
        cdf *= c
    return _reference_from_cdf(cdf, pmfs[0].bin_ms)


def _reference_iid_max(pmf: Pmf, k: int) -> Pmf:
    """Exact k-fold iid max."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _reference_from_cdf(np.cumsum(pmf.probs) ** k, pmf.bin_ms)


def _reference_quorum_of(pmfs: Sequence[Pmf], quorum: int) -> Pmf:
    """Exact quorum order statistic (Poisson-binomial sweep)."""
    n_replicas = len(pmfs)
    if not 1 <= quorum <= n_replicas:
        raise ValueError(
            f"quorum {quorum} impossible with {n_replicas} replicas")
    n = max(p.n_bins for p in pmfs)
    arrived = np.empty((n_replicas, n))
    for i, pmf in enumerate(pmfs):
        pmfs[0]._check_compatible(pmf)
        c = np.ones(n)
        c[:pmf.n_bins] = np.cumsum(pmf.probs)
        arrived[i] = c
    dp = np.zeros((n_replicas + 1, n))
    dp[0] = 1.0
    for i in range(n_replicas):
        p = arrived[i]
        for k in range(i + 1, 0, -1):
            dp[k] = dp[k] * (1.0 - p) + dp[k - 1] * p
        dp[0] = dp[0] * (1.0 - p)
    cdf = dp[quorum:].sum(axis=0)
    return _reference_from_cdf(cdf, pmfs[0].bin_ms)


class WindowedHistogram:
    """An aging sample collector (the window approach of §5.2.1).

    Samples land in the current *generation*; :meth:`rotate` retires
    the oldest generation, so the histogram tracks the last
    ``generations`` rotation periods of network behaviour.

    The histogram carries a :attr:`version` counter that advances
    whenever its *aggregate counts* change: on every :meth:`add` and
    :meth:`merge_counts`, and on a :meth:`rotate` that retires a
    generation holding samples (a rotation that only opens a fresh
    empty generation leaves the aggregate — and the version —
    untouched).  :meth:`pmf` caches its result against the version, so
    steady statistics cost one binning however often the model asks;
    the statistics service uses the same counter to tell which DC
    pairs actually moved between model rebuilds.
    """

    def __init__(self, bin_ms: float = 2.0, n_bins: int = 1024,
                 generations: int = 6):
        if generations < 1:
            raise ValueError("need at least one generation")
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self.generations = int(generations)
        self._counts: List[np.ndarray] = [np.zeros(self.n_bins)]
        self._version = 0
        self._pmf_version = -1
        self._pmf_cache: Optional[Pmf] = None

    @property
    def version(self) -> int:
        """Monotone counter of aggregate-count changes."""
        return self._version

    def add(self, sample_ms: float) -> None:
        index = min(int(sample_ms / self.bin_ms), self.n_bins - 1)
        self._counts[-1][index] += 1.0
        self._version += 1

    def merge_counts(self, counts: np.ndarray) -> None:
        """Fold another histogram's counts into the current generation."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.n_bins,):
            raise ValueError("shape mismatch")
        self._counts[-1] += counts
        self._version += 1

    def rotate(self) -> None:
        """Start a new generation, retiring the oldest if full."""
        self._counts.append(np.zeros(self.n_bins))
        while len(self._counts) > self.generations:
            retired = self._counts.pop(0)
            if retired.sum() > 0:
                self._version += 1

    def total_count(self) -> float:
        return float(sum(c.sum() for c in self._counts))

    def counts(self) -> np.ndarray:
        return np.sum(self._counts, axis=0)

    def pmf(self, fallback: Optional[Pmf] = None) -> Pmf:
        """Current distribution, or ``fallback`` if no samples yet.

        The binned result is cached until the counts change (tracked
        by :attr:`version`); fallbacks are returned as-is, uncached.
        """
        if (self._pmf_cache is not None
                and self._pmf_version == self._version):
            return self._pmf_cache
        counts = self.counts()
        if counts.sum() <= 0:
            if fallback is not None:
                return fallback
            raise ValueError("empty histogram and no fallback")
        pmf = Pmf.from_counts(counts, self.bin_ms)
        self._pmf_cache = pmf
        self._pmf_version = self._version
        return pmf
