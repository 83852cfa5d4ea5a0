"""The commit-likelihood model for the MDCC classic protocol (§5.1.2).

The model estimates, at transaction start, the probability that every
option of the transaction will be learned as accepted.  Equations 1–9
of the paper are evaluated over discrete delay PMFs:

* eq. 1 — per-link round trip ``M^{l,b}``: taken directly from the
  measured RTT histograms (phase2a + phase2b are one round trip);
* eq. 2 — ``Q^l``: quorum order statistic over the N per-link RTTs;
* eq. 3 — ``Q^{l,cp} = Q^l + M_learned`` (one-way, RTT/2);
* eq. 4 — ``U``: maximum over the previous transaction's leaders plus
  the commit-visibility delay to the current client's data center;
* eq. 5/8a — ``Phi_W``: add the propose delay to the current leader
  (the processing time *w* is factored out, per the paper);
* eq. 6 — marginalization over the unknown previous client location,
  leader locations, and transaction size;
* eq. 7/8b — per-record commit likelihood: integrate the Poisson
  no-arrival probability against the conflict-window distribution;
* eq. 9 — transaction likelihood: product over written records.

All marginalizations are transaction-independent, so the whole model
collapses to an ``N x N`` matrix of PMFs (one per (client DC, leader
DC) pair) — the compact matrix of §5.2.4, whose rows are built on
first read after :meth:`CommitLikelihoodModel.precompute`.
Per-transaction evaluation is then a lookup plus one dot product per
record.

Fast paths
----------
Model maintenance and evaluation each carry an accelerated layer on
top of the exact defaults:

* :meth:`CommitLikelihoodModel.precompute` is the exact **reference
  rebuild** of the shared dependency chain ``rtt → q_leader →
  q_to_client → mixed → u``, all retained.
* **Rows on demand.** A session only ever reads its own client row,
  so the per-client tail of the chain — ``visible[cc]`` and the
  ``phi[(cc, ·)]`` cells — is built the first time a cell of row
  ``cc`` is read, with the ops of whichever build last dirtied it:
  the reference ops after :meth:`precompute`, the refresh's fast ops
  after :meth:`refresh`.  Every cell is bit-identical to what an
  eager build of the whole matrix produces.
* :meth:`CommitLikelihoodModel.refresh` is the **incremental
  rebuild**: given the set of (src, dst) RTT pairs that actually
  changed since the last build, it recomputes only the dirty nodes of
  the shared chain, using the FFT convolution path with per-PMF cached
  spectra and the ``renormalize=False`` CDF-domain operations (pinned
  to the exact reference within 1e-12 by the property suite), and
  drops the rows they dirty.  It returns the set of changed
  ``(client_dc, leader_dc)`` matrix cells.
* :meth:`CommitLikelihoodModel.record_likelihood` consults a
  :class:`~repro.core.admission.LikelihoodMemo` keyed on
  ``(client_dc, leader_dc, rate, w)``.  With the default exact keys a
  hit is bit-identical to a fresh evaluation; ``rate_quantum`` /
  ``w_quantum`` trade exactness for hit rate.  The memo is cleared on
  :meth:`precompute` and invalidated per cell on :meth:`refresh`.
* :meth:`CommitLikelihoodModel.transaction_likelihood` batches the
  eq. 8b integrals of all memo-missing records into one ``np.exp``
  call (element-wise, so still bit-identical to the scalar loop).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.admission import LikelihoodMemo
from repro.core.histograms import Pmf

#: A (client_dc, leader_dc) cell of the precomputed matrix.
Cell = Tuple[int, int]


class LatencyMatrix:
    """Round-trip delay PMFs for every ordered data-center pair.

    One-way delays are modelled as RTT/2 (the paper measures only round
    trips and assumes message types behave alike, §5.2.1).  Local
    (intra-DC) delays are a small constant.

    Derived one-way PMFs are cached per pair so a model rebuild does
    not re-bin them; :meth:`update_rtt` replaces one directed pair and
    drops its cached derivation, which is how the incremental model
    refresh feeds changed statistics in.
    """

    def __init__(self, n_datacenters: int,
                 rtt_pmfs: Dict[Tuple[int, int], Pmf],
                 bin_ms: float, n_bins: int,
                 local_rtt_ms: float = 0.5):
        if n_datacenters < 1:
            raise ValueError("need at least one data center")
        self.n = n_datacenters
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self._local = Pmf.point(local_rtt_ms, self.bin_ms, self.n_bins)
        self._local_one_way = self._local.scale(0.5)
        self._rtt: Dict[Tuple[int, int], Pmf] = {}
        self._one_way: Dict[Tuple[int, int], Pmf] = {}
        for a in range(n_datacenters):
            for b in range(n_datacenters):
                if a == b:
                    continue
                pmf = rtt_pmfs.get((a, b)) or rtt_pmfs.get((b, a))
                if pmf is None:
                    raise ValueError(f"no RTT histogram for pair ({a}, {b})")
                self._rtt[(a, b)] = pmf

    def rtt(self, a: int, b: int) -> Pmf:
        if a == b:
            return self._local
        return self._rtt[(a, b)]

    def one_way(self, a: int, b: int) -> Pmf:
        if a == b:
            return self._local_one_way
        cached = self._one_way.get((a, b))
        if cached is None:
            cached = self._rtt[(a, b)].scale(0.5)
            self._one_way[(a, b)] = cached
        return cached

    def update_rtt(self, a: int, b: int, pmf: Pmf) -> None:
        """Replace one directed pair's RTT PMF (incremental refresh)."""
        if a == b:
            raise ValueError("cannot update the local-delay pair")
        if (a, b) not in self._rtt:
            raise ValueError(f"unknown pair ({a}, {b})")
        self._rtt[(a, b)] = pmf
        self._one_way.pop((a, b), None)


class CommitLikelihoodModel:
    """Predicts commit likelihoods for the MDCC classic protocol.

    Parameters
    ----------
    latency:
        The measured (or oracle) RTT matrix.
    leader_distribution:
        ``P(L = l)`` — where record masters live (uniform under hash
        mastership).
    client_distribution:
        ``P(C = c)`` — where the *previous*, potentially conflicting
        transaction's client may run; defaults to uniform.
    size_distribution:
        ``P(R = tau)`` — transaction size histogram; defaults to
        single-record transactions.
    quorum:
        Responses the leader waits for; defaults to a majority of N.
    max_size:
        Truncation for the size marginalization (sizes above it are
        folded into the largest bucket).
    memo_capacity:
        Entries of the admission-time likelihood LRU; ``0`` disables
        memoization entirely.
    rate_quantum / w_quantum:
        Optional memo-key quantization steps (see
        :class:`~repro.core.admission.LikelihoodMemo`).  ``None`` — the
        default — keys on the exact inputs, so memoized results are
        bit-identical to unmemoized ones.
    truncate_epsilon:
        Tail mass the *incremental* refresh may fold into the last
        kept bin of each intermediate PMF.  ``0.0`` (default) is
        exact; the reference :meth:`precompute` never truncates.
    mode:
        ``"classic"`` (default) evaluates the paper's chain verbatim.
        ``"fast"`` models MDCC fast ballots: the phase-2 order
        statistic runs at the ⌈3N/4⌉ fast-quorum size and — when
        ``collision_probability`` is positive — every conflict-window
        cell becomes a mixture of the direct fast round and the
        collision branch that additionally pays a classic recovery
        (propose to the record master plus a classic-majority round).
    fast_quorum:
        Override for the fast phase-2 quorum; defaults to ⌈3N/4⌉.
        Ignored under classic mode.
    collision_probability:
        P(the fast round collides and recovers classically), mixed
        into the conflict window under fast mode.  ``0.0`` drops the
        recovery branch entirely.
    """

    def __init__(self, latency: LatencyMatrix,
                 leader_distribution: Sequence[float],
                 client_distribution: Optional[Sequence[float]] = None,
                 size_distribution: Optional[Dict[int, float]] = None,
                 quorum: Optional[int] = None, max_size: int = 8,
                 memo_capacity: int = 4096,
                 rate_quantum: Optional[float] = None,
                 w_quantum: Optional[float] = None,
                 truncate_epsilon: float = 0.0,
                 mode: str = "classic",
                 fast_quorum: Optional[int] = None,
                 collision_probability: float = 0.0):
        if mode not in ("classic", "fast"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        if not 0.0 <= collision_probability <= 1.0:
            raise ValueError("collision probability must be in [0, 1]")
        self.latency = latency
        n = latency.n
        self.mode = mode
        self.collision_probability = float(collision_probability)
        self.leader_dist = self._normalize_weights(
            leader_distribution, n, "leader")
        if client_distribution is None:
            self.client_dist = [1.0 / n] * n
        else:
            self.client_dist = self._normalize_weights(
                client_distribution, n, "client")
        self.max_size = int(max_size)
        self.size_dist = self._normalize_sizes(size_distribution,
                                               self.max_size)
        self.quorum = quorum if quorum is not None else n // 2 + 1
        if not 1 <= self.quorum <= n:
            raise ValueError(f"quorum {self.quorum} impossible with {n} DCs")
        if mode == "fast":
            self.fast_quorum = (fast_quorum if fast_quorum is not None
                                else -(-3 * n // 4))
            if not 1 <= self.fast_quorum <= n:
                raise ValueError(
                    f"fast quorum {self.fast_quorum} impossible with {n} DCs")
        else:
            if fast_quorum is not None:
                raise ValueError(
                    "fast_quorum is only meaningful with mode='fast'")
            self.fast_quorum = None
        #: Responses the phase-2 order statistic (eq. 2) waits for —
        #: the fast-quorum size under fast mode, the classic majority
        #: otherwise.  Classic numerics are untouched.
        self._phase2_quorum = (self.fast_quorum if mode == "fast"
                               else self.quorum)
        if truncate_epsilon < 0:
            raise ValueError("truncate_epsilon must be >= 0")
        self.truncate_epsilon = float(truncate_epsilon)
        self.memo: Optional[LikelihoodMemo] = (
            LikelihoodMemo(memo_capacity, rate_quantum=rate_quantum,
                           w_quantum=w_quantum)
            if memo_capacity > 0 else None)
        # Every node of the shared §5.2.4 chain is retained so refresh()
        # can rebuild only what a statistics rotation actually dirtied.
        self._q_leader: Dict[int, Pmf] = {}
        self._q_classic: Dict[int, Pmf] = {}
        self._q_to_client: Dict[Tuple[int, int], Pmf] = {}
        self._mixed: Dict[int, Pmf] = {}
        self._u: Dict[int, Pmf] = {}
        # Built cells, plus the client rows still to build on first read
        # (True: with refresh()'s fast ops, False: with the reference ops).
        self._phi: Optional[Dict[Cell, Pmf]] = None
        self._stale_rows: Dict[int, bool] = {}
        #: Client rows built so far (a deterministic work counter).
        self.rows_built = 0

    @staticmethod
    def _normalize_weights(weights: Sequence[float], n: int,
                           label: str) -> List[float]:
        if len(weights) != n:
            raise ValueError(f"{label} distribution length mismatch")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError(f"{label} distribution sums to zero")
        return [p / total for p in weights]

    @staticmethod
    def _normalize_sizes(size_distribution: Optional[Dict[int, float]],
                         max_size: int) -> Dict[int, float]:
        if not size_distribution:
            return {1: 1.0}
        folded: Dict[int, float] = {}
        for size, weight in size_distribution.items():
            if size < 1 or weight < 0:
                raise ValueError("bad size distribution entry")
            folded[min(size, max_size)] = (
                folded.get(min(size, max_size), 0.0) + weight)
        total = sum(folded.values())
        if total <= 0:
            raise ValueError("size distribution sums to zero")
        return {size: weight / total for size, weight in folded.items()}

    # -- precomputation (§5.2.4) ------------------------------------------------

    def precompute(self) -> None:
        """Build the shared chain of the N x N conflict-window matrix.

        The exact reference rebuild: every shared node recomputed with
        the default (exact) PMF operations, every client row left to be
        built with the same ops on first read.  Clears the likelihood
        memo — every cell may have moved.
        """
        n = self.latency.n
        # eq. 2: quorum wait at each possible leader location (the
        # ⌈3N/4⌉ fast quorum under fast ballots).
        self._q_leader = {
            l: Pmf.quorum_of([self.latency.rtt(l, b) for b in range(n)],
                             self._phase2_quorum)
            for l in range(n)
        }
        # eq. 3: + learned message back to the previous client.
        self._q_to_client = {
            (l, cp): self._q_leader[l].convolve(self.latency.one_way(l, cp))
            for l in range(n) for cp in range(n)
        }
        # eq. 4 marginalized over leader locations and sizes: for a
        # previous transaction of size tau with i.i.d. leaders, the max
        # of tau draws from the leader-mixture distribution.
        for cp in range(n):
            mixed = Pmf.mixture(
                [self._q_to_client[(l, cp)] for l in range(n)],
                self.leader_dist)
            self._mixed[cp] = mixed
            self._u[cp] = Pmf.mixture(
                [mixed.iid_max(tau) for tau in self.size_dist],
                list(self.size_dist.values()))
        # Fast-ballot collision recovery pays a classic-majority round.
        if self.mode == "fast" and self.collision_probability > 0.0:
            self._q_classic = {
                l: Pmf.quorum_of(
                    [self.latency.rtt(l, b) for b in range(n)], self.quorum)
                for l in range(n)
            }
        self._phi = {}
        self._stale_rows = dict.fromkeys(range(n), False)
        if self.memo is not None:
            self.memo.clear()

    def _build_row(self, cc: int) -> None:
        """Build client row ``cc``: ``visible[cc]`` and its ``phi`` cells."""
        fast = self._stale_rows.pop(cc)
        n = self.latency.n
        one_way = self.latency.one_way
        eps = self.truncate_epsilon
        # eq. 4 tail + eq. 6 marginalization over cp: add the commit-
        # visibility delay cp -> cc and mix over the client prior.
        if fast:
            # Commuting operations, fused into one spectral pass.
            visible = Pmf.convolution_mixture(
                [(self._u[cp], one_way(cp, cc)) for cp in range(n)],
                self.client_dist).truncate(eps)
        else:
            visible = Pmf.mixture(
                [self._u[cp].convolve(one_way(cp, cc)) for cp in range(n)],
                self.client_dist)
        # eq. 8a: + propose delay from the current client to the leader.
        for l in range(n):
            if fast:
                phi = visible.convolve(one_way(cc, l),
                                       method="fft").truncate(eps)
            else:
                phi = visible.convolve(one_way(cc, l))
            # Fast-ballot extension: with probability p the round
            # collides and additionally pays the classic recovery — a
            # fallback propose to the record master plus a classic-
            # majority round there — so the cell's window becomes the
            # (1-p, p) mixture of the direct and the recovery-extended
            # chain.  (refresh() rebuilds such models exactly, so this
            # branch only ever runs on reference-op rows.)
            if self.mode == "fast" and self.collision_probability > 0.0:
                p = self.collision_probability
                recovery = one_way(cc, l).convolve(self._q_classic[l])
                phi = Pmf.mixture([phi, phi.convolve(recovery)],
                                  [1.0 - p, p])
            self._phi[(cc, l)] = phi
        self.rows_built += 1

    def refresh(self, rtt_updates: Optional[Dict[Tuple[int, int],
                                                 Pmf]] = None,
                size_distribution: Optional[Dict[int, float]] = None,
                leader_distribution: Optional[Sequence[float]] = None,
                client_distribution: Optional[Sequence[float]] = None,
                ) -> Set[Cell]:
        """Incrementally rebuild what changed inputs dirtied.

        ``rtt_updates`` maps directed (src, dst) pairs to their new RTT
        PMFs; the distribution arguments replace the respective priors
        when given (``None`` means unchanged).  Only the dirty nodes of
        the shared chain are recomputed — on the accelerated path (FFT
        convolution with cached spectra, CDF-domain operations without
        the final re-normalizing division, optional tail truncation) —
        and the dirty client rows are dropped, to be rebuilt with the
        same fast ops on first read.  Property tests pin the result to
        a fresh :meth:`precompute` within 1e-12.

        Returns the set of changed ``(client_dc, leader_dc)`` cells and
        invalidates exactly those cells in the likelihood memo.  Falls
        back to the full reference rebuild when no matrix exists yet.
        """
        n = self.latency.n
        dirty_pairs: Set[Tuple[int, int]] = set()
        if rtt_updates:
            for (a, b), pmf in rtt_updates.items():
                self.latency.update_rtt(a, b, pmf)
                dirty_pairs.add((a, b))
        leaders_changed = False
        if leader_distribution is not None:
            new_leaders = self._normalize_weights(
                leader_distribution, n, "leader")
            if new_leaders != self.leader_dist:
                self.leader_dist = new_leaders
                leaders_changed = True
        clients_changed = False
        if client_distribution is not None:
            new_clients = self._normalize_weights(
                client_distribution, n, "client")
            if new_clients != self.client_dist:
                self.client_dist = new_clients
                clients_changed = True
        sizes_changed = False
        if size_distribution is not None:
            new_sizes = self._normalize_sizes(size_distribution,
                                              self.max_size)
            if new_sizes != self.size_dist:
                self.size_dist = new_sizes
                sizes_changed = True

        all_cells = {(cc, l) for cc in range(n) for l in range(n)}
        if self._phi is None:
            # Nothing to patch: the exact rebuild is the baseline.
            self.precompute()
            return all_cells
        if (not dirty_pairs and not leaders_changed and not clients_changed
                and not sizes_changed):
            return set()
        if self.mode == "fast" and self.collision_probability > 0.0:
            # The collision-recovery mixture couples every cell to the
            # classic quorum chain, so an incremental patch would touch
            # the whole matrix anyway — take the exact rebuild.
            self.precompute()
            return all_cells

        eps = self.truncate_epsilon
        latency = self.latency
        # eq. 2 + eq. 3: a changed (l, b) RTT moves leader l's quorum
        # wait and with it every (l, cp) learned-message node.
        dirty_leaders = sorted({a for (a, b) in dirty_pairs})
        for l in dirty_leaders:
            self._q_leader[l] = Pmf.quorum_of(
                [latency.rtt(l, b) for b in range(n)], self._phase2_quorum,
                renormalize=False).truncate(eps)
            for cp in range(n):
                self._q_to_client[(l, cp)] = self._q_leader[l].convolve(
                    latency.one_way(l, cp), method="fft").truncate(eps)
        # eq. 4 + size marginalization: every mixture spans all leaders,
        # so any dirty leader dirties every column.
        for cp in range(n):
            if dirty_leaders or leaders_changed:
                self._mixed[cp] = Pmf.mixture(
                    [self._q_to_client[(l, cp)] for l in range(n)],
                    self.leader_dist, renormalize=False)
            if dirty_leaders or leaders_changed or sizes_changed:
                mixed = self._mixed[cp]
                self._u[cp] = Pmf.mixture(
                    [mixed.iid_max(tau, renormalize=False)
                     for tau in self.size_dist],
                    list(self.size_dist.values()),
                    renormalize=False).truncate(eps)
        # eq. 6 mixes every u (and the client prior) into every client
        # row, so whatever changed dirtied every row and every cell.
        self._phi = {}
        self._stale_rows = dict.fromkeys(range(n), True)
        if self.memo is not None:
            self.memo.invalidate_cells(all_cells)
        return all_cells

    @property
    def ready(self) -> bool:
        return self._phi is not None

    def conflict_window_pmf(self, client_dc: int, leader_dc: int) -> Pmf:
        """The ``Phi_W`` distribution for one matrix cell.

        Builds the cell's client row on its first read after a
        (re)build.
        """
        phi = self._phi
        if phi is None:
            raise RuntimeError("call precompute() first")
        cell = phi.get((client_dc, leader_dc))
        if cell is None:
            self._build_row(client_dc)
            cell = phi[(client_dc, leader_dc)]
        return cell

    # -- per-transaction evaluation ------------------------------------------------

    def record_likelihood(self, client_dc: int, leader_dc: int,
                          arrival_rate_per_ms: float,
                          w_ms: float = 0.0) -> float:
        """Eq. 8b: P(no conflicting update during the window).

        Memoized through :attr:`memo` when enabled; with the default
        exact keys, a hit returns the bit-identical value a fresh
        integral would have produced.
        """
        memo = self.memo
        if memo is None:
            phi = self.conflict_window_pmf(client_dc, leader_dc)
            return phi.no_arrival_probability(arrival_rate_per_ms,
                                              extra_ms=max(w_ms, 0.0))
        key, cached = memo.lookup(client_dc, leader_dc,
                                  arrival_rate_per_ms, w_ms)
        if cached is not None:
            return cached
        phi = self.conflict_window_pmf(client_dc, leader_dc)
        value = phi.no_arrival_probability(key[2], extra_ms=max(key[3], 0.0))
        memo.store(key, value)
        return value

    def transaction_likelihood(
            self, client_dc: int,
            records: Sequence[Tuple[int, float]],
            w_ms: float = 0.0) -> float:
        """Eq. 9: product of per-record likelihoods.

        ``records`` is a list of ``(leader_dc, arrival_rate_per_ms)``
        pairs, one per written record.  Memo hits resolve without any
        array work; the remaining integrals are batched through one
        ``np.exp`` over stacked exponent rows — element-wise, so the
        result is bit-identical to the scalar per-record loop.
        """
        if not records:
            return 1.0
        memo = self.memo
        values: List[Optional[float]] = [None] * len(records)
        pending: List[Tuple[int, Optional[tuple], Pmf, float, float]] = []
        for index, (leader_dc, rate) in enumerate(records):
            if memo is not None:
                key, cached = memo.lookup(client_dc, leader_dc, rate, w_ms)
                if cached is not None:
                    values[index] = cached
                    continue
                eval_rate, eval_w = key[2], key[3]
            else:
                key = None
                eval_rate, eval_w = rate, w_ms
            if eval_rate < 0:
                raise ValueError("negative arrival rate")
            if eval_rate == 0:
                values[index] = 1.0
                if memo is not None:
                    memo.store(key, 1.0)
                continue
            phi = self.conflict_window_pmf(client_dc, leader_dc)
            pending.append((index, key, phi, eval_rate, eval_w))
        if pending:
            width = max(item[2].n_bins for item in pending)
            exponents = np.zeros((len(pending), width))
            for row, (_, _, phi, rate, w) in enumerate(pending):
                times = phi.bin_centers() + max(w, 0.0)
                exponents[row, :phi.n_bins] = -rate * times
            decay = np.exp(exponents)
            for row, (index, key, phi, _, _) in enumerate(pending):
                value = float(np.dot(phi.probs, decay[row, :phi.n_bins]))
                value = min(max(value, 0.0), 1.0)
                values[index] = value
                if memo is not None:
                    memo.store(key, value)
        likelihood = 1.0
        for value in values:
            likelihood *= value
        return likelihood

    # -- auxiliary estimates --------------------------------------------------------

    def commit_time_pmf(self, client_dc: int,
                        leader_dcs: Sequence[int]) -> Pmf:
        """Estimated commit-latency distribution for a transaction.

        Propose to each leader, quorum round there, learned back — the
        transaction decides at the max over its leaders.  Useful for
        duration estimates exposed through ``onProgress``.
        """
        if self._phi is None:
            raise RuntimeError("call precompute() first")
        per_leader = [
            self.latency.one_way(client_dc, l)
            .convolve(self._q_leader[l])
            .convolve(self.latency.one_way(l, client_dc))
            for l in leader_dcs
        ]
        return Pmf.max_of(per_leader)
