"""Per-transaction records and the aggregate series the figures plot."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class TxRecord:
    """Everything the harness knows about one finished transaction.

    Times are absolute virtual ms.  For the traditional baseline
    ``app_outcome`` is what the application saw by the timeout
    (``"committed"`` / ``"aborted"`` / ``"unknown"``); for PLANET the
    stage fields say which block ran.
    """

    system: str                    # "planet" | "traditional"
    issued_ms: float
    timeout_ms: float
    hot: bool
    size: int
    admitted: bool = True          # False: turned away by admission control
    accepted_ms: Optional[float] = None
    decided_ms: Optional[float] = None
    committed: Optional[bool] = None
    spec_ms: Optional[float] = None
    spec_incorrect: bool = False
    app_outcome: Optional[str] = None
    stage_fired: Optional[str] = None
    stage_fired_ms: Optional[float] = None

    # -- derived -----------------------------------------------------------

    @property
    def rejected(self) -> bool:
        return not self.admitted

    @property
    def response_ms(self) -> Optional[float]:
        """Commit-response latency: speculative report, else decision."""
        if self.spec_ms is not None:
            return self.spec_ms - self.issued_ms
        if self.decided_ms is not None:
            return self.decided_ms - self.issued_ms
        return None

    @property
    def decided_before_timeout(self) -> bool:
        return (self.decided_ms is not None
                and self.decided_ms - self.issued_ms <= self.timeout_ms)

    @property
    def accepted_before_timeout(self) -> bool:
        return (self.accepted_ms is not None
                and self.accepted_ms - self.issued_ms <= self.timeout_ms)

    def outcome_class(self, timeout_ms: Optional[float] = None) -> str:
        """The Figure 5 outcome taxonomy.

        Traditional: ``commit`` / ``abort`` if decided within the
        timeout, else ``unknown``.  PLANET adds ``accept-commit`` /
        ``accept-abort`` for transactions accepted within the timeout
        whose outcome (learned via finally callbacks) arrived later,
        and ``rejected`` for admission-control rejections.

        ``timeout_ms`` overrides the record's own timeout — the
        Figure 5 sweep reclassifies one run against many hypothetical
        timeouts, which is valid because (absent speculation and
        admission control) the timeout only changes which stage block
        runs, never the protocol.
        """
        timeout = self.timeout_ms if timeout_ms is None else timeout_ms
        if self.rejected:
            return "rejected"
        if (self.decided_ms is not None
                and self.decided_ms - self.issued_ms <= timeout):
            return "commit" if self.committed else "abort"
        if (self.system == "planet" and self.accepted_ms is not None
                and self.accepted_ms - self.issued_ms <= timeout):
            if self.committed is None:
                return "unknown"
            return "accept-commit" if self.committed else "accept-abort"
        return "unknown"


class MetricsCollector:
    """Aggregates transaction records over one measurement window.

    Two windowings coexist, as in any real benchmark:

    * **throughput** metrics (``commit_tps``, ``abort_tps``,
      ``rejected_tps``) count events by when the *decision happened*
      inside the window — under saturation, queued work decided after
      the window must not be credited to it;
    * **per-transaction** metrics (response times, outcome classes,
      speculation statistics) consider transactions *issued* inside
      the window, following them to their eventual fate.

    Feed ``add`` every record of the run, warmup included.
    """

    def __init__(self, window_start_ms: float, window_end_ms: float):
        if window_end_ms <= window_start_ms:
            raise ValueError("empty measurement window")
        self.window_start_ms = window_start_ms
        self.window_end_ms = window_end_ms
        self.all_records: List[TxRecord] = []

    # -- collection ----------------------------------------------------------

    def add(self, record: TxRecord) -> None:
        self.all_records.append(record)

    @property
    def records(self) -> List[TxRecord]:
        """Transactions issued inside the measurement window."""
        return [r for r in self.all_records
                if self.window_start_ms <= r.issued_ms < self.window_end_ms]

    def _decided_in_window(self, record: TxRecord) -> bool:
        when = record.decided_ms
        return (when is not None
                and self.window_start_ms <= when < self.window_end_ms)

    @property
    def window_seconds(self) -> float:
        return (self.window_end_ms - self.window_start_ms) / 1000.0

    # -- counts (issued-in-window transactions) ----------------------------------

    def _attempted(self) -> List[TxRecord]:
        return [r for r in self.records if r.admitted]

    @property
    def n_issued(self) -> int:
        return len(self.records)

    @property
    def n_committed(self) -> int:
        return sum(1 for r in self.records if r.committed)

    @property
    def n_aborted(self) -> int:
        return sum(1 for r in self.records
                   if r.admitted and r.committed is False)

    @property
    def n_rejected(self) -> int:
        return sum(1 for r in self.records if r.rejected)

    @property
    def n_spec(self) -> int:
        return sum(1 for r in self.records if r.spec_ms is not None)

    @property
    def n_spec_incorrect(self) -> int:
        return sum(1 for r in self.records if r.spec_incorrect)

    # -- rates (decided-in-window events) ---------------------------------------------

    def commit_tps(self, hot: Optional[bool] = None) -> float:
        commits = [r for r in self.all_records
                   if r.committed and self._decided_in_window(r)]
        if hot is not None:
            commits = [r for r in commits if r.hot == hot]
        return len(commits) / self.window_seconds

    def abort_tps(self) -> float:
        aborts = [r for r in self.all_records
                  if r.admitted and r.committed is False
                  and self._decided_in_window(r)]
        return len(aborts) / self.window_seconds

    def rejected_tps(self) -> float:
        rejected = [r for r in self.all_records
                    if r.rejected and self._decided_in_window(r)]
        return len(rejected) / self.window_seconds

    def abort_rate(self) -> float:
        """Aborted / attempted among issued-in-window transactions."""
        attempted = self._attempted()
        if not attempted:
            return 0.0
        return (sum(1 for r in attempted if r.committed is False)
                / len(attempted))

    def spec_fraction(self) -> float:
        """Speculative commits / committed transactions."""
        commits = [r for r in self.records if r.committed]
        if not commits:
            return 0.0
        return sum(1 for r in commits if r.spec_ms is not None) / len(commits)

    def spec_incorrect_fraction(self) -> float:
        """Incorrect speculative commits / speculative commits."""
        if self.n_spec == 0:
            return 0.0
        return self.n_spec_incorrect / self.n_spec

    # -- latencies ------------------------------------------------------------------------

    def response_times(self, committed_only: bool = True,
                       include_spec: bool = True) -> List[float]:
        times = []
        for record in self.records:
            if committed_only and not (record.committed
                                       or record.spec_ms is not None):
                continue
            if record.rejected:
                continue
            if include_spec:
                value = record.response_ms
            else:
                value = (record.decided_ms - record.issued_ms
                         if record.decided_ms is not None else None)
            if value is not None:
                times.append(value)
        return times

    def mean_response_ms(self, **kwargs) -> float:
        times = self.response_times(**kwargs)
        return sum(times) / len(times) if times else 0.0

    def percentile_response_ms(self, q: float, **kwargs) -> float:
        times = sorted(self.response_times(**kwargs))
        if not times:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("q outside [0, 1]")
        index = min(int(q * len(times)), len(times) - 1)
        return times[index]

    def response_cdf(self, points_ms: Sequence[float],
                     **kwargs) -> List[float]:
        """Fraction of responses at or below each point (Figure 9)."""
        times = sorted(self.response_times(**kwargs))
        if not times:
            return [0.0] * len(points_ms)
        cdf = []
        for point in points_ms:
            import bisect
            count = bisect.bisect_right(times, point)
            cdf.append(count / len(times))
        return cdf

    # -- outcome taxonomy (Figure 5) ---------------------------------------------------------

    def outcome_breakdown(
            self, timeout_ms: Optional[float] = None) -> Dict[str, float]:
        """Fractions per outcome class over all issued transactions.

        ``timeout_ms`` reclassifies against a hypothetical timeout
        (the Figure 5 sweep).
        """
        if not self.records:
            return {}
        counts: Dict[str, int] = {}
        for record in self.records:
            key = record.outcome_class(timeout_ms)
            counts[key] = counts.get(key, 0) + 1
        return {key: count / len(self.records)
                for key, count in sorted(counts.items())}

    # -- commit-type taxonomy (Figure 10) -----------------------------------------------------

    def commit_type_breakdown(self) -> Dict[str, float]:
        """Normal / spec / incorrect-spec / abort / rejected as TPS."""
        seconds = self.window_seconds
        normal = spec = bad_spec = aborts = rejected = 0
        for record in self.records:
            if record.rejected:
                rejected += 1
            elif record.spec_incorrect:
                bad_spec += 1
            elif record.spec_ms is not None:
                spec += 1
            elif record.committed:
                normal += 1
            elif record.committed is False:
                aborts += 1
        return {
            "commits": normal / seconds,
            "spec": spec / seconds,
            "incorrect_spec": bad_spec / seconds,
            "aborts": aborts / seconds,
            "rejected": rejected / seconds,
        }
