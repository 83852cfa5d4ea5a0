"""Heap-driven discrete-event simulation kernel.

The design follows the classic generator-based cooperative style (as
popularised by SimPy): a :class:`Process` wraps a Python generator that
``yield``\\ s :class:`Event` objects; the kernel resumes the generator
when the yielded event fires.  The kernel is deliberately small and
fully deterministic: ties in time are broken by a monotonically
increasing sequence number, so two runs with the same seeds produce
identical traces.

Hot-path notes
--------------
Every message a figure-scale experiment sends becomes at least one
:class:`Event` through this kernel, so the per-event constant factors
here bound the whole reproduction's wall-clock time.  Three deliberate
choices keep them small:

* every kernel class declares ``__slots__`` (no per-instance dict;
  attribute access compiles to a fixed-offset load),
* the failure-propagation flag ``_defused`` is a slotted attribute
  initialized in ``Event.__init__`` rather than a ``getattr`` probe in
  the event loop, and
* :meth:`Environment.run` is the one event loop: it inlines the body
  of :meth:`Environment.step` with the queue and ``heappop`` bound to
  locals — one Python frame per event instead of two — and serves
  bounded windows, unbounded runs and metered runs alike.

``python -m repro.perf`` benchmarks this loop; regressions fail CI.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right as _bisect_right
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
)

_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")

#: Sentinel for an event that has not yet been given a value.
_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three phases: *pending* (just created),
    *triggered* (given a value and scheduled on the event queue), and
    *processed* (its callbacks have run).  Waiting processes register
    themselves in :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: True once a waiter has taken responsibility for a failure;
        #: the event loop then will not re-raise it.  A plain slotted
        #: bool (not a getattr probe) — the loop reads it per event.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` raised at their
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` virtual ms."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flattened Event.__init__ (no super() call): timeouts are the
        # single most common event the workload generators create.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self)


class Process(Event):
    """A running simulation process, wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates: with the generator's return value on normal exit, or
    with the raised exception on failure.  Other processes may
    ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a dead process is an error; interrupting yourself
        is too (a process cannot be suspended and interrupted at once).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process is currently waiting on, then
        # schedule an immediate resume carrying the Interrupt.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup.callbacks.append(self._resume)
        wakeup._defused = True  # never propagate to the kernel
        self.env.schedule(wakeup, priority=Environment.PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Mark the failure as handled by this process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if next_event.env is not env:
                raise SimulationError(
                    "yielded an event from a different environment")
            if next_event.callbacks is not None:
                # Event still pending/triggered: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop and feed its value directly.
            event = next_event

        env._active_process = None


class ConditionEvent(Event):
    """Base for events that fire when a set of child events *occur*.

    A child is considered to have occurred once it is *processed* (its
    callbacks have run), not merely triggered: a :class:`Timeout` holds
    its value from construction but only occurs when the clock reaches
    it.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError(
                    "condition mixes events from different environments")
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self.succeed({})

    def _collect(self) -> dict:
        """Values of all children that have occurred so far."""
        return {
            event: event._value
            for event in self.events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires once every child event has occurred (or any child fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        if all(child.processed for child in self.events):
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Fires as soon as the first child event occurs."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


#: WheelTimer lifecycle states (plain ints: compared in the fire loop).
_TIMER_PENDING = 0
_TIMER_FIRED = 1
_TIMER_CANCELLED = 2

_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1
#: Ticks spanned by the three bucket levels together (256**3); beyond
#: this a timer waits in the overflow list until the clock gets close.
_WHEEL_SPAN = _WHEEL_SLOTS ** 3


class WheelTimer:
    """Handle for one deadline armed on a :class:`TimerWheel`.

    The handle is what makes the wheel *cancelable*: holders call
    :meth:`cancel` when the thing they were guarding (an RPC reply, a
    Paxos decision, a transaction outcome) arrives first, and the
    wheel simply never runs the callback — no heap event was ever
    scheduled and no dead generator is ever resumed.  Cancelling an
    already-fired or already-cancelled timer is a no-op.
    """

    __slots__ = ("when", "callback", "_seq", "_tick", "_state", "_wheel")

    def __init__(self, when: float, callback: Callable[[], None],
                 seq: int, tick: int, wheel: "TimerWheel"):
        self.when = when
        self.callback = callback
        self._seq = seq
        self._tick = tick
        self._state = _TIMER_PENDING
        self._wheel = wheel

    def __lt__(self, other: "WheelTimer") -> bool:
        # Total order (when, arm sequence): same-deadline timers fire
        # in arm order, matching the heap's eid tie-break discipline.
        if self.when != other.when:
            return self.when < other.when
        return self._seq < other._seq

    @property
    def active(self) -> bool:
        """True while the timer may still fire."""
        return self._state == _TIMER_PENDING

    @property
    def fired(self) -> bool:
        return self._state == _TIMER_FIRED

    @property
    def cancelled(self) -> bool:
        return self._state == _TIMER_CANCELLED

    def cancel(self) -> None:
        """Drop the timer; O(1), the wheel reaps the entry lazily."""
        if self._state == _TIMER_PENDING:
            self._state = _TIMER_CANCELLED
            wheel = self._wheel
            wheel._live -= 1
            wheel.cancelled_total += 1

    def __repr__(self) -> str:
        state = ("pending", "fired", "cancelled")[self._state]
        return f"<WheelTimer {state} when={self.when} at {id(self):#x}>"


class TimerWheel:
    """Hierarchical timer wheel for cancelable one-shot deadlines.

    The wheel serves the timer flood a commit protocol and a batched
    load produce: deadlines armed one at a time (RPC expiries, round
    timeouts, transaction deadlines, the next aggregate arrival), many
    of which are cancelled before they fire.  Three levels of 256
    buckets hold timers hashed by their deadline tick (1 tick =
    ``granularity_ms`` of virtual time, 1 ms by default); arming and
    cancelling are O(1) amortized, and a cancelled timer costs nothing
    beyond its bucket slot until the cursor sweeps past it.

    Ordering contract: a live timer at time *t* fires after every heap
    event scheduled strictly before *t* and before every heap event
    strictly after *t*; at exactly equal timestamps the heap wins, and
    a ``run(until=t)`` boundary stops *before* a wheel timer at exactly
    ``t`` (the timer survives into the next run window).  Same-tick
    timers fire in exact ``when`` order, ties broken by arm order.

    The wheel keeps a *stale-allowed* head (``_head`` is a lower
    bound on the earliest live deadline, repaired lazily when the
    event loop visits it), so cancellation never pays to re-scan
    buckets.  While nothing is armed the event loop pays one slotted
    attribute read per processed event — bounded by the kernel bench.
    """

    __slots__ = ("granularity_ms", "_levels", "_counts", "_overflow",
                 "_cursor", "_due", "_due_i", "_head", "_live", "_seq",
                 "armed_total", "cancelled_total", "fired_total")

    def __init__(self, granularity_ms: float = 1.0,
                 start_ms: float = 0.0):
        if granularity_ms <= 0:
            raise ValueError(f"granularity {granularity_ms} must be > 0")
        self.granularity_ms = float(granularity_ms)
        self._levels: List[List[List[WheelTimer]]] = [
            [[] for _ in range(_WHEEL_SLOTS)] for _ in range(3)]
        #: Entries per level (cancelled included until reaped): lets
        #: the cursor skip whole windows without touching 256 slots.
        self._counts = [0, 0, 0]
        self._overflow: List[WheelTimer] = []
        self._cursor = int(start_ms / self.granularity_ms)
        #: Sorted timers whose tick the cursor has reached, consumed
        #: from ``_due_i``; the prefix before it is spent (fired,
        #: cancelled, or skipped-cancelled) and never re-inspected.
        self._due: List[WheelTimer] = []
        self._due_i = 0
        self._head = _INF
        self._live = 0
        self._seq = 0
        self.armed_total = 0
        self.cancelled_total = 0
        self.fired_total = 0

    @property
    def live(self) -> int:
        """Number of armed timers that may still fire."""
        return self._live

    def arm(self, when: float, callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` to run at virtual time ``when``; O(1)."""
        tick = int(when / self.granularity_ms)
        timer = WheelTimer(when, callback, self._seq, tick, self)
        self._seq += 1
        if tick <= self._cursor:
            # Already inside the due window (arms from a firing
            # callback land here).  Insert after the consumed prefix —
            # an earlier cancelled-and-skipped entry may carry a later
            # deadline, and bisecting the whole list could then bury
            # the new timer behind the consume pointer.
            due = self._due
            due.insert(_bisect_right(due, timer, self._due_i), timer)
        else:
            self._place(timer, self._cursor)
        live = self._live
        self._live = live + 1
        self.armed_total += 1
        if not live or when < self._head:
            # First live timer after a fully-cancelled era: the stale
            # head may lie in the past, so reset it, never min() it.
            self._head = when
        return timer

    def next_deadline(self) -> float:
        """Exact earliest live deadline (``inf`` when none).

        Repairs the stale head, reaping spent due entries en route;
        used by ``peek``/``step``, while the inlined loop in ``run``
        consults the cheap stale bound.
        """
        if not self._live:
            return _INF
        due = self._due
        i = self._due_i
        n = len(due)
        while i < n:
            timer = due[i]
            if timer._state == _TIMER_PENDING:
                self._due_i = i
                self._head = timer.when
                return timer.when
            i += 1
        self._due_i = n
        self._refill()
        return self._head

    def _fire_head(self) -> None:
        """Run the callback of the timer at the cached head.

        The event loop calls this with the clock already advanced to
        ``_head``.  If the head is stale (its timer was cancelled),
        this repairs the cache and fires nothing — the loop simply
        comes around again.  At most one timer fires per call, and the
        head is exact again before the callback runs (callbacks may
        arm or cancel freely).
        """
        due = self._due
        i = self._due_i
        n = len(due)
        target = self._head
        while i < n:
            timer = due[i]
            if timer._state != _TIMER_PENDING:
                i += 1
                continue
            if timer.when > target:
                # Stale head: the timer it pointed at was cancelled.
                self._due_i = i
                self._head = timer.when
                return
            i += 1
            self._due_i = i
            timer._state = _TIMER_FIRED
            self._live -= 1
            self.fired_total += 1
            j = i
            while j < n and due[j]._state != _TIMER_PENDING:
                j += 1
            if j < n:
                self._due_i = j
                self._head = due[j].when
            else:
                self._due_i = j
                self._refill()
            timer.callback()
            return
        self._due_i = i
        self._refill()

    # -- bucket machinery ---------------------------------------------

    def _place(self, timer: WheelTimer, cursor: int) -> None:
        """File a future timer into the level its distance selects."""
        tick = timer._tick
        delta = tick - cursor
        if delta < _WHEEL_SLOTS:
            self._levels[0][tick & _WHEEL_MASK].append(timer)
            self._counts[0] += 1
        elif delta < _WHEEL_SLOTS ** 2:
            self._levels[1][(tick >> 8) & _WHEEL_MASK].append(timer)
            self._counts[1] += 1
        elif delta < _WHEEL_SPAN:
            self._levels[2][(tick >> 16) & _WHEEL_MASK].append(timer)
            self._counts[2] += 1
        else:
            self._overflow.append(timer)

    def _cascade(self, level: int, cursor: int) -> None:
        """Re-file the slot the cursor just reached one level down.

        Timers whose tick equals the new cursor join the due list;
        cancelled entries are dropped here, which is the lazy-cancel
        reap point for bucketed timers.
        """
        slot_index = (cursor >> (8 * level)) & _WHEEL_MASK
        entries = self._levels[level][slot_index]
        if not entries:
            return
        self._levels[level][slot_index] = []
        self._counts[level] -= len(entries)
        due = self._due
        for timer in entries:
            if timer._state != _TIMER_PENDING:
                continue
            if timer._tick <= cursor:
                due.append(timer)
            else:
                self._place(timer, cursor)

    def _sift_overflow(self, cursor: int) -> None:
        """Re-file overflow timers now that the clock moved 256³ ticks."""
        pending = self._overflow
        if not pending:
            return
        self._overflow = []
        due = self._due
        for timer in pending:
            if timer._state != _TIMER_PENDING:
                continue
            if timer._tick <= cursor:
                due.append(timer)
            else:
                self._place(timer, cursor)

    def _refill(self) -> None:
        """Advance the cursor to the next live deadline, rebuilding the
        due list.  Only called once the previous due list is fully
        consumed.  Amortized O(1) per timer plus O(windows crossed)."""
        self._due = []
        self._due_i = 0
        if not self._live:
            self._head = _INF
            if (self._counts[0] or self._counts[1] or self._counts[2]
                    or self._overflow):
                # Only cancelled husks remain: drop them all at once
                # rather than letting the cursor chase them.
                self._levels = [
                    [[] for _ in range(_WHEEL_SLOTS)] for _ in range(3)]
                self._counts = [0, 0, 0]
                self._overflow = []
            return
        levels = self._levels
        counts = self._counts
        l0 = levels[0]
        while True:
            cursor = self._cursor
            window_end = cursor | _WHEEL_MASK
            if counts[0]:
                for tick in range(cursor + 1, window_end + 1):
                    slot = l0[tick & _WHEEL_MASK]
                    self._cursor = tick
                    if slot:
                        l0[tick & _WHEEL_MASK] = []
                        counts[0] -= len(slot)
                        live = [timer for timer in slot
                                if timer._state == _TIMER_PENDING]
                        if live:
                            live.sort()
                            self._due = live
                            self._head = live[0].when
                            return
            boundary = window_end + 1
            self._cursor = boundary
            if not (counts[0] or counts[1] or counts[2] or self._overflow):
                raise SimulationError("timer wheel lost a live timer")
            if (boundary >> 8) & _WHEEL_MASK == 0:
                if (boundary >> 16) & _WHEEL_MASK == 0:
                    self._sift_overflow(boundary)
                self._cascade(2, boundary)
            self._cascade(1, boundary)
            # Level-0 entries at exactly the new boundary tick were
            # placed before the cursor reached it; the window scan
            # above starts one past the boundary, so collect them now.
            slot = l0[boundary & _WHEEL_MASK]
            if slot:
                l0[boundary & _WHEEL_MASK] = []
                counts[0] -= len(slot)
                due = self._due
                for timer in slot:
                    if timer._state == _TIMER_PENDING:
                        due.append(timer)
            due = self._due
            if due:
                due.sort()
                self._head = due[0].when
                return

    def __repr__(self) -> str:
        return (f"<TimerWheel live={self._live} armed={self.armed_total} "
                f"cancelled={self.cancelled_total} "
                f"fired={self.fired_total} at {id(self):#x}>")


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(10)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 10.0
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "_wheel",
                 "tracer", "metrics", "spans", "process_wrapper")

    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Cancelable one-shot deadlines (RPC expiries, round and
        #: transaction timeouts) live here instead of the heap; while
        #: nothing is armed the loop pays one attribute read per event.
        self._wheel = TimerWheel(start_ms=self._now)
        #: Optional structured-event sink: a callable
        #: ``(ts_ms, etype, node, fields)`` installed by the history
        #: recorder (``repro.check``).  ``None`` keeps tracing free:
        #: instrumented components guard their ``trace`` calls with
        #: ``if env.tracer is not None`` so disabled runs pay only an
        #: attribute check per hook site.
        self.tracer: Optional[Callable[[float, str, str, dict], None]] = None
        #: Optional observability hooks (``repro.obs``), duck-typed so
        #: the kernel never imports that package: ``metrics`` is a
        #: MetricsRegistry, ``spans`` a SpanRecorder.  Both default to
        #: ``None`` and follow the same zero-cost contract as
        #: :attr:`tracer` — instrumented layers guard each site with an
        #: ``is not None`` check, verified by the ``obs`` perf bench.
        self.metrics: Optional[Any] = None
        self.spans: Optional[Any] = None
        #: Optional generator wrapper applied once per
        #: :meth:`process` call, same zero-cost contract as the hooks
        #: above (one ``is not None`` check at process creation, never
        #: in the event loop).  The atomicity sanitizer
        #: (``repro.check.atomicity``) uses it to interpose yield-point
        #: snapshots without the kernel importing that package.
        self.process_wrapper: Optional[
            Callable[[Generator], Generator]] = None

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def trace(self, etype: str, node: str = "", **fields: Any) -> None:
        """Emit one structured history event to the installed tracer.

        A no-op while :attr:`tracer` is ``None``; every instrumented
        layer (transport, Paxos, coordinator, storage) funnels its
        events through here so a recorder sees one totally ordered
        stream stamped with the virtual clock.
        """
        if self.tracer is not None:
            self.tracer(self._now, etype, node, fields)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` virtual ms."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        wrapper = self.process_wrapper
        if wrapper is not None:
            generator = wrapper(generator)
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def timer_wheel(self) -> TimerWheel:
        """The environment's cancelable-deadline wheel (always present)."""
        return self._wheel

    def arm_timer(self, deadline_ms: float,
                  callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` to run at virtual time ``deadline_ms``.

        Returns a :class:`WheelTimer` handle whose :meth:`~WheelTimer.
        cancel` drops the deadline in O(1) — the idiom for protocol
        timeouts that are almost always won by the event they guard.
        Unlike a heap :class:`Timeout`, a cancelled wheel timer never
        schedules anything and never keeps :meth:`run` alive.
        """
        if deadline_ms < self._now:
            raise ValueError(
                f"deadline {deadline_ms} lies in the past "
                f"(now={self._now})")
        return self._wheel.arm(deadline_ms, callback)

    # -- scheduling & execution -------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` ms from now."""
        eid = self._eid + 1
        self._eid = eid
        _heappush(self._queue, (self._now + delay, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled occurrence (heap event or wheel
        timer), or ``inf`` if none."""
        when = self._queue[0][0] if self._queue else _INF
        if self._wheel._live:
            wheel_when = self._wheel.next_deadline()
            if wheel_when < when:
                return wheel_when
        return when

    def step(self) -> None:
        """Process the single next occurrence: the earliest wheel timer
        if it strictly beats the heap head (ties go to the heap), else
        the next queued event.

        :meth:`run` inlines this body (with heap/queue bound to locals)
        — keep the two in sync when changing event-loop semantics.
        """
        wheel = self._wheel
        if wheel._live:
            when = wheel.next_deadline()
            if not self._queue or when < self._queue[0][0]:
                self._now = when
                wheel._fire_head()
                return
        if not self._queue:
            raise SimulationError("no more events to process")
        when, _priority, _eid, event = _heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: crash the simulation loudly rather
            # than letting errors pass silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``.

        The one event loop: it inlines :meth:`step` with the queue and
        ``heappop`` bound to locals, since it runs once per simulated
        event and the saved method call is a measurable share of
        figure-scale wall time (see docs/performance.md).  A window
        boundary is an urgent stop event at ``until``, so normal-priority
        heap events and wheel timers at exactly ``until`` wait for the
        next window.  The number of occurrences processed (heap
        dispatches plus wheel timers fired; the stop event and stale
        wheel-head visits are not occurrences) is published as the
        ``sim.events`` counter when a metrics registry is installed,
        even if the run raises.
        """
        queue = self._queue
        pop = _heappop
        wheel = self._wheel
        stop: Optional[Event] = None
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until={until} lies in the past (now={self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            self.schedule(stop, delay=until - self._now,
                          priority=self.PRIORITY_URGENT)
        dispatched = 0
        fired_before = wheel.fired_total
        try:
            while queue or wheel._live:
                if wheel._live:
                    # The cached head is a lower bound; a stale visit
                    # advances the clock to it and fires nothing, so
                    # the strict < still stops before `until`.
                    when = wheel._head
                    if not queue or when < queue[0][0]:
                        self._now = when
                        wheel._fire_head()
                        continue
                if queue[0][3] is stop:
                    self._now = pop(queue)[0]
                    return
                when, _priority, _eid, event = pop(queue)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                dispatched += 1
        finally:
            metrics = self.metrics
            if metrics is not None:
                events = dispatched + wheel.fired_total - fired_before
                if events:
                    metrics.inc("sim.events", float(events))
