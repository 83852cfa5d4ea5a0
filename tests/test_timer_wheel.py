"""Kernel timer wheel: ordering vs the heap, cancellation, RPC.

The contract under test (see :class:`repro.sim.TimerWheel`): wheel
timers fire interleaved with heap events in timestamp order; at
exactly equal timestamps the heap wins; a ``run(until=t)`` boundary
stops before a wheel timer at exactly ``t``; cancelled timers never
fire, never schedule anything, and never keep ``run()`` alive; and
the RPC reply path cancels the deadline so a call answered in time
touches the heap zero extra times.
"""

import pytest

from repro.net import RpcEndpoint, RpcTimeout, Transport, uniform_topology
from repro.sim import Environment, RandomStreams, TimerWheel


# -- ordering vs the heap -----------------------------------------

def test_wheel_interleaves_with_heap_events():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1.0)
        order.append(("heap", env.now))
        yield env.timeout(2.0)
        order.append(("heap", env.now))

    env.process(proc(env))
    for when in (0.5, 1.5, 2.5):
        env.arm_timer(when, lambda w=when: order.append(("wheel", w)))
    env.run()
    assert order == [("wheel", 0.5), ("heap", 1.0), ("wheel", 1.5),
                     ("wheel", 2.5), ("heap", 3.0)]
    assert env.now == 3.0


def test_heap_wins_exact_timestamp_ties():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(5.0)
        order.append("heap")

    env.process(proc(env))
    env.arm_timer(5.0, lambda: order.append("wheel"))
    env.run()
    assert order == ["heap", "wheel"]


def test_same_deadline_timers_fire_in_arm_order():
    env = Environment()
    fired = []
    for tag in ("a", "b", "c"):
        env.arm_timer(2.0, lambda t=tag: fired.append(t))
    env.run()
    assert fired == ["a", "b", "c"]


def test_until_boundary_stops_before_wheel_timer():
    """A timer at exactly ``until`` must NOT fire — the urgent stop
    event wins the tie, matching Timeout semantics — and it
    survives into the next run window."""
    env = Environment()
    fired = []
    for when in (1.0, 2.0, 3.0):
        env.arm_timer(when, lambda w=when: fired.append(w))
    env.run(until=2.0)
    assert fired == [1.0]
    assert env.now == 2.0
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_wheel_advances_clock_when_heap_empty():
    env = Environment()
    at = []
    env.arm_timer(4.0, lambda: at.append(env.now))
    env.arm_timer(9.0, lambda: at.append(env.now))
    env.run()
    assert at == [4.0, 9.0]
    assert env.now == 9.0


def test_peek_and_step_see_wheel_head():
    env = Environment()
    env.arm_timer(3.0, lambda: None)

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    assert env.peek() == 0.0  # the process-initialize event
    env.step()
    assert env.peek() == 3.0  # wheel head beats the 7.0 timeout
    env.step()
    assert env.now == 3.0
    env.run()
    assert env.now == 7.0


def test_long_deadlines_cross_all_wheel_levels():
    """Deadlines land in level 0/1/2 and the overflow list by distance
    (256/256²/256³ ticks at 1 ms per tick) and still fire in order."""
    env = Environment()
    fired = []
    deadlines = [70.0, 70_000.0, 2_000_000.0, 20_000_000.0, 30_000_000.0]
    for when in deadlines:
        env.arm_timer(when, lambda w=when: fired.append(w))
    env.run()
    assert fired == deadlines
    assert env.now == deadlines[-1]


# -- cancellation -----------------------------------------------------------

def test_cancelled_timer_never_fires():
    env = Environment()
    fired = []
    keep = env.arm_timer(1.0, lambda: fired.append("keep"))
    drop = env.arm_timer(2.0, lambda: fired.append("drop"))
    drop.cancel()
    env.run()
    assert fired == ["keep"]
    assert keep.fired and drop.cancelled and not drop.active


def test_cancelled_timers_do_not_keep_run_alive():
    """The perf win under test: dead deadlines neither hold the clock
    nor cost events — an unbounded run quiesces at the last live one."""
    env = Environment()
    fired = []
    env.arm_timer(1.0, lambda: fired.append(env.now))
    stale = [env.arm_timer(5_000.0 + i, lambda: fired.append("stale"))
             for i in range(10)]
    for timer in stale:
        timer.cancel()
    env.run()
    assert fired == [1.0]
    assert env.now == 1.0  # not 5009.0: the husks never held the clock
    assert env.timer_wheel.live == 0


def test_cancel_is_idempotent_and_noop_after_fire():
    env = Environment()
    timer = env.arm_timer(1.0, lambda: None)
    env.run()
    assert timer.fired
    timer.cancel()
    assert timer.fired and not timer.cancelled
    other = env.arm_timer(2.0, lambda: None)
    other.cancel()
    other.cancel()
    assert other.cancelled
    assert env.timer_wheel.cancelled_total == 1


def test_arm_after_fully_cancelled_era_resets_head():
    """Cancel-everything then arm-earlier must not inherit the stale
    head: the wheel resets (never min()s) when nothing was live."""
    env = Environment()
    fired = []
    late = env.arm_timer(10.0, lambda: fired.append("late"))
    late.cancel()
    env.arm_timer(5.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [5.0]
    assert env.now == 5.0


def test_arm_from_callback_lands_after_the_consume_pointer():
    """Arming inside a firing callback inserts into the live due
    window; a skipped cancelled entry with a later deadline must not
    bury the new timer behind the consume pointer."""
    wheel = TimerWheel()
    fired = []
    wheel.arm(0.8, lambda: fired.append(0.8))
    stale = wheel.arm(0.3, lambda: fired.append(0.3))
    stale.cancel()
    wheel._fire_head()  # stale-head visit: repairs the cache, fires nothing
    assert fired == []
    assert wheel.next_deadline() == 0.8
    wheel._fire_head()  # now past the dead 0.3 entry
    assert fired == [0.8]
    wheel.arm(0.5, lambda: fired.append(0.5))
    assert wheel.next_deadline() == 0.5
    wheel._fire_head()
    assert fired == [0.8, 0.5]
    assert wheel.live == 0


def test_callback_may_arm_the_next_deadline():
    """Re-arming from the expiry callback — the retry idiom — keeps
    the clock monotonic."""
    env = Environment()
    fired = []

    def fire():
        fired.append(env.now)
        if len(fired) < 3:
            env.arm_timer(env.now + 1.0, fire)

    env.arm_timer(1.0, fire)
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_counters_track_armed_cancelled_fired():
    env = Environment()
    env.arm_timer(1.0, lambda: None)
    env.arm_timer(2.0, lambda: None).cancel()
    env.run()
    wheel = env.timer_wheel
    assert (wheel.armed_total, wheel.cancelled_total,
            wheel.fired_total) == (2, 1, 1)
    assert wheel.live == 0


def test_past_deadline_rejected():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    env.process(proc(env))
    env.run()
    with pytest.raises(ValueError):
        env.arm_timer(4.0, lambda: None)


def test_instrumented_run_fires_wheel_identically():
    """The tracing/metrics slow path drains the wheel identically."""
    env = Environment()
    order = []
    env.tracer = lambda *args, **kwargs: None

    def proc(env):
        yield env.timeout(1.0)
        order.append(("heap", env.now))

    env.process(proc(env))
    env.arm_timer(0.5, lambda: order.append(("wheel", env.now)))
    env.arm_timer(1.5, lambda: order.append(("wheel", env.now)))
    env.run(until=1.2)
    assert order == [("wheel", 0.5), ("heap", 1.0)]
    env.run()
    assert order == [("wheel", 0.5), ("heap", 1.0), ("wheel", 1.5)]


# -- the RPC deadline path --------------------------------------------------

def _echo_pair(env):
    topology = uniform_topology(2, one_way_ms=10.0, sigma=0.05)
    transport = Transport(env, topology, RandomStreams(seed=3))
    client = RpcEndpoint(env, transport, "client", 0)
    server = RpcEndpoint(env, transport, "server", 1)
    server.on("echo", lambda payload, src: payload)
    return client, server


def test_rpc_reply_before_deadline_cancels_wheel_timer():
    """The acceptance pin: N calls answered in time arm N wheel timers
    and cancel all N — zero fire, no expiry work, and the run quiesces
    at the last reply instead of the last deadline."""
    env = Environment()
    client, _server = _echo_pair(env)
    n_calls = 20
    replies = []

    def driver(env):
        for index in range(n_calls):
            response = yield client.call(
                "server", "echo", index, timeout_ms=1_000.0)
            replies.append(response)

    env.process(driver(env))
    env.run()
    assert replies == list(range(n_calls))
    wheel = env.timer_wheel
    assert wheel.armed_total == n_calls
    assert wheel.cancelled_total == n_calls
    assert wheel.fired_total == 0
    assert wheel.live == 0
    assert env.now < 1_000.0  # no dead deadline held the clock


def test_rpc_timeout_still_fires_without_reply():
    env = Environment()
    topology = uniform_topology(2, one_way_ms=10.0, sigma=0.05)
    transport = Transport(env, topology, RandomStreams(seed=3))
    client = RpcEndpoint(env, transport, "client", 0)
    caught = []

    def driver(env):
        try:
            yield client.call("nobody", "echo", 1, timeout_ms=50.0)
        except RpcTimeout:
            caught.append(env.now)

    env.process(driver(env))
    env.run()
    assert caught == [50.0]
    assert env.timer_wheel.fired_total == 1
