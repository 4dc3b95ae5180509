"""The supervision ladder: revive, back off, quarantine, forgive.

Driven through a fake broker and an injected clock, so the full
backoff/quarantine policy is exercised in milliseconds of wall time
and with exact control over which sessions are alive at each tick.
"""

from __future__ import annotations

from repro.service.metrics import MetricsRegistry
from repro.service.supervisor import Supervisor, SupervisorConfig

import pytest


class FakeBroker:
    """Just enough broker for the supervisor: a health map plus
    call recording."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.health: dict = {}
        self.revived: list = []
        self.quarantined: list = []
        self.revive_result = True

    def add(self, name: str, alive: bool = True,
            quarantined: bool = False) -> None:
        self.health[name] = {"attached": alive, "alive": alive,
                             "quarantined": quarantined, "pid": None}

    def session_health(self) -> dict:
        return {name: dict(info) for name, info in self.health.items()}

    def ensure_worker(self, name: str) -> bool:
        self.revived.append(name)
        if self.revive_result:
            self.health[name]["alive"] = True
            self.health[name]["attached"] = True
        return self.revive_result

    def quarantine(self, name: str) -> None:
        self.quarantined.append(name)
        self.health[name]["quarantined"] = True
        self.health[name]["alive"] = False


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def broker():
    return FakeBroker()


@pytest.fixture
def clock():
    return Clock()


def _supervisor(broker, clock, **kwargs) -> Supervisor:
    kwargs.setdefault("jitter", 0.0)  # exact delays in assertions
    return Supervisor(broker, SupervisorConfig(**kwargs), clock=clock)


class TestRevival:
    def test_healthy_sessions_left_alone(self, broker, clock):
        broker.add("prod", alive=True)
        sup = _supervisor(broker, clock)
        assert sup.tick() == {"prod": "healthy"}
        assert broker.revived == []

    def test_dead_desired_session_is_revived(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock)
        assert sup.tick() == {"prod": "revived"}
        assert broker.revived == ["prod"]
        assert sup.history("prod")["consecutive"] == 1

    def test_quarantined_skipped(self, broker, clock):
        broker.add("bad", alive=False, quarantined=True)
        sup = _supervisor(broker, clock)
        assert sup.tick() == {"bad": "skipped"}
        assert broker.revived == []

    def test_revival_increments_metric(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock)
        sup.tick()
        value = broker.metrics.counter("supervisor_revivals_total").value
        assert value == 1


class TestBackoff:
    def test_consecutive_deaths_back_off_exponentially(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, backoff_base=1.0, backoff_cap=60.0,
                          crash_threshold=100)
        sup.tick()  # first revival, schedules next_attempt = now + 1.0
        assert sup.history("prod")["next_attempt"] == clock.now + 1.0

        broker.health["prod"]["alive"] = False  # dies again immediately
        assert sup.tick() == {"prod": "backoff"}  # still inside the delay
        clock.now += 1.1
        assert sup.tick() == {"prod": "revived"}
        # Second consecutive restart doubles the delay.
        assert sup.history("prod")["next_attempt"] == pytest.approx(
            clock.now + 2.0)

    def test_backoff_caps(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, backoff_base=1.0, backoff_cap=4.0,
                          crash_threshold=100, crash_window=1e9)
        for _ in range(6):
            clock.now += 1000.0
            assert sup.tick() == {"prod": "revived"}
            broker.health["prod"]["alive"] = False
        assert sup.history("prod")["next_attempt"] <= clock.now + 4.0

    def test_sustained_health_forgives_history(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, crash_window=10.0)
        sup.tick()
        assert sup.history("prod")["consecutive"] == 1
        # Alive and past the crash window: history resets.
        clock.now += 11.0
        assert sup.tick() == {"prod": "healthy"}
        assert sup.history("prod")["consecutive"] == 0

    def test_jitter_is_deterministic_and_bounded(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, jitter=0.25)
        factors = {sup._jitter_factor("prod", attempt)
                   for attempt in range(1, 6)}
        assert all(0.75 <= f <= 1.25 for f in factors)
        assert len(factors) > 1  # varies by attempt
        again = _supervisor(broker, clock, jitter=0.25)
        assert again._jitter_factor("prod", 1) == sup._jitter_factor(
            "prod", 1)


class TestQuarantine:
    def test_crash_loop_is_quarantined(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, backoff_base=0.001,
                          backoff_cap=0.001, crash_threshold=3,
                          crash_window=1e9)
        actions = []
        for _ in range(5):
            actions.append(sup.tick()["prod"])
            broker.health["prod"]["alive"] = False
            clock.now += 1.0
        assert actions[:3] == ["revived", "revived", "revived"]
        assert "quarantined" in actions
        assert broker.quarantined == ["prod"]
        counter = broker.metrics.counter("supervisor_quarantines_total")
        assert counter.value == 1

    def test_slow_crashes_outside_window_never_quarantine(self, broker,
                                                          clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, backoff_base=0.001,
                          backoff_cap=0.001, crash_threshold=3,
                          crash_window=5.0)
        for _ in range(10):
            assert sup.tick()["prod"] == "revived"
            broker.health["prod"]["alive"] = False
            clock.now += 6.0  # each crash falls out of the window
        assert broker.quarantined == []

    def test_quarantined_stays_skipped(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock, backoff_base=0.001,
                          backoff_cap=0.001, crash_threshold=1,
                          crash_window=1e9)
        sup.tick()
        broker.health["prod"]["alive"] = False
        clock.now += 1.0
        assert sup.tick() == {"prod": "quarantined"}
        clock.now += 100.0
        assert sup.tick() == {"prod": "skipped"}
        assert broker.revived == ["prod"]  # no further forks


class TestHousekeeping:
    def test_vanished_deployment_forgotten(self, broker, clock):
        broker.add("prod", alive=False)
        sup = _supervisor(broker, clock)
        sup.tick()
        assert sup.history("prod")["consecutive"] == 1
        del broker.health["prod"]
        sup.tick()
        assert sup.history("prod")["consecutive"] == 0

    def test_start_stop_idempotent(self, broker, clock):
        sup = _supervisor(broker, clock, poll_interval=0.01)
        sup.start()
        sup.start()
        sup.stop()
        sup.stop()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(poll_interval=0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_base=0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ValueError):
            SupervisorConfig(jitter=1.5)
        with pytest.raises(ValueError):
            SupervisorConfig(crash_threshold=0)
        with pytest.raises(ValueError):
            SupervisorConfig(crash_window=0)
