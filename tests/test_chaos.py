"""Deterministic fault injection (repro.chaos).

The chaos layer is itself load-bearing test infrastructure — the
resilience suite (tests/test_resilience.py) trusts it to fire exactly
when asked — so its counting, keying, env parsing and idle-cost
contracts get their own coverage here.
"""

import time

import pytest

from repro import chaos


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.reset()
    yield
    chaos.reset()


class TestConfigure:
    def test_counted_fault_fires_exactly_n_times(self):
        chaos.configure("unit.point", mode="error", count=2)
        for _ in range(2):
            with pytest.raises(chaos.ChaosError):
                chaos.fail_point("unit.point")
        # spent: reached but never fires again
        chaos.fail_point("unit.point")
        chaos.fail_point("unit.point")

    def test_unlimited_fault_never_disarms(self):
        chaos.configure("unit.point", mode="error", count=None)
        for _ in range(5):
            with pytest.raises(chaos.ChaosError):
                chaos.fail_point("unit.point")

    def test_error_modes_raise_matching_exceptions(self):
        chaos.configure("a", mode="error")
        with pytest.raises(chaos.ChaosError):
            chaos.fail_point("a")
        chaos.configure("b", mode="ioerror")
        with pytest.raises(OSError):
            chaos.fail_point("b")
        chaos.configure("c", mode="reset")
        with pytest.raises(ConnectionResetError):
            chaos.fail_point("c")

    def test_latency_mode_sleeps_instead_of_raising(self):
        chaos.configure("slow", mode="latency", count=None, seconds=0.05)
        started = time.monotonic()
        chaos.fail_point("slow")
        assert time.monotonic() - started >= 0.04

    def test_key_prefix_scopes_the_fault(self):
        chaos.configure("scored", mode="error", count=None, key="abc")
        chaos.fail_point("scored", key="zzz-other")       # no match
        chaos.fail_point("scored")                        # keyless call
        with pytest.raises(chaos.ChaosError):
            chaos.fail_point("scored", key="abcdef0123")  # prefix match

    def test_custom_message(self):
        chaos.configure("msg", message="boom goes the dependency")
        with pytest.raises(chaos.ChaosError, match="boom goes"):
            chaos.fail_point("msg")

    def test_validation(self):
        with pytest.raises(ValueError):
            chaos.configure("x", mode="nope")
        with pytest.raises(ValueError):
            chaos.configure("x", count=0)
        with pytest.raises(ValueError):
            chaos.configure("x", mode="latency", seconds=-1.0)


class TestIdleContract:
    def test_unarmed_fail_point_is_a_no_op(self):
        assert not chaos.active()
        chaos.fail_point("anything", key="whatever")

    def test_reset_disarms_everything(self):
        chaos.configure("p1")
        chaos.configure("p2")
        assert chaos.active()
        chaos.reset()
        assert not chaos.active()
        chaos.fail_point("p1")
        chaos.fail_point("p2")

    def test_unrelated_point_does_not_fire(self):
        chaos.configure("only.this")
        chaos.fail_point("some.other.point")


class TestStats:
    def test_hits_vs_triggered(self):
        chaos.configure("s", mode="error", count=1, key="match")
        chaos.fail_point("s", key="nope")
        with pytest.raises(chaos.ChaosError):
            chaos.fail_point("s", key="match-123")
        info = chaos.stats()["s"]
        assert info["hits"] == 2
        assert info["triggered"] == 1
        assert info["armed"] == 1

    def test_triggered_totals_survive_reset(self):
        chaos.configure("mono")
        with pytest.raises(chaos.ChaosError):
            chaos.fail_point("mono")
        chaos.reset()
        info = chaos.stats()["mono"]
        assert info["triggered"] == 1      # monotonic for /metrics
        assert info["armed"] == 0


class TestEnvSpec:
    def test_spec_parsing(self):
        armed = chaos.install_from_env(
            "checkpoint.load:ioerror:2, gateway.score:latency:0.001;"
            "service.score:error:inf")
        assert armed == 3
        with pytest.raises(OSError):
            chaos.fail_point("checkpoint.load")
        with pytest.raises(OSError):
            chaos.fail_point("checkpoint.load")
        chaos.fail_point("checkpoint.load")     # count=2 spent
        chaos.fail_point("gateway.score")       # latency: returns
        for _ in range(3):
            with pytest.raises(chaos.ChaosError):
                chaos.fail_point("service.score")    # inf: never disarms

    def test_default_count_is_one(self):
        chaos.install_from_env("one.shot:error")
        with pytest.raises(chaos.ChaosError):
            chaos.fail_point("one.shot")
        chaos.fail_point("one.shot")

    def test_malformed_entry_raises(self):
        with pytest.raises(ValueError, match="bad REPRO_CHAOS entry"):
            chaos.install_from_env("justapoint")

    def test_empty_spec_arms_nothing(self):
        assert chaos.install_from_env("") == 0
        assert chaos.install_from_env(" , ; ") == 0
        assert not chaos.active()
