"""Fleet supervision against lightweight stand-in replica processes.

``command_factory`` swaps the real ``python -m repro.server`` gateway for a
tiny stdlib HTTP stub (or a crash-looping no-op), so these tests cover the
spawn / health-check / restart-with-backoff machinery in a couple of seconds
instead of paying gateway start-up per case.
"""

import sys
import time

import pytest

from repro.fleet.manager import FleetConfig, FleetManager, default_command

_STUB_SERVER = """
import http.server, json, sys

class Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = json.dumps({"status": "ok", "stub": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

http.server.HTTPServer(("127.0.0.1", int(sys.argv[1])), Handler).serve_forever()
"""


def stub_command(replica):
    return [sys.executable, "-c", _STUB_SERVER, str(replica.port)]


def crashing_command(replica):
    return [sys.executable, "-c", "pass"]


def make_config(tmp_path, **overrides):
    settings = dict(
        replicas=2,
        cache_dir=str(tmp_path / "cache"),
        backoff_base=0.05,
        backoff_cap=0.2,
        poll_interval=0.02,
        health_timeout=30.0,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


class TestConfig:
    def test_replicas_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="replicas"):
            make_config(tmp_path, replicas=0)

    def test_cache_dir_is_required(self, tmp_path):
        with pytest.raises(ValueError, match="cache_dir"):
            make_config(tmp_path, cache_dir="")

    def test_backoff_window_validated(self, tmp_path):
        with pytest.raises(ValueError, match="backoff"):
            make_config(tmp_path, backoff_base=0.0)
        with pytest.raises(ValueError, match="backoff"):
            make_config(tmp_path, backoff_base=2.0, backoff_cap=1.0)

    def test_default_command_is_the_gateway(self):
        argv = default_command("127.0.0.1", 9000, "/tmp/cache", ("--solver-threads", "4"))
        assert argv[:3] == [sys.executable, "-m", "repro.server"]
        assert "--port" in argv and "9000" in argv
        assert "--cache-dir" in argv and "/tmp/cache" in argv
        assert argv[-2:] == ["--solver-threads", "4"]  # server_args ride at the end


class TestLifecycle:
    def test_start_waits_for_health_and_stop_reaps(self, tmp_path):
        manager = FleetManager(make_config(tmp_path), command_factory=stub_command)
        manager.start(wait_healthy=True)
        try:
            assert len(manager.ports) == 2
            assert len(set(manager.ports)) == 2  # distinct ephemeral ports
            assert manager.addresses == [
                ("127.0.0.1", port) for port in manager.ports
            ]
            for index in range(2):
                assert manager.healthz(index)["status"] == "ok"
            processes = [replica.process for replica in manager.replicas]
        finally:
            manager.stop()
        assert manager.replicas == []
        assert all(process.poll() is not None for process in processes)

    def test_double_start_rejected(self, tmp_path):
        manager = FleetManager(
            make_config(tmp_path, replicas=1), command_factory=stub_command
        )
        manager.start(wait_healthy=True)
        try:
            with pytest.raises(RuntimeError, match="already started"):
                manager.start()
        finally:
            manager.stop()

    def test_context_manager_stops_the_fleet(self, tmp_path):
        with FleetManager(
            make_config(tmp_path, replicas=1), command_factory=stub_command
        ).start(wait_healthy=True) as manager:
            process = manager.replicas[0].process
        assert process.poll() is not None


class TestSupervision:
    def test_killed_replica_restarts_within_backoff(self, tmp_path):
        manager = FleetManager(
            make_config(tmp_path, replicas=1), command_factory=stub_command
        )
        manager.start(wait_healthy=True)
        try:
            first_pid = manager.replicas[0].process.pid
            manager.kill_replica(0)
            manager.wait_healthy(0, timeout=30.0)
            replica = manager.replicas[0]
            assert replica.restarts == 1
            assert manager.total_restarts == 1
            assert replica.process.pid != first_pid
            assert manager.healthz(0) is not None
        finally:
            manager.stop()

    def test_crash_loop_backs_off_exponentially(self, tmp_path):
        manager = FleetManager(
            # jitter off: this test pins the deterministic exponential ceiling
            make_config(
                tmp_path, replicas=1, backoff_base=0.05, backoff_cap=0.4,
                backoff_jitter=False,
            ),
            command_factory=crashing_command,
        )
        manager.start(wait_healthy=False)
        try:
            time.sleep(1.2)
            restarts = manager.total_restarts
            # with doubling 0.05 -> 0.1 -> 0.2 -> 0.4 the supervisor cannot
            # have respawned more than ~8 times in 1.2 s, and must have
            # respawned at least twice — it neither gives up nor spins.
            assert 2 <= restarts <= 12
            assert manager.replicas[0].consecutive_failures >= 2
        finally:
            manager.stop()

    def test_healthz_is_none_for_a_dead_replica(self, tmp_path):
        manager = FleetManager(
            # a backoff window long enough that the replica stays down
            make_config(tmp_path, replicas=1, backoff_base=5.0, backoff_cap=10.0),
            command_factory=stub_command,
        )
        manager.start(wait_healthy=True)
        try:
            manager.kill_replica(0)
            assert manager.healthz(0, timeout=0.5) is None
        finally:
            manager.stop()


class TestRestartJitter:
    def test_jittered_delays_are_deterministic_per_seed(self, tmp_path):
        first = FleetManager(
            make_config(tmp_path, backoff_seed=42), command_factory=stub_command
        )
        second = FleetManager(
            make_config(tmp_path, backoff_seed=42), command_factory=stub_command
        )
        delays = [first._restart_delay(n) for n in range(6)]
        assert delays == [second._restart_delay(n) for n in range(6)]
        for failures, delay in enumerate(delays):
            # full jitter: anywhere in [0, min(cap, base * 2^n)]
            assert 0.0 <= delay <= min(0.2, 0.05 * 2.0 ** failures)

    def test_different_seeds_decorrelate_restart_schedules(self, tmp_path):
        # the point of the jitter: two replicas felled by one cause must not
        # come back in lockstep
        first = FleetManager(
            make_config(tmp_path, backoff_seed=1), command_factory=stub_command
        )
        second = FleetManager(
            make_config(tmp_path, backoff_seed=2), command_factory=stub_command
        )
        assert [first._restart_delay(4) for _ in range(4)] != [
            second._restart_delay(4) for _ in range(4)
        ]

    def test_jitter_disabled_returns_the_exact_ceiling(self, tmp_path):
        manager = FleetManager(
            make_config(tmp_path, backoff_jitter=False), command_factory=stub_command
        )
        assert manager._restart_delay(0) == pytest.approx(0.05)
        assert manager._restart_delay(1) == pytest.approx(0.1)
        assert manager._restart_delay(10) == pytest.approx(0.2)  # capped


class TestPauseResume:
    def test_paused_replica_is_alive_wedged_and_left_alone(self, tmp_path):
        manager = FleetManager(
            make_config(tmp_path, replicas=1), command_factory=stub_command
        )
        manager.start(wait_healthy=True)
        try:
            pid = manager.replicas[0].process.pid
            restarts_before = manager.total_restarts
            manager.pause_replica(0)
            assert manager.replicas[0].alive  # SIGSTOP is not a crash
            assert manager.healthz(0, timeout=0.3) is None  # but it answers nothing
            time.sleep(0.2)  # several supervisor poll intervals
            # the supervisor must not restart a paused-but-alive process
            assert manager.total_restarts == restarts_before
            assert manager.replicas[0].process.pid == pid
            manager.resume_replica(0)
            manager.wait_healthy(0, timeout=30.0)
            assert manager.healthz(0)["status"] == "ok"
        finally:
            manager.resume_replica(0)  # idempotent: never leave a stopped child
            manager.stop()
