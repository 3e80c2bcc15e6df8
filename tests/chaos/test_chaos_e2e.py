"""The chaos acceptance scenario, end to end.

A real two-replica fleet under closed-loop client load; the seeded plan
SIGKILLs one replica mid-run and SIGSTOPs the other while it holds
requests.  The run must lose zero client requests, violate zero
invariants, and every shed must carry ``Retry-After``.
"""

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosPlan,
    CorruptCacheEntry,
    FillCacheDir,
    KillReplica,
    PauseReplica,
    run_chaos,
)
from repro.server.loadgen import demo_payloads


class TestChaosAcceptance:
    def test_kill_then_pause_loses_no_requests(self):
        # staggered so the fleet is never fully dark: the kill victim is back
        # (supervisor restart, jittered backoff well under a second) before
        # the surviving replica is frozen
        plan = ChaosPlan([
            ChaosEvent(1.0, KillReplica(0)),
            ChaosEvent(2.5, PauseReplica(1), duration=1.5),
        ])
        report = run_chaos(
            plan,
            replicas=2,
            horizon=5.5,
            clients=3,
            payloads=demo_payloads(unique=2, time_limit=20.0),
        )
        assert report.ok, report.format_report()
        assert report.sent > 0
        counts = report.status_counts()
        assert counts.get(599, 0) == 0  # zero failed client requests
        assert counts.get(200, 0) > 0  # the fleet kept answering
        assert report.restarts >= 1  # the killed replica was resurrected
        assert [name for _when, name in report.applied] == [
            "KillReplica(0)", "PauseReplica(1)",
        ]
        assert report.fault_windows  # the pause window was recorded
        # every shed that occurred carried Retry-After: implied by report.ok,
        # restated here because it is an acceptance bullet of its own
        for outcome in report.outcomes:
            if outcome.status in (429, 503, 504):
                assert "retry-after" in outcome.headers

    def test_cache_torture_never_serves_corruption(self):
        plan = ChaosPlan([
            ChaosEvent(1.0, CorruptCacheEntry()),
            ChaosEvent(2.0, FillCacheDir(), duration=1.0),
        ])
        report = run_chaos(
            plan,
            replicas=1,
            horizon=4.0,
            clients=2,
            payloads=demo_payloads(unique=2, time_limit=20.0),
        )
        assert report.ok, report.format_report()
        assert report.status_counts().get(200, 0) > 0
        # the report round-trips to JSON-clean primitives for the CLI
        document = report.as_dict()
        assert document["verdict"] == "PASS"
        assert document["requests"] == report.sent


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
