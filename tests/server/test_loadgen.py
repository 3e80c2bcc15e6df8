"""Load-generator result math and workload builders (no server needed)."""

import pytest

from repro.server.loadgen import LoadResult, demo_payloads
from repro.server.protocol import job_from_dict


class TestLoadResult:
    def make(self):
        return LoadResult(
            latencies_s=[0.001, 0.002, 0.003, 0.004, 0.100],
            statuses=[200, 200, 200, 429, 500],
            cached=[True, True, False, False, False],
            wall_time=0.5,
        )

    def test_counts(self):
        result = self.make()
        assert result.sent == 5
        assert result.ok == 3
        assert result.shed == 1
        assert result.errors == 1
        assert result.hits == 2

    def test_rates(self):
        result = self.make()
        assert result.hit_rate == pytest.approx(2 / 3)
        assert result.shed_rate == pytest.approx(1 / 5)
        assert result.throughput == pytest.approx(10.0)

    def test_percentiles_nearest_rank(self):
        result = self.make()
        assert result.p50_s == pytest.approx(0.003)
        assert result.p99_s == pytest.approx(0.100)
        assert result.latency_quantile(0.0) == pytest.approx(0.001)

    def test_empty_result(self):
        empty = LoadResult([], [], [], 0.0)
        assert empty.sent == 0
        assert empty.hit_rate == 0.0
        assert empty.p50_s == 0.0

    def test_as_dict_and_summary(self):
        result = self.make()
        data = result.as_dict()
        assert data["sent"] == 5 and data["p99_ms"] == pytest.approx(100.0)
        assert "hit rate" in result.summary()


class TestDemoPayloads:
    def test_distinct_fingerprints(self):
        payloads = demo_payloads(unique=5)
        fingerprints = {job_from_dict(p).fingerprint for p in payloads}
        assert len(fingerprints) == 5

    def test_deterministic_across_calls(self):
        first = demo_payloads(unique=3)
        second = demo_payloads(unique=3)
        assert [job_from_dict(a).fingerprint for a in first] == [
            job_from_dict(b).fingerprint for b in second
        ]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            demo_payloads(unique=0)


class TestPackageSurface:
    def test_loadgen_names_resolve_lazily(self):
        # repro.server defers loadgen imports (PEP 562) so `python -m
        # repro.server.loadgen` does not double-execute the module
        import repro.server as server

        assert server.demo_payloads is demo_payloads
        assert callable(server.run_closed_loop)
        with pytest.raises(AttributeError):
            _ = server.no_such_name

    def test_top_level_exports(self):
        import repro

        for name in ("SolveGateway", "GatewayConfig", "BackgroundGateway"):
            assert name in repro.__all__ and hasattr(repro, name)


class TestCommandLine:
    def test_fleet_without_smoke_is_refused(self, monkeypatch, capsys):
        from repro.server import loadgen

        def must_not_spawn(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a refused --fleet run spawned a fleet")

        monkeypatch.setattr(loadgen, "run_fleet_smoke", must_not_spawn)
        with pytest.raises(SystemExit) as refused:
            loadgen.main(["--fleet", "2"])
        assert refused.value.code == 2
        assert "--fleet needs --smoke" in capsys.readouterr().err
