#!/usr/bin/env python
"""Capture→replay walkthrough: record live traffic, export it, re-drive it.

Starts a traced solve gateway on a background thread, throws a closed-loop
workload at it, then walks the full production-trace pipeline in process:

1. **capture** — pull the recorded trace documents off ``/debug/traces``
   (the same wire path ``python -m repro.obs export`` uses) and distil them
   into one capture document: the observed request sequence with its
   inter-arrival cadence, plus a ``ModeSchedule`` encoding of the same.
2. **replay against the live gateway** — ``run_replay`` re-sends the
   captured sequence in order; against the now-warm cache every request
   answers as a hit, and the executed fingerprints match the capture
   exactly (order fidelity is the contract).
3. **replay into the simulator** — ``TraceReplayTraffic.from_capture``
   turns the same capture into timed mode requests, so the discrete-event
   simulator can be driven by production cadence instead of a synthetic
   Poisson model.

Run with::

    PYTHONPATH=src python examples/trace_capture_replay.py
"""

import os
import tempfile

from repro.obs.capture import build_capture, fetch_trace_docs, load_capture, write_capture
from repro.server import BackgroundGateway, GatewayConfig
from repro.server.loadgen import demo_payloads, run_closed_loop, run_replay
from repro.sim import TraceReplayTraffic

CLIENTS = 3
REQUESTS_PER_CLIENT = 3


def main() -> None:
    payloads = demo_payloads(unique=3, time_limit=30.0)
    config = GatewayConfig(port=0)

    with BackgroundGateway(config) as background:
        host, port = background.host, background.port
        print(f"gateway listening on http://{host}:{port}")

        # 1. production traffic: 3 clients x 3 requests over 3 unique jobs —
        #    a mix of cold misses, coalesced duplicates, and warm hits
        load = run_closed_loop(
            host, port, payloads,
            clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT,
        )
        print("recorded workload:", load.summary())

        # 2. capture: trace documents -> one replayable capture file
        docs = fetch_trace_docs(host, port)
        capture = build_capture(docs, source=f"{host}:{port}")
        path = os.path.join(tempfile.mkdtemp(prefix="obs-capture-"), "capture.json")
        write_capture(capture, path)
        capture = load_capture(path)  # round-trip through disk, as the CLI does

        requests = capture["requests"]
        fingerprints = [request["fingerprint"] for request in requests]
        span = requests[-1]["offset"] if requests else 0.0
        print(
            f"capture: {len(requests)} requests "
            f"({len(set(fingerprints))} unique fingerprints) "
            f"spanning {span:.3f}s -> {path}"
        )
        assert len(requests) == CLIENTS * REQUESTS_PER_CLIENT, (
            "every traced request must appear in the capture exactly once"
        )

        # 3. replay against the live gateway: same sequence, same order —
        #    and against the warm cache every answer is a hit
        outcome = run_replay(host, port, capture, payloads)
        print("replay vs gateway:", outcome.result.summary())
        assert not outcome.skipped, "every fingerprint must resolve to a payload"
        assert outcome.executed == fingerprints, "replay must preserve order"
        assert outcome.result.hit_rate == 1.0, "warm replay must be all hits"

    print("gateway drained cleanly\n")

    # 4. the same capture drives the simulator: each captured request becomes
    #    a timed mode activation at its observed offset
    traffic = TraceReplayTraffic.from_capture(capture)
    horizon = float(span) + 1.0
    sim_requests = traffic.generate(horizon)
    print(f"simulator replay: {len(sim_requests)} timed mode requests")
    for request in sim_requests[:3]:
        print(f"  t={request.time:8.3f}s  {request.region}  mode={request.mode}")
    assert len(sim_requests) == len(requests)
    assert [r.region for r in sim_requests] == [r["job"] for r in requests]

    print("\ncapture round-trips through both replay paths")


if __name__ == "__main__":
    main()
