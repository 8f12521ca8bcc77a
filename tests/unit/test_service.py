"""The always-on control plane: protocol, bridge, backpressure, restart.

Four contracts:

- The wire protocol is canonical and fail-fast: one JSON object per
  line, byte-stable encoding, malformed input rejected at the edge
  with :class:`ProtocolError` (never a mid-simulation surprise).
- The determinism bridge: a scripted client that admits everything and
  then drains an ``asap`` service reproduces batch ``serve()`` **byte
  for byte** — over a real Unix socket, not just in process.
- Backpressure never silently drops: over ``max_pending`` the service
  answers ``busy`` with a retry hint, and the refused sessions can be
  re-admitted and completed later — every offered session finishes.
- Warm restart: snapshot mid-run, rebuild the service — in-process or
  in a genuinely fresh interpreter via the CLI — and the continued run
  byte-equals the run that never stopped.
"""

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ServingError
from repro.serving import (
    DEFAULT_SLO_MIX,
    ControlPlane,
    FleetScheduler,
    ProtocolError,
    ServiceClient,
    ServingConfig,
    canonical_json,
    decode_message,
    encode_message,
    generate_fleet_trace,
    summary_wire,
)
from repro.serving.protocol import request, session_from_wire, session_to_wire

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The bench's serving configuration: non-default policy + elastic so
#: the bridge is pinned on an interesting scheduler, not the defaults.
CONFIG = ServingConfig(policy="priority", elastic="shrink_then_preempt")


def fleet_trace(seed=11, sessions=30, chips=4):
    return generate_fleet_trace(seed, sessions, chips=chips, max_cores=16,
                                arrival_process="bursty",
                                slo_mix=DEFAULT_SLO_MIX)


def batch_summary(trace, config=CONFIG, chips=4):
    """The never-stopped oracle: batch submit + run, canonical bytes."""
    fleet = FleetScheduler.homogeneous(chips, cores=16,
                                       **config.fleet_kwargs())
    fleet.submit(list(trace))
    fleet.run()
    frequency = fleet.chips[0].chip.config.frequency_hz
    return canonical_json(summary_wire(fleet.metrics.summary(frequency)))


def make_plane(trace_len=64, **kwargs):
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("autostart", False)
    kwargs.setdefault("max_pending", trace_len + 1)
    return ControlPlane(chips=4, cores=16, **kwargs)


class TestProtocol:
    def test_encode_decode_roundtrip_is_canonical(self):
        message = {"op": "status", "zeta": 1, "alpha": [1, 2]}
        line = encode_message(message)
        # Canonical spelling: sorted keys, minimal separators, one \n.
        assert line == b'{"alpha":[1,2],"op":"status","zeta":1}\n'
        assert decode_message(line) == message

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="bad wire JSON"):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_message(b"[1, 2, 3]\n")

    def test_decode_rejects_oversized_line(self):
        blob = b'{"op": "' + b"x" * (1 << 20) + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(blob)

    def test_request_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="choose from"):
            request("reboot")

    def test_session_wire_roundtrip(self):
        session = fleet_trace(sessions=3)[0]
        assert session_from_wire(session_to_wire(session)) == session

    def test_session_wire_rejects_unknown_fields(self):
        wire = session_to_wire(fleet_trace(sessions=3)[0])
        wire["colour"] = "blue"
        with pytest.raises(ProtocolError, match="unknown session fields"):
            session_from_wire(wire)

    def test_session_wire_rejects_missing_fields(self):
        wire = session_to_wire(fleet_trace(sessions=3)[0])
        del wire["model"]
        with pytest.raises(ProtocolError, match="missing required"):
            session_from_wire(wire)


class TestDeterminismBridge:
    def test_scripted_client_byte_equals_batch(self, tmp_path):
        # The tentpole acceptance: admit the whole trace over a real
        # Unix socket, drain, and the wire summary is byte-identical
        # to batch serve() on the same trace.
        trace = fleet_trace()

        async def scripted():
            plane = make_plane(trace_len=len(trace))
            socket_path = str(tmp_path / "svc.sock")
            await plane.start(unix_path=socket_path)
            client = await ServiceClient.connect(unix_path=socket_path)
            for session in trace:
                response = await client.admit(session)
                assert response["status"] == "ok"
            drained = await client.drain()
            await client.shutdown()
            await client.close()
            await plane.stop()
            return canonical_json(drained["summary"])

        assert asyncio.run(scripted()) == batch_summary(trace)

    def test_tcp_endpoint_serves_status(self):
        async def over_tcp():
            plane = make_plane()
            await plane.start(port=0)  # ephemeral
            assert plane.tcp_port is not None
            client = await ServiceClient.connect(port=plane.tcp_port)
            status = await client.status()
            await client.close()
            await plane.stop()
            return status

        status = asyncio.run(over_tcp())
        assert status["status"] == "ok"
        assert status["chips"] == 4
        # The status payload carries the config as its wire dict.
        assert ServingConfig.from_dict(status["config"]) == CONFIG

    def test_drain_until_parks_the_clock(self):
        trace = fleet_trace(sessions=10)

        async def bounded():
            plane = make_plane()
            for session in trace:
                plane.admit(session)
            horizon = 10**13  # far beyond the last event
            partial = await plane.drain(until=horizon)
            assert partial["cycle"] == horizon  # run(until=) semantics
            assert "summary" not in partial  # bounded drain: no summary
            final = await plane.drain()
            return final

        final = asyncio.run(bounded())
        assert final["summary"]["sessions_completed"] == len(trace)

    def test_realtime_pacer_advances_with_the_wall(self, tmp_path):
        # autostart realtime: the pacer couples the simulated clock to
        # scaled wall time with no explicit drain request.
        trace = fleet_trace(sessions=6)

        async def realtime():
            plane = make_plane(mode="realtime", autostart=True,
                               cycles_per_second=2_000_000_000)
            sock = str(tmp_path / "rt.sock")
            await plane.start(unix_path=sock)
            client = await ServiceClient.connect(unix_path=sock)
            for session in trace:
                assert (await client.admit(session))["status"] == "ok"
            cycle = 0
            for _ in range(400):  # pacer ticks every 5 ms
                await asyncio.sleep(0.02)
                cycle = (await client.metrics())["cycle"]
                if cycle > 0:
                    break
            shut = await client.shutdown()
            await client.close()
            await plane.serve_until_shutdown()  # already signalled
            return cycle, shut

        cycle, shut = asyncio.run(realtime())
        assert cycle > 0
        assert shut["status"] == "ok"

    def test_live_metrics_move_during_a_run(self):
        trace = fleet_trace(sessions=10)

        async def probe():
            plane = make_plane()
            for session in trace:
                plane.admit(session)
            before = plane.metrics_payload()
            await plane.drain(until=trace[-1].arrival_cycle)
            during = plane.metrics_payload()
            await plane.drain()
            after = plane.metrics_payload()
            return before, during, after

        before, during, after = asyncio.run(probe())
        assert before["summary"]["sessions_completed"] == 0
        assert during["cycle"] > before["cycle"]
        assert after["summary"]["sessions_completed"] == len(trace)
        assert after["pending"] == 0 and after["active"] == 0


class TestBackpressure:
    def test_busy_over_the_bound_then_no_silent_drops(self):
        trace = fleet_trace(sessions=8)

        async def offered_all():
            plane = make_plane(max_pending=4)
            first, refused = [], []
            for session in trace:
                response = plane.admit(session)
                if response["status"] == "ok":
                    first.append(session)
                else:
                    assert response["status"] == "busy"
                    assert response["retry_after_cycles"] >= 1
                    refused.append(session)
            assert len(first) == 4 and len(refused) == 4
            assert plane.busy_responses == 4
            mid = await plane.drain()
            assert mid["summary"]["sessions_completed"] == 4
            # The refused sessions were never enqueued — re-admitting
            # them after capacity freed up must succeed, and the next
            # drain completes every session ever offered.
            for session in refused:
                assert plane.admit(session)["status"] == "ok"
            final = await plane.drain()
            return final["summary"]["sessions_completed"]

        assert asyncio.run(offered_all()) == len(trace)

    def test_admit_validation_fails_fast(self):
        trace = fleet_trace(sessions=4)
        plane = make_plane()
        plane.admit(trace[0])
        with pytest.raises(ServingError, match="already in flight"):
            plane.admit(trace[0])
        with pytest.raises(ServingError, match="unknown model"):
            plane.admit(dataclasses.replace(trace[1], model="gpt-oops"))
        with pytest.raises(ServingError, match="cores"):
            plane.admit(dataclasses.replace(trace[2], rows=40, cols=40))

    def test_protocol_edge_turns_validation_into_error_responses(self):
        trace = fleet_trace(sessions=2)
        plane = make_plane()

        async def duplicate_admit():
            wire = session_to_wire(trace[0])
            first = await plane.handle_message(
                {"op": "admit", "session": wire})
            second = await plane.handle_message(
                {"op": "admit", "session": wire})
            bogus = await plane.handle_message({"op": "reboot"})
            return first, second, bogus

        first, second, bogus = asyncio.run(duplicate_admit())
        assert first["status"] == "ok"
        assert second["status"] == "error"
        assert "already in flight" in second["message"]
        assert bogus["status"] == "error" and "unknown op" in bogus["message"]

    def test_withdraw_from_backlog_and_unknown_id(self):
        trace = fleet_trace(sessions=2)
        plane = make_plane()
        plane.admit(trace[0])
        response = plane.withdraw(trace[0].session_id)
        assert response["source"] == "backlog"
        assert plane.queue_depth() == 0
        with pytest.raises(ServingError):
            plane.withdraw(999_999)

    def test_constructor_validation(self):
        with pytest.raises(ServingError, match="unknown service mode"):
            make_plane(mode="warp")
        with pytest.raises(ServingError, match="max_pending"):
            ControlPlane(chips=2, max_pending=0)
        with pytest.raises(ServingError, match="cycles_per_second"):
            ControlPlane(chips=2, cycles_per_second=0)


class TestWarmRestart:
    def pause_point(self, trace):
        return trace[len(trace) // 2].arrival_cycle

    def test_same_process_restart_byte_equals_oracle(self, tmp_path):
        trace = fleet_trace()
        snap = str(tmp_path / "svc.snapshot.pkl")

        async def split_run():
            plane = make_plane(trace_len=len(trace))
            for session in trace:
                plane.admit(session)
            await plane.drain(until=self.pause_point(trace))
            plane.snapshot_to(snap)
            restored = ControlPlane.restore(snap, autostart=False)
            done = await restored.drain()
            return canonical_json(done["summary"])

        assert asyncio.run(split_run()) == batch_summary(trace)

    def test_fresh_process_restart_byte_equals_oracle(self, tmp_path):
        # The satellite acceptance: admit N -> snapshot -> *kill the
        # process* -> restore in a genuinely fresh interpreter via the
        # CLI -> drain; stdout carries the canonical summary and it
        # byte-equals the never-stopped oracle.
        trace = fleet_trace()
        snap = str(tmp_path / "svc.snapshot.pkl")

        async def first_life():
            plane = make_plane(trace_len=len(trace))
            for session in trace:
                plane.admit(session)
            await plane.drain(until=self.pause_point(trace))
            plane.snapshot_to(snap)

        asyncio.run(first_life())
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro.serving.service",
             "--restore", snap, "--drain", "--print-summary"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == batch_summary(trace)

    def test_snapshot_restores_service_knobs_and_backlog(self, tmp_path):
        trace = fleet_trace(sessions=6)
        snap = str(tmp_path / "svc.snapshot.pkl")

        async def checkpoint_with_backlog():
            plane = make_plane(max_pending=5, mode="realtime",
                               cycles_per_second=123_456)
            for session in trace[:3]:
                plane.admit(session)
            plane.snapshot_to(snap)  # backlog never folded

        asyncio.run(checkpoint_with_backlog())
        restored = ControlPlane.restore(snap, autostart=False)
        assert restored.mode == "realtime"
        assert restored.cycles_per_second == 123_456
        assert restored.max_pending == 5
        assert restored.admitted_total == 3
        assert [s.session_id for s in restored._backlog] == [
            s.session_id for s in trace[:3]]

    def test_restore_is_not_a_protocol_op(self, tmp_path):
        # Restoring unpickles a file, so it happens only at start-up
        # (ControlPlane.restore / --restore), never on a client's word.
        trace = fleet_trace(sessions=6)
        snap = str(tmp_path / "svc.snapshot.pkl")

        async def ask_to_restore():
            source = make_plane()
            for session in trace:
                source.admit(session)
            await source.drain(until=self.pause_point(trace))
            source.snapshot_to(snap)
            fresh = make_plane()
            answer = await fresh.handle_message(
                {"op": "restore", "path": snap})
            return fresh, answer

        fresh, answer = asyncio.run(ask_to_restore())
        assert answer["status"] == "error"
        assert answer["message"].startswith("unknown op 'restore'")
        assert fresh.fleet.sim.now == 0 and fresh.admitted_total == 0

    def test_cli_config_file_and_headless_drain(self, tmp_path):
        # The service CLI end to end without sockets: a wire-dict
        # config file + --drain prints the batch-equal summary.
        config_path = tmp_path / "serving.json"
        config_path.write_text(json.dumps(CONFIG.to_dict()))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro.serving.service",
             "--chips", "4", "--cores", "16",
             "--config", str(config_path), "--drain", "--print-summary"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr
        empty = json.loads(result.stdout)
        assert empty["sessions_completed"] == 0


class TestLateFutureAdmission:
    """A session admitted after the first fold, with its arrival cycle
    still ahead, waits inside the fleet where every service operation
    sees it: backpressure counts it, a duplicate is refused, it can be
    withdrawn, and a snapshot carries it across a restart."""

    @staticmethod
    async def admit_late(plane, trace):
        """Admit and fold the head of ``trace``, then admit and fold
        its last session with an arrival cycle ahead of the clock."""
        for session in trace[:-1]:
            plane.admit(session)
        await plane.drain(until=trace[-2].arrival_cycle)
        now = plane.fleet.sim.now
        late = dataclasses.replace(
            trace[-1], arrival_cycle=max(trace[-1].arrival_cycle,
                                         now + 1_000_000))
        plane.admit(late)
        depth = plane.queue_depth()
        await plane.drain(until=now)  # folds the late session
        return late, depth

    def test_service_ops_see_the_not_yet_arrived_session(self):
        trace = fleet_trace(sessions=4)

        async def probe():
            plane = make_plane()
            late, depth = await self.admit_late(plane, trace)
            assert plane.queue_depth() == depth
            with pytest.raises(ServingError, match="already in flight"):
                plane.admit(late)
            withdrawn = plane.withdraw(late.session_id)
            assert withdrawn["status"] == "ok"
            assert plane.queue_depth() == depth - 1
            done = await plane.drain()
            return done["summary"]["sessions_completed"]

        assert asyncio.run(probe()) == len(trace) - 1

    def test_restart_before_its_arrival_byte_equals_oracle(self, tmp_path):
        trace = fleet_trace(sessions=4)
        snap = str(tmp_path / "svc.snapshot.pkl")

        async def run(restart):
            plane = make_plane()
            await self.admit_late(plane, trace)
            if restart:
                plane.snapshot_to(snap)
                plane = ControlPlane.restore(snap, autostart=False)
            done = await plane.drain()
            return canonical_json(done["summary"])

        stopped, oracle = asyncio.run(run(True)), asyncio.run(run(False))
        assert json.loads(oracle)["sessions_completed"] == len(trace)
        assert stopped == oracle
