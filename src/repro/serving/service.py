"""An always-on serving control plane over the fleet scheduler.

:class:`ControlPlane` wraps a :class:`~repro.serving.fleet.FleetScheduler`
in an asyncio front-end: clients connect over TCP or a Unix socket and
speak the newline-delimited JSON protocol of
:mod:`repro.serving.protocol` — ``admit`` tenant sessions, ``withdraw``
pending ones, poll ``status``/``metrics``, checkpoint with
``snapshot``/``restore``, advance the simulation with ``drain`` and stop
the service with ``shutdown``.

Two clocks, two modes
---------------------
The scheduler's discrete-event clock is decoupled from the wall clock;
``mode=`` picks how they couple:

- ``"asap"`` — the simulation advances as fast as the event loop allows
  (the pacer drains whatever is queued each tick). With
  ``autostart=False`` it advances **only** on explicit ``drain``
  requests, which makes a scripted client fully deterministic — the
  service benchmark drives this mode and byte-compares the final
  summary against batch :meth:`FleetScheduler.serve`.
- ``"realtime"`` — the pacer advances the simulated clock in lockstep
  with scaled wall time (``cycles_per_second`` simulated cycles per
  wall second), the always-on dashboard mode.

Advancement is cooperative: the engine's :meth:`Simulator.step`
dispatches one calendar-queue bucket at a time and the control plane
yields to the event loop every few hundred buckets, so a long drain
never starves connected clients.

Determinism bridge
------------------
Admissions are validated immediately but *buffered*; every advance
first folds the backlog into the scheduler through
:meth:`FleetScheduler.submit` — the one way in, which the batch path
uses too. A script that admits everything before the first drain folds
one batch, so it reproduces ``serve()`` **byte for byte** (pinned by
``benchmarks/bench_service.py``). Later folds are further ``submit``
batches (an arrival cycle already past arrives now); they are
deterministic for a given request timeline but make no byte-equality
promise against batch.

Backpressure
------------
``max_pending`` bounds buffered, not-yet-arrived and queued admissions.
Over the bound, ``admit`` answers ``status="busy"`` with a
``retry_after_cycles`` hint (the nearest expected departure) and the
session is **not** enqueued — never silently dropped.

Warm restart
------------
``snapshot`` writes the scheduler checkpoint *plus* the declarative
:class:`~repro.serving.config.ServingConfig` (as its wire dict) and the
service's own knobs; :meth:`ControlPlane.restore` (or ``python -m
repro.serving.service --restore``) rebuilds the whole service in a
fresh process and continues the run on the checkpointed timeline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pickle
import sys

from repro.errors import ServingError
from repro.serving.config import ServingConfig
from repro.serving.fleet import FleetScheduler
from repro.serving.metrics import canonical_json, summary_wire
from repro.serving.protocol import (
    OPS,
    ProtocolError,
    busy_response,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    request,
    session_from_wire,
    session_to_wire,
)
from repro.serving.workload import TenantSession

#: Service modes: how the simulated clock couples to the wall clock.
MODES = ("asap", "realtime")

#: Buckets dispatched between yields to the event loop during a drain.
_YIELD_EVERY = 256

#: Pacer tick, seconds (autostart modes only).
_PACER_INTERVAL = 0.005

#: Backpressure retry hint when no departure is in sight.
_DEFAULT_RETRY_CYCLES = 1_000_000


class ControlPlane:
    """The always-on serving service: one fleet, many protocol clients."""

    def __init__(self, chips: int, cores: int = 36,
                 config: "ServingConfig | None" = None,
                 mode: str = "asap",
                 cycles_per_second: int = 1_000_000_000,
                 max_pending: int = 64,
                 autostart: bool = True,
                 fleet: "FleetScheduler | None" = None) -> None:
        if mode not in MODES:
            raise ServingError(
                f"unknown service mode {mode!r}; choose from {MODES}")
        if max_pending < 1:
            raise ServingError(
                f"max_pending must be >= 1, got {max_pending}")
        if cycles_per_second < 1:
            raise ServingError(
                f"cycles_per_second must be >= 1, got {cycles_per_second}")
        self.config = config if config is not None else ServingConfig()
        self.mode = mode
        self.cycles_per_second = cycles_per_second
        self.max_pending = max_pending
        self.autostart = autostart
        #: ``fleet=`` is the adoption hook :meth:`restore` uses; normal
        #: construction builds a homogeneous fleet from the config.
        self.fleet = (fleet if fleet is not None else
                      FleetScheduler.homogeneous(
                          chips, cores=cores, **self.config.fleet_kwargs()))
        #: Validated admissions not yet folded into the scheduler.
        self._backlog: list[TenantSession] = []
        self._lock = asyncio.Lock()
        self._shutdown = asyncio.Event()
        self._servers: list[asyncio.AbstractServer] = []
        self._pacer_task: "asyncio.Task | None" = None
        self.admitted_total = 0
        self.busy_responses = 0

    # -- introspection -----------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return self.fleet.chips[0].chip.config.frequency_hz

    def queue_depth(self) -> int:
        """Buffered, not-yet-arrived and scheduler-pending admissions
        (the backpressure gauge)."""
        return (len(self._backlog) + len(self.fleet._future)
                + len(self.fleet._pending))

    def _in_flight(self, session_id: int) -> bool:
        return (any(s.session_id == session_id for s in self._backlog)
                or any(e.session.session_id == session_id
                       for e in self.fleet._future)
                or self.fleet._pending.find(session_id) is not None
                or any(a.session.session_id == session_id
                       for a in self.fleet._active.values()))

    def _retry_hint(self) -> int:
        departs = [a.expected_depart - self.fleet.sim.now
                   for a in self.fleet._active.values()]
        positive = [d for d in departs if d > 0]
        return min(positive) if positive else _DEFAULT_RETRY_CYCLES

    def status_payload(self) -> dict:
        return {
            "mode": self.mode,
            "cycle": self.fleet.sim.now,
            "chips": self.fleet.chip_count,
            "backlog": len(self._backlog),
            "pending": len(self.fleet._pending),
            "active": self.fleet.active_count,
            "queue_depth": self.queue_depth(),
            "max_pending": self.max_pending,
            "admitted_total": self.admitted_total,
            "busy_responses": self.busy_responses,
            "free_cores": self.fleet.free_core_count(),
            "config": self.config.to_dict(),
        }

    def metrics_payload(self) -> dict:
        """The live metrics projection (summary + mapper + queue gauges)."""
        return {
            "cycle": self.fleet.sim.now,
            "backlog": len(self._backlog),
            "pending": len(self.fleet._pending),
            "active": self.fleet.active_count,
            "summary": summary_wire(
                self.fleet.metrics.summary(self.frequency_hz)),
            "mapper": summary_wire(self.fleet.mapper_stats()),
        }

    # -- admission ---------------------------------------------------------
    def _validate_admission(self, session: TenantSession) -> None:
        """The enqueue-time static caps, applied at the protocol edge."""
        if self._in_flight(session.session_id):
            raise ServingError(
                f"session {session.session_id} is already in flight")
        self.fleet._validate(session)

    def admit(self, session: TenantSession) -> dict:
        """Validate + buffer one admission; the protocol ``admit`` op.

        Returns the response dict: ``ok`` with the queue position, or
        ``busy`` (not enqueued) when the bounded queue is full.
        """
        self._validate_admission(session)
        if self.queue_depth() >= self.max_pending:
            self.busy_responses += 1
            return busy_response("admit",
                                 retry_after_cycles=self._retry_hint())
        self._backlog.append(session)
        self.admitted_total += 1
        return ok_response("admit", session_id=session.session_id,
                           queue_depth=self.queue_depth())

    def withdraw(self, session_id: int) -> dict:
        """Remove a buffered or scheduler-waiting session by id."""
        for session in self._backlog:
            if session.session_id == session_id:
                self._backlog.remove(session)
                return ok_response("withdraw", session_id=session_id,
                                   source="backlog")
        self.fleet.withdraw(session_id)  # raises ServingError when absent
        return ok_response("withdraw", session_id=session_id,
                           source="pending")

    # -- simulation advancement --------------------------------------------
    def _fold_backlog(self) -> None:
        """Hand buffered admissions to the scheduler as one ``submit``
        batch (the first fold, even an empty one, starts the fleet)."""
        backlog, self._backlog = self._backlog, []
        self.fleet.submit(backlog)

    async def _advance(self, until: "int | None" = None) -> int:
        """Cooperatively drive the simulation (caller holds the lock).

        Folds the backlog, then dispatches calendar-queue buckets one
        :meth:`Simulator.step` at a time, yielding to the event loop
        every ``_YIELD_EVERY`` buckets. ``until`` bounds simulated time
        with :meth:`Simulator.run`'s semantics (the clock reads
        ``until`` afterwards even if the queue drained early); ``None``
        drains everything currently scheduled.
        """
        self._fold_backlog()
        sim = self.fleet.sim
        steps = 0
        while True:
            upcoming = sim.peek()
            if upcoming is None or (until is not None and upcoming > until):
                break
            sim.step()
            steps += 1
            if steps % _YIELD_EVERY == 0:
                await asyncio.sleep(0)
        if until is not None and sim.now < until:
            sim.now = until
        return sim.now

    async def drain(self, until: "int | None" = None) -> dict:
        """The protocol ``drain`` op (also the embedded-driver entry).

        A full drain (``until=None``) additionally runs the engine's
        deadlock check and returns the final metrics ``summary`` — the
        payload the service benchmark byte-compares against batch
        ``serve()``.
        """
        async with self._lock:
            cycle = await self._advance(until)
            response = ok_response("drain", cycle=cycle,
                                   pending=len(self.fleet._pending),
                                   active=self.fleet.active_count)
            if until is None:
                self.fleet.sim.finish_processes()
                response["summary"] = summary_wire(
                    self.fleet.metrics.summary(self.frequency_hz))
            return response

    # -- checkpoint --------------------------------------------------------
    def snapshot_payload(self) -> dict:
        """The picklable warm-restart payload (scheduler + service)."""
        return {
            "state": self.fleet.snapshot(),
            "config": self.config.to_dict(),
            "service": {
                "mode": self.mode,
                "cycles_per_second": self.cycles_per_second,
                "max_pending": self.max_pending,
                "backlog": list(self._backlog),
                "admitted_total": self.admitted_total,
                "busy_responses": self.busy_responses,
            },
        }

    def snapshot_to(self, path: str) -> str:
        with open(path, "wb") as fh:
            pickle.dump(self.snapshot_payload(), fh)
        return path

    @classmethod
    def restore(cls, path: str, autostart: bool = True) -> "ControlPlane":
        """Rebuild the whole service from a :meth:`snapshot_to` file.

        The checkpointed :class:`ServingConfig` dict names the policies;
        :meth:`FleetScheduler.restore` rebuilds the scheduler on the
        checkpointed timeline; the service knobs (mode, bounds,
        unfolded backlog, counters) come back verbatim.
        """
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        config = ServingConfig.from_dict(payload["config"])
        fleet = FleetScheduler.restore(payload["state"],
                                       **config.fleet_kwargs())
        service = payload["service"]
        plane = cls(chips=fleet.chip_count, config=config,
                    mode=service["mode"],
                    cycles_per_second=service["cycles_per_second"],
                    max_pending=service["max_pending"],
                    autostart=autostart, fleet=fleet)
        plane._backlog = list(service["backlog"])
        plane.admitted_total = service["admitted_total"]
        plane.busy_responses = service["busy_responses"]
        return plane

    def _restore_in_place(self, path: str) -> None:
        """The protocol ``restore`` op: adopt a checkpoint, fresh only.

        Refused once this service has accepted work or advanced its
        clock — restore replaces the scheduler wholesale, which would
        silently discard a live run.
        """
        if (self._backlog or self.fleet._started
                or self.fleet.sim.now > 0 or self.admitted_total):
            raise ServingError(
                "restore refused: this service already has state; "
                "restore into a fresh process instead")
        restored = ControlPlane.restore(path, autostart=False)
        self.config = restored.config
        self.fleet = restored.fleet
        self.mode = restored.mode
        self.cycles_per_second = restored.cycles_per_second
        self.max_pending = restored.max_pending
        self._backlog = restored._backlog
        self.admitted_total = restored.admitted_total
        self.busy_responses = restored.busy_responses

    # -- protocol dispatch -------------------------------------------------
    async def handle_message(self, message: dict) -> dict:
        """One request dict in, one response dict out (never raises)."""
        op = message.get("op")
        if op not in OPS:
            return error_response(str(op), f"unknown op {op!r}; "
                                           f"choose from {OPS}")
        try:
            if op == "admit":
                session = session_from_wire(message.get("session"))
                async with self._lock:
                    return self.admit(session)
            if op == "withdraw":
                async with self._lock:
                    return self.withdraw(int(message["session_id"]))
            if op == "status":
                async with self._lock:
                    return ok_response("status", **self.status_payload())
            if op == "metrics":
                async with self._lock:
                    return ok_response("metrics", **self.metrics_payload())
            if op == "snapshot":
                path = message.get("path")
                if not path:
                    raise ProtocolError("snapshot needs a 'path' field")
                async with self._lock:
                    return ok_response("snapshot",
                                       path=self.snapshot_to(str(path)))
            if op == "restore":
                path = message.get("path")
                if not path:
                    raise ProtocolError("restore needs a 'path' field")
                async with self._lock:
                    self._restore_in_place(str(path))
                    return ok_response("restore",
                                       cycle=self.fleet.sim.now)
            if op == "drain":
                until = message.get("until")
                return await self.drain(None if until is None
                                        else int(until))
            # op == "shutdown"
            self._shutdown.set()
            return ok_response("shutdown")
        except (ProtocolError, ServingError, KeyError, TypeError,
                ValueError) as error:
            return error_response(op, str(error))

    # -- asyncio server ----------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as error:
                    response = error_response("?", str(error))
                else:
                    response = await self.handle_message(message)
                writer.write(encode_message(response))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pacer(self) -> None:
        """Background advancement for the autostart modes."""
        loop = asyncio.get_running_loop()
        anchor_wall = loop.time()
        anchor_cycle = self.fleet.sim.now
        while not self._shutdown.is_set():
            async with self._lock:
                touched = self._backlog or self.fleet._started
                if touched:
                    if self.mode == "realtime":
                        elapsed = loop.time() - anchor_wall
                        target = anchor_cycle + int(
                            elapsed * self.cycles_per_second)
                        if target > self.fleet.sim.now:
                            await self._advance(until=target)
                    else:
                        await self._advance(until=None)
            await asyncio.sleep(_PACER_INTERVAL)

    async def start(self, host: str = "127.0.0.1",
                    port: "int | None" = None,
                    unix_path: "str | None" = None) -> None:
        """Bind the protocol endpoints (TCP and/or Unix socket)."""
        if port is None and unix_path is None:
            raise ServingError("start() needs a TCP port, a Unix socket "
                               "path, or both")
        if unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_client, path=unix_path))
        if port is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_client, host, port))
        if self.autostart and self._pacer_task is None:
            self._pacer_task = asyncio.create_task(self._pacer())

    @property
    def tcp_port(self) -> "int | None":
        """The bound TCP port (for ``port=0`` ephemeral binds)."""
        for server in self._servers:
            for sock in server.sockets:
                if sock.family.name.startswith("AF_INET"):
                    return sock.getsockname()[1]
        return None

    async def serve_until_shutdown(self) -> None:
        """Block until a client sends ``shutdown`` (or :meth:`stop`)."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._pacer_task is not None:
            await self._pacer_task
            self._pacer_task = None
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []


class ServiceClient:
    """A minimal async protocol client (one request, one response)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: "int | None" = None,
                      unix_path: "str | None" = None) -> "ServiceClient":
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        elif port is not None:
            reader, writer = await asyncio.open_connection(host, port)
        else:
            raise ServingError("connect() needs a TCP port or a Unix "
                               "socket path")
        return cls(reader, writer)

    async def call(self, op: str, **fields) -> dict:
        self._writer.write(encode_message(request(op, **fields)))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServingError(f"service closed the connection mid-{op}")
        return decode_message(line)

    # Convenience wrappers, one per op.
    async def admit(self, session: TenantSession) -> dict:
        return await self.call("admit", session=session_to_wire(session))

    async def withdraw(self, session_id: int) -> dict:
        return await self.call("withdraw", session_id=session_id)

    async def status(self) -> dict:
        return await self.call("status")

    async def metrics(self) -> dict:
        return await self.call("metrics")

    async def snapshot(self, path: str) -> dict:
        return await self.call("snapshot", path=path)

    async def restore(self, path: str) -> dict:
        return await self.call("restore", path=path)

    async def drain(self, until: "int | None" = None) -> dict:
        if until is None:
            return await self.call("drain")
        return await self.call("drain", until=until)

    async def shutdown(self) -> dict:
        return await self.call("shutdown")

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- command line ----------------------------------------------------------

def _build_plane(args) -> ControlPlane:
    if args.restore:
        return ControlPlane.restore(args.restore,
                                    autostart=not args.no_autostart)
    config = ServingConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = ServingConfig.from_dict(json.load(fh))
    return ControlPlane(chips=args.chips, cores=args.cores, config=config,
                        mode=args.mode, max_pending=args.max_pending,
                        autostart=not args.no_autostart)


async def _amain(args) -> int:
    plane = _build_plane(args)
    if args.drain:
        # Headless: fold + drain to completion, no sockets. This is the
        # warm-restart leg — restore a checkpoint in a fresh process,
        # finish the run, print the canonical summary.
        response = await plane.drain()
        if args.print_summary:
            sys.stdout.write(canonical_json(response["summary"]) + "\n")
        return 0
    await plane.start(host=args.host, port=args.port,
                      unix_path=args.socket)
    bound = plane.tcp_port
    if bound is not None:
        sys.stderr.write(f"serving on {args.host}:{bound}\n")
    if args.socket:
        sys.stderr.write(f"serving on unix:{args.socket}\n")
    await plane.serve_until_shutdown()
    if args.print_summary:
        summary = summary_wire(plane.fleet.metrics.summary(
            plane.frequency_hz))
        sys.stdout.write(canonical_json(summary) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Always-on serving control plane "
                    "(newline-delimited JSON protocol)")
    parser.add_argument("--chips", type=int, default=4)
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--config", type=str, default=None,
                        help="ServingConfig wire dict as a JSON file")
    parser.add_argument("--mode", choices=MODES, default="asap")
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--socket", type=str, default=None,
                        help="Unix socket path")
    parser.add_argument("--restore", type=str, default=None,
                        help="warm-restart from a snapshot file")
    parser.add_argument("--drain", action="store_true",
                        help="no sockets: drain to completion and exit")
    parser.add_argument("--print-summary", action="store_true",
                        help="print the canonical final summary to stdout")
    parser.add_argument("--no-autostart", action="store_true",
                        help="advance only on explicit drain requests")
    args = parser.parse_args(argv)
    if not args.drain and args.port is None and args.socket is None:
        parser.error("pass --port/--socket to serve, or --drain to run "
                     "headless")
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    raise SystemExit(main())
