"""Persistent HTTP/1.1 on the live wire.

Every protocol message is one POST over a pooled keep-alive connection.
These tests pin what pooling must not change: a peer that hangs up mid
exchange is a lost message (never an escaped exception, never a silent
resend), a malformed request still gets its 400 and costs only its own
connection, responses never cross between concurrent requests, a crashed
node takes its pooled connections with it, and a fleet tears down
without leaking a socket or a task.
"""

import asyncio
import gc
import json
import logging
import sys
import warnings

import pytest

import repro.runtime.transport as live
from repro.net import Message
from repro.obs import MetricsRegistry, TelemetryCollector
from repro.runtime import LiveRunConfig, LiveTransport, WallClock, run_live
from repro.runtime import http
from repro.runtime.codec import MESSAGE_TYPES
from repro.runtime.http import (
    HttpServer,
    close_idle_connections,
    http_get_json,
    http_post_json,
    http_request,
)
from repro.runtime.transport import (
    AGENT_CARD_PATH,
    MESSAGE_PATH,
    PROTOCOL_VERSION,
)


class Ping(Message):
    SIZE_BYTES = 64
    __slots__ = ("tag",)

    def __init__(self, tag: str = "") -> None:
        self.tag = tag


@pytest.fixture(autouse=True)
def _ping_on_the_wire():
    """Let the live codec carry the test message type."""
    MESSAGE_TYPES["Ping"] = Ping
    yield
    MESSAGE_TYPES.pop("Ping", None)


@pytest.fixture
def accepts(monkeypatch):
    """Count the TCP connections each live endpoint accepts, by port."""
    counts = {}

    class CountingServer(HttpServer):
        async def _serve_connection(self, reader, writer):
            counts[self.port] = counts.get(self.port, 0) + 1
            await super()._serve_connection(reader, writer)

    monkeypatch.setattr(live, "HttpServer", CountingServer)
    return counts


@pytest.fixture
def statuses(monkeypatch):
    """Record the HTTP status of every message POST the transport makes."""
    seen = []
    post = live.http_post_json

    async def recording_post(host, port, path, payload, timeout=5.0):
        status = await post(host, port, path, payload, timeout=timeout)
        seen.append(status)
        return status

    monkeypatch.setattr(live, "http_post_json", recording_post)
    return seen


def run_fleet(body, *node_ids):
    """Run ``body(transport, inboxes)`` against an in-process fleet whose
    nodes record ``(src, tag)`` for every Ping they receive."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0, time_scale=1.0)
        transport = LiveTransport(clock, loop=loop, send_timeout=2.0)
        inboxes = {node: [] for node in node_ids}
        try:
            for node in node_ids:
                transport.register(
                    node, lambda src, msg, box=inboxes[node]: box.append(
                        (src, msg.tag)
                    )
                )
                await transport.add_endpoint(node)
            await transport.discover()
            await body(transport, inboxes)
        finally:
            clock.stop()
            await transport.drain()
            await transport.close()

    asyncio.run(main())


async def raw_exchange(host, port, request):
    """Send raw bytes on a fresh socket; return ``(response, closed)``
    where ``closed`` says the server hung up after answering."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        body = await reader.readexactly(length)
        closed = await asyncio.wait_for(reader.read(), 2.0) == b""
        return head.decode("latin-1") + body.decode("utf-8"), closed
    finally:
        writer.close()
        await writer.wait_closed()


# ----------------------------------------------------------------------
# A peer that reads the request, then hangs up
# ----------------------------------------------------------------------
class HangUpPeer:
    """Serves a valid agent card for ``node_id`` on GET (unless
    ``hang_up_gets``) and hangs up on everything else after reading the
    request head — a node crashing mid exchange."""

    def __init__(self, node_id=9, hang_up_gets=False):
        self.node_id = node_id
        self.hang_up_gets = hang_up_gets
        self.server = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.host, self.port = self.server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            if head.startswith(b"GET ") and not self.hang_up_gets:
                card = json.dumps(
                    {"node_id": self.node_id, "protocol": PROTOCOL_VERSION}
                ).encode("utf-8")
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                    b"Connection: close\r\n\r\n" % len(card) + card
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


def test_hang_up_raises_connection_reset_from_both_helpers():
    async def main():
        async with HangUpPeer(hang_up_gets=True) as peer:
            with pytest.raises(ConnectionResetError):
                await http_post_json(peer.host, peer.port, MESSAGE_PATH, {})
            with pytest.raises(ConnectionResetError):
                await http_get_json(
                    peer.host, peer.port, AGENT_CARD_PATH, retries=0
                )
        await close_idle_connections()

    asyncio.run(main())


def test_malformed_response_head_raises_connection_reset():
    async def garbage(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 banana\r\nContent-Length: x\r\n\r\n")
        await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(garbage, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            with pytest.raises(ConnectionResetError, match="malformed"):
                await http_request(host, port, "GET", "/")
        finally:
            server.close()
            await server.wait_closed()
            await close_idle_connections()

    asyncio.run(main())


def test_hang_up_on_a_post_counts_the_message_lost():
    async def body(transport, inboxes):
        async with HangUpPeer(node_id=9) as peer:
            await transport.discover([(peer.host, peer.port)])
            transport.send(1, 9, Ping("doomed"))
            await transport.drain()
            assert transport.network_counters()["lost"] == 1
            assert transport._tasks == set()

    run_fleet(body, 1)


def test_hang_up_on_discovery_lands_in_the_failure_report():
    async def body(transport, inboxes):
        async with HangUpPeer(hang_up_gets=True) as peer:
            good = transport._servers[1]
            directory = await transport.discover(
                [(good.host, good.port), (peer.host, peer.port)]
            )
            assert set(directory) == {1}
            ((host, port, reason),) = transport.last_discovery_failures
            assert (host, port) == (peer.host, peer.port)
            assert reason.startswith("ConnectionResetError")

    run_fleet(body, 1)


def test_hang_up_on_a_scrape_is_a_failed_sample():
    async def main():
        async with HangUpPeer(hang_up_gets=True) as peer:
            collector = TelemetryCollector(
                MetricsRegistry(),
                targets=lambda: {4: (peer.host, peer.port)},
                now=lambda: 0.0,
            )
            (sample,) = await collector.scrape()
            assert not sample.up
            assert sample.error.startswith("ConnectionResetError")
            assert collector.scrape_failures == 1
        await close_idle_connections()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Bad requests on a kept-alive connection
# ----------------------------------------------------------------------
def _post(body, length=None):
    length = len(body) if length is None else length
    return (
        f"POST {MESSAGE_PATH} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii") + body


@pytest.mark.parametrize(
    "request_bytes, rejected",
    [
        (_post(b"not json at all"), 1),
        (_post(b'{"kind":"send"}'), 1),
        (_post(b"", length="twelve"), 0),
    ],
    ids=["non-json", "truncated-envelope", "non-numeric-length"],
)
def test_bad_request_gets_400_and_a_closed_socket(
    request_bytes, rejected, accepts, statuses
):
    async def body(transport, inboxes):
        target = transport._servers[2]
        response, closed = await raw_exchange(
            target.host, target.port, request_bytes
        )
        assert response.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in response
        assert closed
        assert transport.rejected == rejected
        # The transport's own next POST is unaffected: a fresh connection.
        transport.send(1, 2, Ping("after"))
        await transport.drain()
        assert inboxes[2] == [(1, "after")]
        assert statuses == [200]
        assert accepts[target.port] == 2

    run_fleet(body, 1, 2)


def test_pooled_connection_closed_by_a_400_is_not_reused(accepts, statuses):
    async def body(transport, inboxes):
        target = transport._servers[2]
        status, _ = await http_request(
            target.host, target.port, "POST", MESSAGE_PATH, body=b"{"
        )
        assert status == 400
        transport.send(1, 2, Ping("after"))
        await transport.drain()
        assert inboxes[2] == [(1, "after")]
        assert statuses == [200]
        assert accepts[target.port] == 2

    run_fleet(body, 1, 2)


def test_client_sending_connection_close_gets_a_closed_connection():
    async def body(transport, inboxes):
        target = transport._servers[2]
        response, closed = await raw_exchange(
            target.host,
            target.port,
            f"GET {AGENT_CARD_PATH} HTTP/1.1\r\nHost: x\r\n"
            "Connection: close\r\n\r\n".encode("ascii"),
        )
        assert response.startswith("HTTP/1.1 200 ")
        assert "Connection: close" in response
        assert closed

    run_fleet(body, 2)


# ----------------------------------------------------------------------
# Connection reuse
# ----------------------------------------------------------------------
def test_sequential_sends_reuse_one_connection(accepts, statuses):
    async def body(transport, inboxes):
        for index in range(50):
            transport.send(1, 2, Ping(str(index)))
            await transport.drain()
        assert inboxes[2] == [(1, str(index)) for index in range(50)]
        assert statuses == [200] * 50
        # Discovery's agent-card GET opened the one connection each node
        # accepted; all 50 POSTs rode the one to node 2.
        assert accepts[transport._servers[2].port] == 1
        assert accepts[transport._servers[1].port] == 1

    run_fleet(body, 1, 2)


def test_concurrent_sends_never_cross_responses(accepts, statuses):
    decoded = []
    decode = live.decode_envelope

    def counting_decode(data):
        envelope = decode(data)
        decoded.append(envelope["message"].tag)
        return envelope

    async def body(transport, inboxes):
        live.decode_envelope = counting_decode
        try:
            for round_ in range(3):
                for index in range(40):
                    transport.send(1, 2, Ping(f"{round_}.{index}"))
                await transport.drain()
        finally:
            live.decode_envelope = decode
        tags = [f"{r}.{i}" for r in range(3) for i in range(40)]
        assert sorted(decoded) == sorted(tags)
        assert sorted(tag for _, tag in inboxes[2]) == sorted(tags)
        assert statuses == [200] * len(tags)
        # Later rounds check connections out of the pool instead of
        # opening new ones: never more than one round's concurrency.
        assert 1 <= accepts[transport._servers[2].port] <= 40

    run_fleet(body, 1, 2)


# ----------------------------------------------------------------------
# Crash semantics with a warm pool
# ----------------------------------------------------------------------
def test_crash_kills_pooled_connections_and_restart_delivers(statuses):
    async def body(transport, inboxes):
        transport.send(1, 2, Ping("warm"))
        await transport.drain()
        assert inboxes[2] == [(1, "warm")]

        await transport.remove_endpoint(2)  # crash: directory entry stays
        transport.send(1, 2, Ping("into the void"))
        await transport.drain()
        assert transport.network_counters()["lost"] == 1
        assert inboxes[2] == [(1, "warm")]

        host, port = await transport.add_endpoint(2)  # a new port
        await transport.discover([(host, port)])
        transport.send(1, 2, Ping("reborn"))
        await transport.drain()
        assert inboxes[2] == [(1, "warm"), (1, "reborn")]
        assert transport.network_counters()["lost"] == 1
        assert statuses == [200, 200]

    run_fleet(body, 1, 2)


def test_fleet_tears_down_without_leaking_sockets_or_tasks(caplog):
    unraisable = []
    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                result = run_live(
                    LiveRunConfig(
                        nodes=4,
                        jobs=3,
                        seed=5,
                        time_scale=600.0,
                        duration=6_000.0,
                        ert_mean=600.0,
                    )
                )
                gc.collect()
    finally:
        sys.unraisablehook = hook
    assert result.extra_violations == []
    assert [u.exc_value for u in unraisable] == []
    # No idle pooled connection outlives its (now closed) loop.
    assert not any(
        idle for pool in http._pools.values() for idle in pool.values()
    )
    assert "Task was destroyed" not in caplog.text
