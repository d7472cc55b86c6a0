"""Minimal persistent HTTP/1.1 over asyncio streams — zero dependencies.

Just enough protocol for the live runtime's exchanges: GETs of agent
cards, ``/healthz`` and ``/metrics``, and one POST per message envelope.
Every protocol message is one POST, so the cost of a message on the wire
is dominated by whatever the transport does per exchange.  Opening and
tearing down a TCP connection per message costs several times the
protocol work itself, so both sides keep connections alive:

* **Server.**  :class:`HttpServer` serves requests on a connection in a
  loop until the client sends ``Connection: close``, disconnects, or
  sends a request that fails to parse.  A malformed request is answered
  with ``400`` and ``Connection: close`` and the connection is closed —
  once the framing is in doubt nothing after it can be trusted.  The
  server tracks the connections it accepted; :meth:`HttpServer.close`
  closes them, so a torn-down endpoint (a crashed node) takes its kept
  alive connections with it.
* **Client.**  :func:`http_request` checks an idle connection out of a
  pool keyed by ``(host, port)``; there is one pool per running event
  loop, held in this module.  A connection goes back to the pool only
  after a complete response was read; on any exception, timeout or
  cancellation it is closed instead.  An idle connection found closed at
  checkout is dropped and the request opens a fresh one — nothing was
  sent on it, so that is not a retry.  A connection that fails *after*
  the request was written is never retried here: the exchange raises
  (``ConnectionResetError`` for a peer that closes mid-exchange or
  answers garbage), which the live transport counts as a lost message,
  exactly like a refused connect.  Resending could deliver an untagged
  message twice; retries of control-plane messages belong to the
  reliability layer above.  Connections are opened only when no idle
  one exists, so a pool never holds more connections to a peer than
  the peak number of concurrent exchanges with it.
  :func:`close_idle_connections` closes the running loop's pool.

The server accepts any HTTP/1.1 client (``curl`` against a node's agent
card works), and the client only needs to talk to this server, so both
sides implement the intersection honestly: request line + headers +
``Content-Length``-delimited bodies.  No chunked encoding, no
pipelining, no TLS.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "HttpServer",
    "http_request",
    "http_get_json",
    "http_post_json",
    "close_idle_connections",
]

#: ``handler(method, path, body) -> (status, reason, body)`` or
#: ``(status, reason, body, content_type)`` — the 3-tuple form defaults
#: to ``application/json``; routes serving another format (the
#: Prometheus ``/metrics`` page) return the 4-tuple.
Handler = Callable[[str, str, bytes], Tuple]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: What parsing a message head that is not well-formed HTTP raises: an
#: overlong head, a short start line, a non-numeric or out-of-range
#: ``Content-Length``.
_MALFORMED = (
    asyncio.LimitOverrunError,
    ValueError,
    IndexError,
    ConfigurationError,
)


class HttpServer:
    """One node's HTTP endpoint: serves its agent card and inbox."""

    def __init__(self, handler: Handler) -> None:
        self._handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        #: Accepted connections still being served, by serving task.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closed = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop listening, close every accepted connection and wait for
        their serving tasks and the server socket to finish."""
        server = self._server
        if server is None:
            return
        self._server = None
        self._closed = True
        server.close()
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.gather(
                *tuple(self._connections), return_exceptions=True
            )
        await server.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if self._closed:
            # Accepted just before close(): never served, nothing tracked.
            writer.close()
            return
        self._connections[task] = writer
        try:
            keep_alive = True
            while keep_alive:
                content_type = "application/json"
                try:
                    method, path, body, keep_alive = await _read_request(
                        reader
                    )
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away, between or inside requests
                except _MALFORMED:
                    # Unparseable head or framing: answer, then hang up.
                    status, reason, payload = 400, "Bad Request", b""
                    keep_alive = False
                else:
                    try:
                        result = self._handler(method, path, body)
                        if len(result) == 4:
                            status, reason, payload, content_type = result
                        else:
                            status, reason, payload = result
                    except Exception:
                        status, reason, payload = 400, "Bad Request", b""
                    if status == 400:
                        keep_alive = False
                connection = "keep-alive" if keep_alive else "close"
                writer.write(
                    (
                        f"HTTP/1.1 {status} {reason}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(payload)}\r\n"
                        f"Connection: {connection}\r\n"
                        "\r\n"
                    ).encode("ascii")
                    + payload
                )
                await writer.drain()
        except ConnectionError:
            pass  # client went away mid-response; nothing to salvage
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


async def _read_head(
    reader: asyncio.StreamReader,
) -> Tuple[str, Dict[str, str], int]:
    """Start line, lower-cased headers and the validated body length."""
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > _MAX_HEADER_BYTES:
        raise ConfigurationError("oversized message head")
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise ConfigurationError(f"bad Content-Length {length}")
    return lines[0], headers, length


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes, bool]:
    start, headers, length = await _read_head(reader)
    method, path, version = start.split(" ", 2)
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        version == "HTTP/1.1"
        and headers.get("connection", "").lower() != "close"
    )
    return method, path, body, keep_alive


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, bytes, bool]:
    """One response; a peer that hangs up or answers garbage raises
    ``ConnectionResetError`` (a network failure, not a protocol one)."""
    try:
        start, headers, length = await _read_head(reader)
        status = int(start.split(" ", 2)[1])
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionResetError("peer closed mid-exchange") from exc
    except _MALFORMED as exc:
        raise ConnectionResetError(f"malformed response: {exc}") from exc
    return status, body, headers.get("connection", "").lower() != "close"


#: Idle keep-alive connections per running loop, by ``(host, port)``.
_pools: Dict[
    asyncio.AbstractEventLoop, Dict[Tuple[str, int], List[_Connection]]
] = {}


def _loop_pool() -> Dict[Tuple[str, int], List[_Connection]]:
    loop = asyncio.get_running_loop()
    pool = _pools.get(loop)
    if pool is None:
        # Forget pools of loops closed without close_idle_connections();
        # the collector reclaims (and warns about) their sockets.
        for stale in [other for other in _pools if other.is_closed()]:
            del _pools[stale]
        pool = _pools[loop] = {}
    return pool


async def close_idle_connections() -> None:
    """Close every idle pooled connection of the running loop."""
    pool = _pools.pop(asyncio.get_running_loop(), None)
    if not pool:
        return
    writers = [writer for idle in pool.values() for _, writer in idle]
    for writer in writers:
        writer.close()
    await asyncio.gather(
        *(writer.wait_closed() for writer in writers), return_exceptions=True
    )


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    timeout: float = 5.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange over a pooled keep-alive connection.

    Raises on connect failure, timeout, or a peer that closes or answers
    garbage mid-exchange (``ConnectionResetError``); never resends.
    """
    key = (host, port)
    idle = _loop_pool().setdefault(key, [])
    conn: Optional[_Connection] = None
    while idle:
        reader, writer = idle.pop()
        if reader.at_eof() or writer.is_closing():
            writer.close()  # the peer hung up while it sat idle
            continue
        conn = reader, writer
        break
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("ascii") + body

    async def _exchange() -> Tuple[int, bytes, bool]:
        nonlocal conn
        if conn is None:
            conn = await asyncio.open_connection(host, port)
        reader, writer = conn
        writer.write(request)
        await writer.drain()
        return await _read_response(reader)

    try:
        status, payload, keep_alive = await asyncio.wait_for(
            _exchange(), timeout
        )
    except BaseException:
        if conn is not None:
            conn[1].close()
        raise
    if keep_alive:
        # Re-fetch: close_idle_connections() may have retired ``idle``.
        _loop_pool().setdefault(key, []).append(conn)
    else:
        conn[1].close()
    return status, payload


async def http_get_json(
    host: str,
    port: int,
    path: str,
    timeout: float = 5.0,
    retries: int = 5,
    backoff: float = 0.05,
) -> Dict[str, Any]:
    """GET a JSON document, retrying with exponential backoff.

    Discovery races server startup, so connect failures back off and
    retry (``backoff``, doubling per attempt) before giving up.
    """
    delay = backoff
    for attempt in range(retries + 1):
        try:
            status, body = await http_request(
                host, port, "GET", path, timeout=timeout
            )
            if status == 200:
                return json.loads(body.decode("utf-8"))
            raise ConfigurationError(f"GET {path} returned HTTP {status}")
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt >= retries:
                raise
            await asyncio.sleep(delay)
            delay *= 2


async def http_post_json(
    host: str,
    port: int,
    path: str,
    payload: Dict[str, Any],
    timeout: float = 5.0,
) -> int:
    """POST a JSON document once; returns the HTTP status."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    status, _ = await http_request(
        host, port, "POST", path, body=body, timeout=timeout
    )
    return status
