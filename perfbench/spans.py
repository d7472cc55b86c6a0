"""Spans around the calls into each ``repro`` layer, recorded from outside.

The traced run of the benchmark wraps the public entry points of every
layer (listed in :func:`instrument`) for the duration of one run and puts
the originals back afterwards; nothing under ``src/`` is edited.  A span
is one call: its name, start, end, parent span and, when the call carries
a protocol message, the job id :func:`repro.obs.trace.message_job_id`
gives.  Spans stay in memory (packed arrays) and are written once, by
:meth:`SpanRecorder.dump`, when the run ends.

Self time is a span's duration minus the time its child spans cover.  The
wrappers' own cost lands in the parent's self time, which is why the
traced run is never the one the end-to-end figures come from.
"""

from __future__ import annotations

import array
import json
import selectors
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from speed import SpeedProbe

perf_counter = time.perf_counter


class SpanRecorder:
    """In-memory spans plus the exact counters taken at the same wrappers.

    :meth:`enter`/:meth:`leave` bracket a synchronous call; the span open
    at ``enter`` time becomes its parent.  :meth:`record` stores a
    finished coroutine span with no parent.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array.array("H")
        self.parents = array.array("i")
        self.jobs = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack: List[int] = []
        #: Exact work counts keyed by metric name.
        self.counters: Dict[str, int] = defaultdict(int)
        #: Per-call samples (milliseconds) keyed by metric name.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Server handler seconds of each POST body not yet paired with
        #: the client-side call that sent it.
        self.serve_times: Dict[bytes, List[float]] = {}
        #: Seconds the event loop spent blocked in its selector.
        self.idle_s = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, job: int = -1) -> int:
        stack = self._stack
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.jobs.append(job)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def leave(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def record(self, nid: int, start: float, end: float, job: int = -1) -> None:
        self.name_ids.append(nid)
        self.parents.append(-1)
        self.jobs.append(job)
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.starts)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}`` over all spans."""
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = array.array("d", bytes(8 * len(starts)))
        for start, end, parent in zip(starts, ends, parents):
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, start, end, child in zip(self.name_ids, starts, ends, covered):
            duration = end - start
            calls[nid] += 1
            total[nid] += duration
            own[nid] += duration - child
        return {
            name: (calls[i], total[i], own[i])
            for i, name in enumerate(self.names)
        }

    def dump(self, path, header: Dict[str, object]) -> None:
        """Write every span: one JSON header line, then the packed arrays
        (name id, parent index, job id, start, end) in that order."""
        meta = dict(header)
        meta.update(
            spans=len(self),
            names=self.names,
            arrays=[
                ("name_id", self.name_ids.typecode),
                ("parent", self.parents.typecode),
                ("job", self.jobs.typecode),
                ("start", self.starts.typecode),
                ("end", self.ends.typecode),
            ],
        )
        with open(path, "wb") as handle:
            handle.write(json.dumps(meta).encode("utf-8") + b"\n")
            for column in (
                self.name_ids, self.parents, self.jobs, self.starts, self.ends
            ):
                column.tofile(handle)


def load_spans(path) -> Tuple[Dict[str, object], Dict[str, array.array]]:
    """Read a file written by :meth:`SpanRecorder.dump`."""
    with open(path, "rb") as handle:
        meta = json.loads(handle.readline().decode("utf-8"))
        columns = {}
        for name, typecode in meta["arrays"]:
            column = array.array(typecode)
            column.fromfile(handle, meta["spans"])
            columns[name] = column
    return meta, columns


class LiveProbe:
    """What the untraced live run measures, one clock pair per event.

    * every ``http_post_json`` call: its wall time, and whether it failed
      (raised — connection refused, timeout — or answered anything but
      HTTP 200);
    * the end of set-up: the moment ``run_live`` creates its
      ``SubmissionProcess``, after endpoint boot, agent-card discovery and
      agent start, with the ``(ref_s, cpu_s)`` the
      :class:`~speed.SpeedProbe` reads at that moment;
    * how late each ``AriaAgent.submit`` ran against the
      ``SubmissionSchedule`` time it was due at (the open-loop
      generator's lag).

    With a :class:`SpanRecorder` each POST is also recorded as a
    ``runtime.http.post`` span and paired with the server handler call
    that consumed its body, giving the time the POST spent outside the
    handler (``runtime.http.wait_ms``).
    """

    def __init__(self, speed: SpeedProbe) -> None:
        self.speed = speed
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.setup_end: Optional[float] = None
        self.setup_end_ref: Tuple[float, float] = (0.0, 0.0)
        self.submit_lag_ms: List[float] = []

    @contextmanager
    def attach(self, recorder: Optional[SpanRecorder] = None) -> Iterator["LiveProbe"]:
        import repro.runtime.transport as live
        from repro.core.protocol import AriaAgent
        from repro.workload.submission import SubmissionProcess

        post = live.http_post_json
        init = SubmissionProcess.__dict__["__init__"]
        submit = AriaAgent.__dict__["submit"]
        due: List[float] = []

        def __init__(process, sim, agents, generator, schedule, rng):
            self.setup_end = perf_counter()
            self.setup_end_ref = (self.speed.checkpoint(), self.speed.cpu_s)
            due.extend(schedule.times())
            init(process, sim, agents, generator, schedule, rng)

        def timed_submit(agent, job):
            # Submissions fire in schedule order, one per due time.
            clock = agent.sim
            slot = len(self.submit_lag_ms)
            self.submit_lag_ms.append(
                (clock.now - due[slot]) / clock.time_scale * 1e3
            )
            return submit(agent, job)

        live.http_post_json = self._timed(post, recorder)
        SubmissionProcess.__init__ = __init__
        AriaAgent.submit = timed_submit
        try:
            yield self
        finally:
            AriaAgent.submit = submit
            SubmissionProcess.__init__ = init
            live.http_post_json = post

    def _timed(self, post, recorder: Optional[SpanRecorder]):
        latencies = self.latencies_ms
        if recorder is not None:
            nid = recorder.name_id("runtime.http.post")
            serve_times = recorder.serve_times
            waits = recorder.samples["runtime.http.wait_ms"]

        async def http_post_json(host, port, path, payload, timeout=5.0):
            self.attempted += 1
            start = perf_counter()
            try:
                status = await post(host, port, path, payload, timeout=timeout)
            except BaseException:
                self.failed += 1
                raise
            end = perf_counter()
            if status != 200:
                self.failed += 1
            latency = (end - start) * 1e3
            latencies.append(latency)
            if recorder is not None:
                recorder.record(nid, start, end, _job_of_envelope(payload))
                body = _wire_body(payload)
                served = serve_times.get(body)
                if served:
                    waits.append(latency - served.pop(0) * 1e3)
                    if not served:
                        del serve_times[body]
            return status

        return http_post_json


def _wire_body(payload) -> bytes:
    # The exact bytes ``http_post_json`` puts on the wire: the key that
    # pairs a POST with the server-side handler call that consumed it.
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _job_of_envelope(envelope) -> int:
    fields = envelope["message"]["fields"]
    job = fields.get("job_id")
    if job is None and isinstance(fields.get("job"), dict):
        job = fields["job"]["__job__"]["job_id"]
    return -1 if job is None else job


def _layer_of(callback) -> str:
    """``core`` for a callback defined in ``repro.core.*``, and so on."""
    function = getattr(callback, "__func__", callback)
    module = getattr(function, "__module__", None) or ""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's entry points for the duration of the block.

    Layers (the ``repro`` packages) and what is wrapped:

    * ``experiments`` — ``build_grid``;
    * ``overlay`` — ``build_blatant_overlay`` and ``chordal_ring`` (the
      set-up), ``choose_targets`` where ``repro.core.protocol`` imports
      it (every flood hop) and ``SeenCache.seen_before``;
    * ``sim`` — ``Simulator.run_until`` and every timer callback
      scheduled through ``call_at``/``call_after`` (``every`` schedules
      through ``call_at``), named ``<layer>.timer`` after the package
      that defined the callback; the same for ``WallClock`` on the live
      path;
    * ``net`` — ``SimTransport``/``LiveTransport`` ``send`` and
      ``send_tagged``;
    * ``core`` — the agent handler, wrapped at ``Transport.register`` and
      named ``core.handle.<message class>``;
    * ``scheduling`` — ``GridNode.cost_for`` and every
      ``queue_cost_of``;
    * ``runtime`` — ``encode_envelope``/``decode_envelope``, the
      ``HttpServer`` handler, ``LiveTransport.discover`` and the event
      loop's selector (idle time); ``http_post_json`` is timed by
      :class:`LiveProbe`;
    * ``workload`` — ``AriaAgent.submit`` (how late it ran is timed by
      :class:`LiveProbe`).
    """
    import repro.experiments as experiments
    import repro.core.protocol as protocol
    import repro.overlay.blatant as blatant
    import repro.overlay.topologies as topologies
    import repro.runtime.transport as live
    from repro.core.messages import Accept
    from repro.grid.node import GridNode
    from repro.net.transport import SimTransport, Transport
    from repro.obs.trace import message_job_id
    from repro.overlay.flooding import SeenCache
    from repro.runtime.clock import WallClock, _WallRecurrence
    from repro.runtime.http import HttpServer
    from repro.scheduling.base import LocalScheduler
    from repro.sim.kernel import Simulator, _Recurrence

    def _job_of(message) -> int:
        job = message_job_id(message)
        return -1 if job is None else job

    rec = recorder
    enter, leave = rec.enter, rec.leave
    counters = rec.counters
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        patches.append((owner, attr, original))

    def span(name: str, job_of: Optional[Callable] = None):
        """Wrapper factory timing every call as one ``name`` span;
        ``job_of(args)`` picks the job id out of the call's arguments."""
        nid = rec.name_id(name)

        def make(fn):
            if job_of is None:
                def wrapper(*args, **kwargs):
                    index = enter(nid)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        leave(index)
            else:
                def wrapper(*args, **kwargs):
                    index = enter(nid, job_of(args))
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        leave(index)
            return wrapper

        return make

    # -- experiments / overlay set-up ----------------------------------
    patch(experiments, "build_grid", span("experiments.build_grid"))
    patch(blatant, "build_blatant_overlay", span("overlay.build"))
    patch(topologies, "chordal_ring", span("overlay.build"))

    # -- sim: dispatch loop and timers ---------------------------------
    patch(Simulator, "run_until", span("sim.run_until"))
    timer_ids: Dict[object, int] = {}

    def timed_callback(callback):
        inner = callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, _Recurrence):
            inner = owner._callback
        elif isinstance(owner, _WallRecurrence):
            inner = owner.callback
        key = getattr(inner, "__func__", inner)
        nid = timer_ids.get(key)
        if nid is None:
            nid = timer_ids[key] = rec.name_id(f"{_layer_of(inner)}.timer")

        def fire(*args):
            index = enter(nid)
            try:
                callback(*args)
            finally:
                leave(index)

        return fire

    for clock in (Simulator, WallClock):
        for method in ("call_at", "call_after"):
            def make(fn):
                def schedule(self, when, callback, *args, priority=0):
                    return fn(self, when, timed_callback(callback), *args, priority=priority)
                return schedule
            patch(clock, method, make)

    # -- net: the send path ---------------------------------------------
    handler_kind: List[Optional[type]] = [None]
    send_nid = rec.name_id("net.send")

    def make_send(fn):
        def send(self, src, dst, message, *args, **kwargs):
            cls = message.__class__
            if cls is Accept:
                counters[f"accepts_in.{getattr(handler_kind[0], '__name__', None)}"] += 1
            index = enter(send_nid, _job_of(message))
            try:
                return fn(self, src, dst, message, *args, **kwargs)
            finally:
                leave(index)
        return send

    for transport in (SimTransport, live.LiveTransport):
        patch(transport, "send", make_send)
        patch(transport, "send_tagged", make_send)

    # -- overlay: flood hops and duplicate suppression --------------------
    flood_nid = rec.name_id("overlay.flood")

    def make_flood(fn):
        def choose_targets(*args, **kwargs):
            index = enter(flood_nid)
            try:
                targets = fn(*args, **kwargs)
            finally:
                leave(index)
            counters["overlay.flood.targets"] += len(targets)
            return targets
        return choose_targets

    patch(protocol, "choose_targets", make_flood)
    seen_nid = rec.name_id("overlay.seen")

    def make_seen(fn):
        def seen_before(self, key):
            index = enter(seen_nid)
            try:
                duplicate = fn(self, key)
            finally:
                leave(index)
            if duplicate:
                counters["overlay.seen.duplicates"] += 1
            return duplicate
        return seen_before

    patch(SeenCache, "seen_before", make_seen)

    # -- core: protocol handlers, split by message class -------------------
    handle_ids: Dict[type, int] = {}

    def make_register(fn):
        def register(self, node_id, handler):
            def on_message(src, message):
                cls = message.__class__
                nid = handle_ids.get(cls)
                if nid is None:
                    nid = handle_ids[cls] = rec.name_id(f"core.handle.{cls.__name__}")
                outer = handler_kind[0]
                handler_kind[0] = cls
                index = enter(nid, _job_of(message))
                try:
                    handler(src, message)
                finally:
                    leave(index)
                    handler_kind[0] = outer
            return fn(self, node_id, on_message)
        return register

    patch(Transport, "register", make_register)

    # -- scheduling: cost evaluation ------------------------------------
    patch(GridNode, "cost_for", span("scheduling.cost_for", lambda a: a[1].job_id))
    pending = [LocalScheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "queue_cost_of" in cls.__dict__:
            patch(cls, "queue_cost_of", span("scheduling.queue_cost_of", lambda a: a[1]))

    # -- runtime: codec, HTTP, discovery, event-loop idle time -------------
    patch(live, "encode_envelope", span("runtime.encode", lambda a: _job_of(a[3])))
    patch(live, "decode_envelope", span("runtime.decode"))
    serve_times = rec.serve_times
    serve_nid = rec.name_id("runtime.http.serve")
    serve_get_nid = rec.name_id("runtime.http.serve_get")

    def timed_handler(handler):
        def handle(method, path, body):
            index = enter(serve_nid if method == "POST" else serve_get_nid)
            try:
                return handler(method, path, body)
            finally:
                leave(index)
                if method == "POST":
                    serve_times.setdefault(body, []).append(
                        rec.ends[index] - rec.starts[index]
                    )
        return handle

    class TimedHttpServer(HttpServer):
        def __init__(self, handler) -> None:
            super().__init__(timed_handler(handler))

    patch(live, "HttpServer", lambda _original: TimedHttpServer)
    discover_nid = rec.name_id("runtime.discover")

    def make_discover(fn):
        async def discover(self, *args, **kwargs):
            start = perf_counter()
            try:
                return await fn(self, *args, **kwargs)
            finally:
                rec.record(discover_nid, start, perf_counter())
        return discover

    patch(live.LiveTransport, "discover", make_discover)

    def make_select(fn):
        def select(self, timeout=None):
            start = perf_counter()
            try:
                return fn(self, timeout)
            finally:
                rec.idle_s += perf_counter() - start
        return select

    patch(selectors.DefaultSelector, "select", make_select)

    # -- workload: submissions ----------------------------------------------
    patch(protocol.AriaAgent, "submit", span("workload.submit", lambda a: a[1].job_id))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
