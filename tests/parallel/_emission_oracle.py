"""simmpi's live span emission before the event log, frozen.

Until the cluster kept one log of priced events, ``VirtualComm`` drew
its comm, idle and fault spans and its crash instants on the rank's
installed tracer (``obs.current()``) at the moment of each event.  These
are the four methods that did so, as they were, minus the
critical-path hooks (the recorder is not attached where they run).
``install(monkeypatch)`` puts them on ``VirtualComm``; a run then
prices exactly as the live code does and draws its spans live, while
the log stays empty, so the trace holds only what these bodies drew.

One line differs on purpose: a recv's idle span starts at
``t_busy_end``, after any expired timeout attempts, not at ``t_entry``.
The log's view fixed this; the live emission drew the idle span over
the timeout spans.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs import metrics
from repro.obs import tracer as obs
from repro.parallel.faults import RankFailure, RecvTimeout
from repro.parallel.simmpi import (
    CommVerificationError,
    VirtualComm,
    _code,
    _Collective,
    _InjectedCrash,
    payload_bytes,
)


def install(monkeypatch) -> None:
    for name in ("send", "recv", "_collective", "_do_crash"):
        monkeypatch.setattr(VirtualComm, name, globals()[name])


def _do_crash(self) -> None:
    cl = self.cluster
    self._st.crashed = True
    cl._crashed[self.rank] = self._st.wall
    self._st.trace.append(("crashed", self._st.wall))
    cl._engine.notify_all()
    metrics.inc("faults.crashes")
    tracer = obs.current()
    if tracer is not None:
        tracer.emit_instant(
            "crash", "fault", {"rank": self.rank, "t": self._st.wall}
        )
    raise _InjectedCrash(self.rank, self._st.wall)


def send(self, dest: int, obj: Any, tag: int = 0) -> None:
    self._check_endpoint(dest, tag, "destination")
    cl = self.cluster
    plan = cl._plan
    if plan is not None:
        self._maybe_crash()
        self._check_peer_alive(dest)
    tracer = obs.current()
    net = cl.network
    nbytes = payload_bytes(obj)
    t_start = self._st.wall
    seq = self._send_seq
    self._send_seq = seq + 1
    if plan is None:
        factor, nret, delay = 1.0, 0, 0.0
    else:
        factor = plan.link_factor(self.rank, dest)
        nret = (
            plan.retransmits(self.rank, dest, tag, seq)
            if plan.loss_applies(net)
            else 0
        )
        delay = plan.retransmit_delay(nret)
    wire = factor * (nbytes / net.bandwidth)
    ready = t_start + delay + factor * net.send_time(nbytes)
    self._st.wall += wire
    overhead = net.cpu_time_for_bytes(nbytes)
    self._st.wall += overhead
    self._st.cpu += overhead
    resend_cpu = 0.0
    if nret:
        resend_cpu = net.cpu_time_for_bytes(nret * nbytes)
        self._st.wall += delay + nret * wire + resend_cpu
        self._st.cpu += resend_cpu
        metrics.inc("faults.retransmits", nret)
        metrics.inc("faults.retransmitted_bytes", nret * nbytes)
        if tracer is not None:
            tracer.emit_span(
                f"retransmit -> {dest}",
                "fault",
                t_start,
                t_start + delay + nret * wire,
                {"bytes": nbytes, "tag": tag, "retransmits": nret},
            )
    self._st.sent_bytes += nbytes
    self._st.messages += 1
    self._st.trace.append(("send", dest, tag, nbytes))
    key = (self.rank, dest, tag)
    cl._mailbox.setdefault(key, deque()).append((obj, ready, nbytes, None))
    cl._engine.notify_rank(dest)
    if tracer is not None:
        tracer.emit_span(
            f"send -> {dest}",
            "comm",
            t_start,
            self._st.wall,
            {"bytes": nbytes, "tag": tag, "dest": dest},
        )
    metrics.observe("comm.message_bytes", nbytes)
    metrics.inc("comm.sends")
    metrics.inc("comm.bytes_sent", nbytes)


def recv(
    self,
    source: int,
    tag: int = 0,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 2.0,
) -> Any:
    self._check_endpoint(source, tag, "source")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"rank {self.rank}: timeout must be positive")
    if retries < 0:
        raise ValueError(f"rank {self.rank}: retries must be >= 0")
    cl = self.cluster
    plan = cl._plan
    if plan is not None:
        self._maybe_crash()
    key = (source, self.rank, tag)
    t_entry = self._st.wall
    attempts = 0
    cur_timeout = timeout
    while True:
        queue = cl._mailbox.get(key)
        if (queue and cl._engine._abort is None) or self._await_message(
            source, tag, timed=timeout is not None
        ):
            queue = cl._mailbox[key]
            obj, ready, nbytes, _send_row = queue[0]
            if cur_timeout is None or ready <= self._st.wall + cur_timeout:
                queue.popleft()
                if not queue:
                    del cl._mailbox[key]
                self._st.trace.append(("recv", source, tag, nbytes))
                break
        assert cur_timeout is not None
        net_t = cl.network
        t0 = self._st.wall
        self._st.wall += cur_timeout
        self._st.cpu += net_t.busy_wait_fraction * cur_timeout
        attempts += 1
        metrics.inc("faults.recv_timeouts")
        tracer = obs.current()
        if tracer is not None:
            tracer.emit_span(
                f"timeout: recv <- {source}",
                "fault",
                t0,
                self._st.wall,
                {"tag": tag, "attempt": attempts, "timeout": cur_timeout},
            )
        if attempts > retries:
            raise RecvTimeout(source, tag, self._st.wall - t_entry, attempts)
        cur_timeout = cur_timeout * backoff
    net = cl.network
    overhead = net.cpu_time_for_bytes(nbytes)
    t_busy_end = self._st.wall
    waited = max(0.0, ready - self._st.wall)
    self._st.wall = max(self._st.wall, ready) + overhead
    self._st.cpu += overhead + net.busy_wait_fraction * waited
    self._st.recv_bytes += nbytes
    tracer = obs.current()
    if tracer is not None:
        if waited > 0.0:
            tracer.emit_span(
                f"wait: recv <- {source}",
                "idle",
                t_busy_end,  # live emission drew it from t_entry
                t_busy_end + waited,
                {
                    "bytes": nbytes,
                    "source": source,
                    "busy_wait_fraction": net.busy_wait_fraction,
                },
            )
        tracer.emit_span(
            f"recv <- {source}",
            "comm",
            t_entry,
            self._st.wall,
            {"bytes": nbytes, "tag": tag, "source": source, "waited": waited},
        )
    metrics.inc("comm.recvs")
    metrics.inc("comm.bytes_recv", nbytes)
    return obj


def _collective(
    self, kind, contribution, combine, nbytes=0, price=None, entry_size=None
):
    cl = self.cluster
    if cl._plan is not None:
        self._maybe_crash()
    t_entry = self._st.wall
    if cl.verify:
        idx = len(self._st.coll_kinds)
        if idx < len(cl._coll_order):
            okind, orank = cl._coll_order[idx]
            if okind != kind:
                traces = cl.rank_traces([self.rank, orank])
                raise CommVerificationError(
                    [
                        f"collective ordering mismatch: rank "
                        f"{self.rank} enters '{kind}' as its "
                        f"collective #{idx} but rank {orank} ran "
                        f"'{okind}' there"
                        f"{_code('collective_order')}"
                    ],
                    traces,
                )
        else:
            cl._coll_order.append((kind, self.rank))
    self._st.coll_kinds.append(kind)
    seq = cl._coll_seq.get(kind, 0)
    key = (kind, seq)
    coll = cl._collectives.get(key)
    if coll is None or coll.arrived == coll.expected:
        if coll is not None and coll.arrived == coll.expected:
            seq += 1
            cl._coll_seq[kind] = seq
            key = (kind, seq)
        coll = cl._collectives.setdefault(key, _Collective(expected=self.size))
    self._st.trace.append(("collective", kind, seq))
    coll.data[self.rank] = contribution
    if entry_size is not None:
        coll.sizes[self.rank] = entry_size
    coll.arrived += 1
    coll.t_start = max(coll.t_start, self._st.wall)
    if coll.arrived == coll.expected:
        if price is not None:
            coll.t_done, _split = price(coll.t_start, coll.sizes, False)
        else:
            net = cl.network
            if callable(nbytes):
                nbytes = nbytes(coll.data)
            coll.t_done = coll.t_start + net.collective_time(kind, self.size, nbytes)
        coll.out = combine(coll.data)
        cl._coll_seq[kind] = seq + 1
        cl._engine.notify_all()
    else:

        def crash_probe():
            if cl._plan is None:
                return None
            for dead, when in sorted(cl._crashed.items()):
                if dead not in coll.data:
                    return RankFailure(dead, when)
            return None

        cl._blocking_wait(
            self.rank,
            f"collective '{kind}' #{seq}",
            lambda: coll.arrived >= coll.expected,
            failure=crash_probe,
        )
    coll.released += 1
    out, t_done = coll.out, coll.t_done
    t_sync = coll.t_start
    if coll.released == coll.expected:
        del cl._collectives[(key[0], key[1])]
    waited = max(0.0, t_done - self._st.wall)
    self._st.wall = t_done
    self._st.cpu += cl.network.busy_wait_fraction * waited
    tracer = obs.current()
    if tracer is not None:
        if t_sync > t_entry:
            tracer.emit_span(
                f"wait: {kind}",
                "idle",
                t_entry,
                t_sync,
                {"busy_wait_fraction": cl.network.busy_wait_fraction},
            )
        tracer.emit_span(
            kind,
            "comm",
            t_entry,
            t_done,
            {"seq": seq, "waited": waited},
        )
    metrics.inc("comm.collectives")
    metrics.inc(f"comm.collective.{kind}")
    return out
