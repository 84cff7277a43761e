"""Traced daemon launcher.

    python perfbench/launcher.py SPANS.npz daemon [proteusctl daemon flags]

Wraps the public functions of the daemon's layers from the outside,
then runs the ordinary ``proteusctl`` entry point, so the daemon is
built and served exactly as without tracing.  Spans stay in memory and
are written to SPANS.npz once the daemon has stopped.
"""

from __future__ import annotations

import sys
import threading
import time

from spans import Recorder


def _wrap(rec: Recorder, owner, attr: str, name: str, aux=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``aux(args, result)`` gives the number stored with the span.
    """
    original = getattr(owner, attr)
    name_id = rec.name_id(name)

    def wrapper(*args, **kwargs):
        token = rec.open(name_id)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            rec.close(token, aux(args, result) if aux is not None else 0.0)

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)


def _written(args, accepted) -> float:
    # bytes accepted; -1 marks a write of real data that found the ring full
    if accepted == 0 and args[1]:
        return -1.0
    return float(accepted or 0)


def install(rec: Recorder):
    """Wrap channel, ham, core, endpoint, modem, trace and daemon.

    Returns a function that reads the end-of-run gauges.
    """
    from proteus import channel, control, core, daemon, endpoint, ham, modem, trace

    _wrap(rec, channel.ChannelHandle, "write", "channel.write", _written)
    _wrap(rec, channel.ChannelHandle, "read", "channel.read",
          lambda args, data: float(len(data or b"")))
    _wrap(rec, ham.SimulatedFpga, "process", "ham.process",
          lambda args, out: float(len(args[1])))
    _wrap(rec, ham.SimulatedFpga, "configure", "ham.configure")
    _wrap(rec, core.Platform, "pump", "core.pump",
          lambda args, p: float(p.bytes_in + p.bytes_out) if p else 0.0)
    _wrap(rec, core.Platform, "deploy", "core.deploy")
    _wrap(rec, core.Platform, "undeploy", "core.undeploy")
    _wrap(rec, core.Platform, "status", "core.status")
    # Platform.__init__ looks the default factory up when the daemon builds it
    _wrap(rec, core, "_default_endpoint_factory", "endpoint.open")
    _wrap(rec, endpoint.PtyEndpoint, "pump_once", "endpoint.pump_once",
          lambda args, moved: float(sum(moved)) if moved else 0.0)
    _wrap(rec, endpoint.PtyEndpoint, "notify", "endpoint.notify")
    _wrap(rec, endpoint.PtyEndpoint, "withdraw", "endpoint.withdraw")
    _wrap(rec, modem.Modem, "carrier_pump", "modem.carrier_pump",
          lambda args, result: float(len(result.to_app)) if result else 0.0)
    _wrap(rec, trace.TraceLog, "emit", "trace.emit")

    feed = modem.Modem.feed
    feed_ids = {mode: rec.name_id(f"modem.feed.{mode.value}") for mode in modem.Mode}

    def traced_feed(self, data):
        token = rec.open(feed_ids[self.mode])
        try:
            return feed(self, data)
        finally:
            rec.close(token, float(len(data)))

    modem.Modem.feed = traced_feed

    logs = []
    trace_init = trace.TraceLog.__init__

    def traced_trace_init(self, *args, **kwargs):
        trace_init(self, *args, **kwargs)
        logs.append(self)

    trace.TraceLog.__init__ = traced_trace_init

    # kick -> next pump_all start: how long endpoint activity waits for the loop
    kick_lock = threading.Lock()
    pending = []
    kick = daemon.PlatformLoop.kick

    def traced_kick(self):
        with kick_lock:
            if not pending:
                pending.append(time.perf_counter())
        kick(self)

    daemon.PlatformLoop.kick = traced_kick
    pump_all = core.Platform.pump_all
    pump_all_id = rec.name_id("core.pump_all")

    def traced_pump_all(self):
        token = rec.open(pump_all_id)
        with kick_lock:
            if pending:
                rec.sample("daemon.kick_to_pump", time.perf_counter() - pending.pop())
        progressed = False
        try:
            progressed = pump_all(self)
            return progressed
        finally:
            rec.close(token, 1.0 if progressed else 0.0)

    core.Platform.pump_all = traced_pump_all

    # control op of the request being served, per control thread
    current = threading.local()
    dispatch = daemon.ControlServer._dispatch

    def traced_dispatch(self, op, args):
        current.op = op
        try:
            return dispatch(self, op, args)
        finally:
            current.op = None

    daemon.ControlServer._dispatch = traced_dispatch
    call = daemon.PlatformLoop.call
    call_ids = {op: rec.name_id(f"daemon.call.{op}") for op in control.REQUEST_SCHEMA}
    other_id = rec.name_id("daemon.call.other")

    def traced_call(self, fn, timeout: float = 30.0):
        submitted = time.perf_counter()
        name_id = call_ids.get(getattr(current, "op", None), other_id)

        def timed():
            token = rec.open(name_id)
            try:
                return fn()
            finally:
                rec.close(token, token[0].start[token[1]] - submitted)

        return call(self, timed, timeout)

    daemon.PlatformLoop.call = traced_call
    return lambda: {"trace.retained": sum(log.next_seq for log in logs)}


def main(argv: list[str]) -> int:
    out, daemon_argv = argv[0], argv[1:]
    rec = Recorder()
    gauges = install(rec)
    from proteus import cli

    try:
        return cli.main(daemon_argv)
    finally:
        rec.gauges.update(gauges())
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
