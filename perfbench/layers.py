"""End-to-end metrics of a run, and per-layer metrics of a traced run.

Each layer metric and the end-to-end metric it should move:

=========================================================  ===========================  ==========
layer metrics                                              should move                  on
=========================================================  ===========================  ==========
channel.write.{calls,bytes,busy_s,full},                   bulk_mb_s                    bulk (not
channel.read.{calls,bytes,busy_s,useful_ratio}                                          interactive)
ham.process.{calls,bytes,busy_s}; ham.configure.busy_s     bulk_mb_s; deploy_p50_ms     bulk; churn
core.pump.{calls,busy_s,self_s,useful_ratio},              bulk_mb_s, echo_p99_ms       bulk
core.pump_all.{calls,busy_s,useful_ratio}
core.{deploy,undeploy,status}.p50_ms/p99_ms (per call)     deploy_*, undeploy_*,        churn
                                                           status_*
endpoint.pump_once.{calls,busy_s,useful_ratio},            echo_*, at_ok_*              interactive
endpoint.notify.calls
endpoint.open.busy_s, endpoint.withdraw.busy_s             deploy_*, undeploy_*         churn
modem.feed.command.busy_s                                  at_ok_p50_ms                 interactive
modem.feed.data.busy_s, modem.carrier_pump.{calls,         bulk_mb_s                    bulk
useful_ratio}
trace.emit.{calls,busy_s}, trace.events_per_mib,           daemon_rss_mb, bulk_mb_s     bulk,
trace.retained                                                                          interactive
daemon.call.{wait_s,busy_s}, daemon.kick_to_pump_p50/p99,  deploy_*/status_*; echo_*    churn;
daemon.threads                                                                          interactive
control.<op>.busy_s, control.<op>.outside_call_s           status_p50_ms                churn
=========================================================  ===========================  ==========

``busy_s`` sums span durations; ``self_s`` subtracts the time child
spans cover; ``useful_ratio`` is the share of calls that moved data;
``channel.write.full`` counts writes of data that found the ring full.
``daemon.call.wait_s`` is the time calls queued before the loop thread
started them.  ``trace.retained`` counts the events the run's daemons
held when they stopped.  ``control.<op>.busy_s`` is the round trip the generator
timed, and ``outside_call_s`` is that minus the op's time on the loop
thread.  ``generator.lateness_*`` checks the untraced run's open loop,
and ``overhead.<metric>`` is the traced minus the untraced value.
"""

from __future__ import annotations

import statistics

from stats import Quantity, summarize

MS = 1e3
MIB = 1024 * 1024


def _pct(samples, p: float, scale: float = MS) -> float:
    return summarize(samples, p, scale).value if samples else 0.0


def end_to_end(data) -> dict:
    """name -> (value, unit, sample count, percentile valid)."""
    out = {"setup_s": (statistics.median(data.setup_s), "s", len(data.setup_s), True)}
    series = [("at_ok", data.outcome.latency["at"]),
              ("echo", data.outcome.latency["echo"])]
    series += [(op, samples) for op, samples in data.rpc.items()]
    for label, samples in series:
        for p in (50, 99):
            q = summarize(samples, p, MS) if samples else Quantity(0.0, 0, False)
            out[f"{label}_p{p}_ms"] = (q.value, "ms", q.n, q.valid)
    rate = data.outcome.verified_bytes / data.seconds / 1e6 if data.seconds else 0.0
    out["bulk_mb_s"] = (rate, "MB/s", data.outcome.verified_bytes, True)
    out["daemon_rss_mb"] = (data.daemon_rss_mb, "MiB", 1, True)
    out["daemon_cpu_s"] = (data.daemon_cpu_s, "s", 1, True)
    attempted = data.outcome.attempted
    out["error_rate"] = (data.outcome.failed / attempted if attempted else 1.0,
                         "fraction", attempted, True)
    return out


def per_layer(spans, traced, untraced_e2e: dict, traced_e2e: dict,
              untraced_lateness: list) -> dict:
    """name -> (value, unit) from the spans and the two runs."""
    out = {}

    def ratio(name):
        calls = spans.calls(name)
        return float((spans.aux_values(name) > 0).sum()) / calls if calls else 0.0

    def volume(name):
        aux = spans.aux_values(name)
        return float(aux[aux > 0].sum())

    for name in ("channel.write", "channel.read", "ham.process", "core.pump",
                 "core.pump_all", "endpoint.pump_once", "endpoint.notify",
                 "modem.carrier_pump", "trace.emit"):
        out[f"{name}.calls"] = (spans.calls(name), "count")
    for name in ("channel.write", "channel.read", "ham.process"):
        out[f"{name}.bytes"] = (volume(name), "B")
    for name in ("channel.write", "channel.read", "ham.process", "ham.configure",
                 "core.pump", "core.pump_all", "endpoint.pump_once", "endpoint.open",
                 "endpoint.withdraw", "modem.feed.command", "modem.feed.data",
                 "trace.emit"):
        out[f"{name}.busy_s"] = (spans.busy(name), "s")
    for name in ("channel.read", "core.pump", "core.pump_all", "endpoint.pump_once",
                 "modem.carrier_pump"):
        out[f"{name}.useful_ratio"] = (ratio(name), "ratio")
    out["channel.write.full"] = (int((spans.aux_values("channel.write") < 0).sum()), "count")
    out["core.pump.self_s"] = (spans.own("core.pump"), "s")
    for op in ("deploy", "undeploy", "status"):
        durations = spans.durations(f"core.{op}")
        for p in (50, 99):
            out[f"core.{op}.p{p}_ms"] = (_pct(durations, p), "ms")

    moved = volume("ham.process")
    out["trace.events_per_mib"] = (spans.calls("trace.emit") / (moved / MIB) if moved else 0.0,
                                   "1/MiB")
    out["trace.retained"] = (spans.gauges.get("trace.retained", 0), "count")

    calls = spans.names("daemon.call.")
    out["daemon.call.wait_s"] = (sum(float(spans.aux_values(n).sum()) for n in calls), "s")
    out["daemon.call.busy_s"] = (sum(spans.busy(n) for n in calls), "s")
    kicks = spans.samples.get("daemon.kick_to_pump", [])
    for p in (50, 99):
        out[f"daemon.kick_to_pump_p{p}_ms"] = (_pct(kicks, p), "ms")
    out["daemon.threads"] = (traced.daemon_threads, "count")

    for op, rtts in traced.rpc.items():
        out[f"control.{op}.busy_s"] = (sum(rtts), "s")
        out[f"control.{op}.outside_call_s"] = (sum(rtts) - spans.busy(f"daemon.call.{op}"), "s")

    for p in (50, 99):
        out[f"generator.lateness_p{p}_ms"] = (_pct(untraced_lateness, p), "ms")
    for name, (value, unit, *_rest) in untraced_e2e.items():
        if name != "error_rate":
            out[f"overhead.{name}"] = (traced_e2e[name][0] - value, unit)
    return out
