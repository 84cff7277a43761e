"""Tests for the benchmark's own helpers.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from clients import InOrderMatcher, Mismatch, Outcome, at_reply  # noqa: E402
from spans import Recorder, SpanSet, self_times  # noqa: E402
from stats import percentile, percentile_valid, summarize  # noqa: E402
from workloads import RunData  # noqa: E402


# -- the percentile rule -----------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert not summarize(list(range(999)), 99).valid
    assert summarize(list(range(1000)), 99).valid
    assert not percentile_valid(19, 50)
    assert percentile_valid(20, 50)


def test_flagged_percentile_is_still_computed_with_its_count():
    q = summarize([1.0, 2.0, 3.0], 99, scale=1000)
    assert (q.n, q.valid) == (3, False)
    assert q.value == pytest.approx(2980.0)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert percentile([5], 99) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #   0: root      0 .. 10
    #   1: a         1 .. 4    (child of 0)
    #   2: b         5 .. 9    (child of 0)
    #   3: b.inner   6 .. 7    (child of 2)
    #   4: other     2 .. 3    (another root)
    start = [0, 1, 5, 6, 2]
    end = [10, 4, 9, 7, 3]
    parent = [-1, 0, 0, 2, -1]
    assert list(self_times(start, end, parent)) == [3, 3, 3, 1, 1]


def test_recorded_spans_nest_per_thread(tmp_path):
    rec = Recorder()
    outer, inner = rec.name_id("outer"), rec.name_id("inner")

    def work():
        token = rec.open(outer)
        for _ in range(3):
            rec.close(rec.open(inner), aux=2.0)
        rec.close(token, aux=-1.0)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    rec.sample("lag", 0.5)
    rec.gauges["retained"] = 7
    rec.dump(tmp_path / "spans.npz")

    spans = SpanSet([tmp_path / "spans.npz"])
    assert spans.calls("outer") == 2 and spans.calls("inner") == 6
    assert spans.aux_values("inner").tolist() == [2.0] * 6
    assert spans.own("outer") == pytest.approx(spans.busy("outer") - spans.busy("inner"))
    assert spans.own("inner") == pytest.approx(spans.busy("inner"))
    assert spans.samples == {"lag": [0.5]}
    assert spans.gauges == {"retained": 7}


# -- the in-order reply matcher ----------------------------------------------

OK_REPLY = at_reply(b"AT", b"OK")


def test_reply_table_frames_echo_and_result_code():
    assert OK_REPLY == b"AT\r\r\nOK\r\n"
    assert at_reply(b"ATD5551234", b"CONNECT", echo=False) == b"\r\nCONNECT\r\n"


def test_matcher_completes_replies_split_across_reads():
    matcher = InOrderMatcher()
    matcher.expect("first", OK_REPLY)
    matcher.expect("second", b"x")
    done = []
    for i in range(len(OK_REPLY)):
        done += matcher.feed(OK_REPLY[i:i + 1])
        if i < len(OK_REPLY) - 1:
            assert done == []
    assert done == ["first"]
    assert matcher.feed(b"x") == ["second"]
    assert matcher.outstanding == 0


def test_matcher_completes_replies_merged_into_one_read():
    matcher = InOrderMatcher()
    for tag in range(3):
        matcher.expect(tag, bytes([65 + tag]))
    matcher.expect(3, OK_REPLY)
    assert matcher.feed(b"ABC" + OK_REPLY[:4]) == [0, 1, 2]
    assert matcher.oldest() == 3
    assert matcher.feed(OK_REPLY[4:]) == [3]


def test_matcher_rejects_wrong_reordered_and_unexpected_bytes():
    matcher = InOrderMatcher()
    matcher.expect(0, b"a")
    matcher.expect(1, b"b")
    with pytest.raises(Mismatch):
        matcher.feed(b"ba")

    matcher = InOrderMatcher()
    matcher.expect(0, OK_REPLY)
    with pytest.raises(Mismatch):
        matcher.feed(b"AT\r\r\nERROR\r\n")

    matcher = InOrderMatcher()
    matcher.expect(0, b"a")
    with pytest.raises(Mismatch):
        matcher.feed(b"ab")


# -- pooling segments ----------------------------------------------------------

def test_segments_pool_through_json():
    first = RunData(setup_s=[0.2], seconds=3.0, daemon_cpu_s=0.5, daemon_rss_mb=20.0,
                    daemon_threads=5, cycles=2, span_files=[Path("a.npz")])
    first.rpc["status"] = [0.001]
    first.outcome = Outcome(latency={"at": [0.0005], "echo": []}, lateness=[1e-4],
                            attempted=3, failed=0, verified_bytes=7)
    second = RunData(setup_s=[0.1], seconds=2.0, daemon_cpu_s=0.25, daemon_rss_mb=21.0,
                     daemon_threads=4, cycles=1)
    second.rpc["status"] = [0.002, 0.003]
    second.outcome = Outcome(latency={"at": [], "echo": [0.0004]}, attempted=2,
                             failed=1, errors=["late"])

    pooled = RunData()
    for part in (first, second):
        pooled.merge(RunData.from_json(part.to_json()))
    assert pooled.setup_s == [0.2, 0.1]
    assert pooled.rpc == {"deploy": [], "undeploy": [], "status": [0.001, 0.002, 0.003]}
    assert pooled.outcome.latency == {"at": [0.0005], "echo": [0.0004]}
    assert (pooled.outcome.attempted, pooled.outcome.failed) == (5, 1)
    assert pooled.outcome.errors == ["late"]
    assert pooled.outcome.verified_bytes == 7
    assert (pooled.seconds, pooled.daemon_cpu_s, pooled.cycles) == (5.0, 0.75, 3)
    assert (pooled.daemon_rss_mb, pooled.daemon_threads) == (21.0, 5)
    assert pooled.span_files == ["a.npz"]
