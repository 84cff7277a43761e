"""AT interpreter tests: parser, result framing, escape guard, carriers."""

from __future__ import annotations

import random
import re
import socket
import threading
import time

import pytest

from proteus.errors import MalformedDialPlanError, NotAtPrefixedError
from proteus.modem import (
    CONNECT,
    ERROR,
    GUARD_SECONDS,
    LINE_BUFFER_LIMIT,
    NO_CARRIER,
    OK,
    Dial,
    DialPlan,
    Hangup,
    LoopbackCarrier,
    LoopbackTarget,
    Mode,
    Modem,
    NoCarrierTarget,
    ResetDefaults,
    SetEcho,
    TcpTarget,
    Unknown,
    frame_result,
    load_dial_plan,
    parse_at_line,
    parse_dial_plan,
)

FRAME_RE = re.compile(rb"\r\n(OK|ERROR|CONNECT|NO CARRIER)\r\n")


def responses(to_app: bytes) -> list[str]:
    """Extract the framed result codes from an output stream."""
    return [m.group(1).decode() for m in FRAME_RE.finditer(to_app)]


class FakeClock:
    """Monotonic clock under test control."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


TEST_PLAN = "5550000 = none\ndefault = loopback"


def fresh_modem(**kwargs) -> Modem:
    kwargs.setdefault("dial_plan", parse_dial_plan(TEST_PLAN))
    return Modem(**kwargs)


# ---------------------------------------------------------------------------
# command/response fixture table.  Each row is one line typed at a fresh
# modem (default settings, loopback dial plan with 5550000 unrouted) and
# the framed result codes it must produce.

AT_FIXTURES = [
    # basics and case insensitivity
    ("AT", [OK]),
    ("at", [OK]),
    ("aT", [OK]),
    # echo control
    ("ATE0", [OK]),
    ("ATE1", [OK]),
    ("ATE", [OK]),             # omitted digit means E0
    # reset
    ("ATZ", [OK]),
    # hangup, with and without carrier
    ("ATH", [OK]),
    ("ATH0", [OK]),
    # dialing
    ("ATD5551234", [CONNECT]),
    ("ATDT5551234", [CONNECT]),      # tone-dial modifier tolerated
    ("ATD 555-1234", [CONNECT]),     # separators stripped
    ("atd5551234", [CONNECT]),
    ("ATDP5551234;", [CONNECT]),     # pulse modifier and trailing ';'
    ("ATD", [ERROR]),                # nothing to dial
    ("ATD5550000", [NO_CARRIER]),    # dial plan routes this nowhere
    # command chaining and embedded whitespace
    ("ATE1Z", [OK]),
    ("ATE0H0", [OK]),
    ("ATZE1", [OK]),
    ("AT Z", [OK]),
    # unknown commands
    ("ATX9", [ERROR]),
    ("AT&F", [ERROR]),
    ("ATI", [ERROR]),
    # lines that are not AT commands at all
    ("HELLO", [ERROR]),
    ("A", [ERROR]),
    ("+++ATH", [ERROR]),
    ("1234", [ERROR]),
    # a bare CR gets no response at all
    ("", []),
    # a line longer than the 256-byte buffer errors once, mid-line
    ("AT" + "X" * 300, [ERROR]),
]


@pytest.mark.parametrize("line,expected", AT_FIXTURES,
                         ids=[repr(row[0][:24]) for row in AT_FIXTURES])
def test_command_response_table(line, expected):
    modem = fresh_modem()
    result = modem.feed(line.encode("ascii") + b"\r")
    assert responses(result.to_app) == expected


def test_table_covers_the_required_surface():
    # the table itself is a deliverable: keep it broad enough to stay one
    assert len(AT_FIXTURES) >= 20
    codes = {tuple(expected) for _, expected in AT_FIXTURES}
    assert (OK,) in codes and (ERROR,) in codes
    assert (CONNECT,) in codes and (NO_CARRIER,) in codes
    assert any(len(line) > LINE_BUFFER_LIMIT for line, _ in AT_FIXTURES)


# ---------------------------------------------------------------------------
# parser


def test_parse_bare_at_is_empty_command_list():
    assert parse_at_line("AT") == []


def test_parse_requires_at_prefix():
    with pytest.raises(NotAtPrefixedError):
        parse_at_line("BTD5551234")
    with pytest.raises(NotAtPrefixedError):
        parse_at_line("")


def test_parse_dial_consumes_rest_of_line():
    assert parse_at_line("ATD5551234") == [Dial("5551234")]
    assert parse_at_line("ATDT123E0") == [Dial("T123E0")]  # E0 is part of the number


def test_parse_chained_commands_in_order():
    assert parse_at_line("ATE0H0Z") == [SetEcho(False), Hangup(), ResetDefaults()]
    assert parse_at_line("ATE1D555") == [SetEcho(True), Dial("555")]


def test_parse_unknown_collapses_remainder():
    assert parse_at_line("ATS0=1") == [Unknown("S0=1")]
    assert parse_at_line("ATE0S0=1") == [SetEcho(False), Unknown("S0=1")]


def test_commands_equal_only_commands_of_their_own_type():
    assert Dial("1") == Dial("1") and Hangup() == Hangup()
    assert Hangup() != ResetDefaults()
    assert Dial("1") != Unknown("1")
    assert SetEcho(True) != Dial(True)
    assert len({Dial("1"), Dial("1"), Unknown("1"), Hangup(), ResetDefaults()}) == 4


def test_parse_is_case_insensitive():
    assert parse_at_line("ate0h") == [SetEcho(False), Hangup()]


# ---------------------------------------------------------------------------
# result framing


@pytest.mark.parametrize("code", [OK, ERROR, CONNECT, NO_CARRIER])
def test_frame_wraps_code_in_crlf(code):
    framed = frame_result(code)
    assert framed == b"\r\n" + code.encode() + b"\r\n"
    assert responses(framed) == [code]


# ---------------------------------------------------------------------------
# echo


def test_echo_on_by_default_reflects_input():
    modem = fresh_modem()
    result = modem.feed(b"AT\r")
    assert result.to_app.startswith(b"AT\r")


def test_echo_off_emits_only_result_frames():
    modem = fresh_modem()
    modem.feed(b"ATE0\r")
    for line in (b"AT\r", b"ATH\r", b"ATX\r", b"ATD5550000\r"):
        out = modem.feed(line).to_app
        assert FRAME_RE.fullmatch(out), out


def test_reset_restores_echo_default():
    modem = fresh_modem()
    modem.feed(b"ATE0\r")
    modem.feed(b"ATZ\r")
    assert modem.feed(b"AT\r").to_app.startswith(b"AT\r")


def test_echo_reenabled_with_e1():
    modem = fresh_modem()
    modem.feed(b"ATE0\r")
    modem.feed(b"ATE1\r")
    assert modem.feed(b"AT\r").to_app.startswith(b"AT\r")


# ---------------------------------------------------------------------------
# line buffering


def test_split_line_across_feeds():
    modem = fresh_modem()
    assert responses(modem.feed(b"AT").to_app) == []
    assert responses(modem.feed(b"D555").to_app) == []
    assert responses(modem.feed(b"1234\r").to_app) == [CONNECT]


def test_line_at_buffer_limit_still_parses():
    modem = fresh_modem()
    line = b"AT" + b" " * (LINE_BUFFER_LIMIT - 2)  # exactly at the limit
    assert responses(modem.feed(line + b"\r").to_app) == [OK]


def test_overflow_errors_once_then_recovers():
    modem = fresh_modem()
    out = modem.feed(b"AT" + b"X" * 400 + b"\r").to_app
    assert responses(out) == [ERROR]
    assert responses(modem.feed(b"AT\r").to_app) == [OK]


def test_multiple_lines_in_one_feed():
    modem = fresh_modem()
    out = modem.feed(b"AT\rATX\rATZ\r").to_app
    assert responses(out) == [OK, ERROR, OK]


# ---------------------------------------------------------------------------
# dialing and data mode (loopback carrier)


def test_dial_connects_and_enters_data_mode():
    modem = fresh_modem()
    out = modem.feed(b"ATD5551234\r").to_app
    assert responses(out) == [CONNECT]
    assert modem.mode is Mode.DATA
    assert isinstance(modem.carrier, LoopbackCarrier)


def test_loopback_reflects_data_back():
    modem = fresh_modem()
    modem.feed(b"ATD5551234\r")
    sent = modem.feed(b"hello there")
    assert sent.to_carrier == b"hello there"
    echoed = modem.carrier_pump()
    assert echoed.to_app == b"hello there"


def test_bytes_after_the_dial_line_are_data_not_commands():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    out = modem.feed(b"ATE0\rATD5551234\rhello")
    assert responses(out.to_app) == [OK, CONNECT]
    assert out.to_carrier == b"hello"
    assert modem.carrier_pump().to_app == b"hello"
    clock.advance(1.0)
    modem.feed(b"+++")
    clock.advance(1.0)
    assert responses(modem.feed(b"AT\r").to_app) == [OK, OK]  # no stale command line


def test_loopback_roundtrip_conserves_random_bytes():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATE0\r")
    modem.feed(b"ATD5551234\r")
    rng = random.Random(11)
    sent = bytearray()
    got = bytearray()
    for _ in range(300):
        # clock never advances, so no guard silence and no escape
        chunk = rng.randbytes(rng.randrange(0, 200))
        sent.extend(chunk)
        modem.feed(chunk)
        got.extend(modem.carrier_pump().to_app)
    got.extend(modem.carrier_pump().to_app)
    assert bytes(got) == bytes(sent)


def test_hangup_drops_carrier_after_escape():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.advance(1.0)
    modem.feed(b"+++")
    clock.advance(1.0)
    out = modem.carrier_pump()
    assert responses(out.to_app) == [OK]
    assert modem.mode is Mode.COMMAND
    assert modem.carrier is not None  # escape keeps the call up
    assert responses(modem.feed(b"ATH\r").to_app) == [OK]
    assert modem.carrier is None


# ---------------------------------------------------------------------------
# the +++ escape guard, driven by an injected clock


def test_escape_requires_silence_on_both_sides():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    assert modem.deadline() is None  # loopback needs no polling
    clock.advance(1.0)
    modem.feed(b"+++")
    assert modem.feed(b"").to_carrier == b""
    clock.advance(0.5)
    assert modem.carrier_pump().to_app == b""  # guard not yet satisfied
    assert modem.mode is Mode.DATA
    assert modem.deadline() == pytest.approx(clock() + 0.5)  # when to look again
    clock.advance(0.5)
    assert responses(modem.carrier_pump().to_app) == [OK]
    assert modem.mode is Mode.COMMAND
    assert modem.deadline() is None


def test_escape_completes_at_the_very_deadline_it_gives():
    # plus_time + guard - plus_time is 0.9999999999990905 here: the guard
    # test must add, as deadline() does, or a pass at the deadline misses it
    clock = FakeClock(8000.0)
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.now = 8191.818381712773
    modem.feed(b"+++")
    clock.now = modem.deadline()
    assert responses(modem.carrier_pump().to_app) == [OK]
    assert modem.mode is Mode.COMMAND


def test_escape_completes_via_feed_as_well():
    # if the next keystrokes arrive after the guard, the pending escape
    # wins before they are interpreted
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.advance(2.0)
    modem.feed(b"+++")
    clock.advance(1.0)
    result = modem.feed(b"ATH\r")
    assert responses(result.to_app) == [OK, OK]  # escape ack, then ATH
    assert modem.carrier is None


def test_plus_run_split_across_feeds_still_escapes():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.advance(1.5)
    modem.feed(b"+")
    clock.advance(0.2)
    modem.feed(b"++")
    clock.advance(1.0)
    assert responses(modem.carrier_pump().to_app) == [OK]
    assert modem.mode is Mode.COMMAND


def test_plus_without_leading_silence_is_data():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    modem.feed(b"chatter")
    clock.advance(0.3)  # too soon after traffic
    result = modem.feed(b"+++")
    assert result.to_carrier == b"+++"
    assert modem.mode is Mode.DATA


def test_plus_followed_by_data_is_flushed_to_carrier():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.advance(1.0)
    assert modem.feed(b"+++").to_carrier == b""   # withheld for now
    clock.advance(0.2)
    result = modem.feed(b"abc")                    # run broken: flush it all
    assert result.to_carrier == b"+++abc"
    assert modem.mode is Mode.DATA


def test_four_pluses_are_just_data():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    clock.advance(1.0)
    assert modem.feed(b"++++").to_carrier == b"++++"


def test_carrier_traffic_waits_while_escaped():
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    modem.feed(b"ATD5551234\r")
    modem.feed(b"ping")
    clock.advance(1.0)
    modem.feed(b"+++")
    clock.advance(1.0)
    out = modem.carrier_pump()
    assert responses(out.to_app) == [OK]
    assert b"ping" not in out.to_app  # held until back in data mode
    modem.feed(b"ATD5551234\r")       # redialing resumes data mode
    assert modem.mode is Mode.DATA


# ---------------------------------------------------------------------------
# dial plans


def test_parse_dial_plan_entries_and_default():
    plan = parse_dial_plan(
        """
        # office bridge
        5551234 = tcp:198.51.100.7:2323
        *99 = loopback
        5550000 = none
        default = none
        """
    )
    assert plan.entries["5551234"] == TcpTarget("198.51.100.7", 2323)
    assert plan.entries["*99"] == LoopbackTarget()
    assert plan.entries["5550000"] == NoCarrierTarget()
    assert plan.default == NoCarrierTarget()


def test_dial_plan_resolution_normalizes_dialstrings():
    plan = parse_dial_plan("5551234 = none\ndefault = loopback")
    assert plan.resolve("T555-1234") == NoCarrierTarget()
    assert plan.resolve("P 555 1234;") == NoCarrierTarget()
    assert plan.resolve("5559999") == LoopbackTarget()


def test_default_plan_loops_back_everything():
    assert DialPlan().resolve("8675309") == LoopbackTarget()


def test_targets_equal_only_targets_of_their_own_type():
    assert LoopbackTarget() == LoopbackTarget()
    assert LoopbackTarget() != NoCarrierTarget()
    assert TcpTarget("198.51.100.7", 2323) == TcpTarget("198.51.100.7", 2323)
    assert hash(TcpTarget("198.51.100.7", 2323)) == hash(TcpTarget("198.51.100.7", 2323))
    assert len({LoopbackTarget(), LoopbackTarget(), NoCarrierTarget()}) == 2


def test_a_dial_plan_is_immutable_and_checks_its_dial_strings():
    # the modems that dial by one plan file share it
    plan = DialPlan({"1": NoCarrierTarget()})
    with pytest.raises(AttributeError):
        plan.default = NoCarrierTarget()
    with pytest.raises(AttributeError):
        plan.entries = {}
    assert DialPlan().entries is not DialPlan().entries
    with pytest.raises(MalformedDialPlanError):
        DialPlan({"1a": LoopbackTarget()})


@pytest.mark.parametrize("doc", [
    "5551234",                       # no separator
    " = loopback",                   # empty dial string
    "abc = loopback",                # invalid dial string characters
    "5551234 = warp:mars",           # unknown target
    "5551234 = tcp:nohost",          # missing port
    "5551234 = tcp:h:notaport",      # non-numeric port
    "1 = tcp:127.0.0.1:99999",       # port out of range
    "1 = tcp:127.0.0.1:0",           # port out of range
    "1 = tcp:x..y:80",               # host name lookup cannot encode
    "1 = loopback\n1 = none",        # duplicate entry
])
def test_malformed_dial_plans_rejected(doc):
    with pytest.raises(MalformedDialPlanError):
        parse_dial_plan(doc)


# ---------------------------------------------------------------------------
# TCP carrier


@pytest.fixture
def echo_server():
    """One-shot TCP echo server on an ephemeral port."""
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    conns = []

    def serve():
        srv.settimeout(5)
        try:
            conn, _ = srv.accept()
        except OSError:
            return
        conns.append(conn)
        try:
            while True:
                data = conn.recv(4096)
                if not data:
                    break
                conn.sendall(data)
        except OSError:
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield port, conns
    srv.close()
    for c in conns:
        try:
            c.close()
        except OSError:
            pass
    thread.join(timeout=5)


def _pump_until(modem, predicate, collected=b"", timeout=5.0):
    """Pump until what the modem gave, from ``collected`` on, satisfies
    ``predicate``; a dial may be answered at once or by a later pump."""
    deadline = time.monotonic() + timeout
    while not predicate(collected):
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for carrier data, got {collected!r}")
        time.sleep(0.01)
        collected += modem.carrier_pump().to_app
    return collected


def test_dial_plan_hosts_are_looked_up_when_parsed_and_never_at_dial(
        monkeypatch, echo_server, tmp_path):
    port, _ = echo_server
    looked_up = []

    def getaddrinfo(host, *args, **kwargs):  # no real name service
        looked_up.append(host)
        if host != "bridge.example":
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port))]

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    plan_path = tmp_path / "plan.conf"
    plan_path.write_text(f"42 = tcp:bridge.example:{port}\n# {tmp_path}\n")
    plan = load_dial_plan(str(plan_path))
    assert plan.entries["42"] == TcpTarget("127.0.0.1", port)
    assert load_dial_plan(str(plan_path)) is plan  # the same bytes: not parsed again
    assert looked_up == ["bridge.example"]
    modem = Modem(dial_plan=plan)
    modem.feed(b"ATE0\r")
    got = _pump_until(modem, responses, modem.feed(b"ATD42\r").to_app)
    assert responses(got) == [CONNECT]
    modem.close()
    assert looked_up == ["bridge.example"]  # the dial looked nothing up
    plan_path.write_text(f"42 = tcp:nowhere.example:{port}\n# {tmp_path}\n")
    with pytest.raises(MalformedDialPlanError, match="nowhere.example"):
        load_dial_plan(str(plan_path))


def test_a_target_built_in_code_with_a_host_name_gets_no_carrier(monkeypatch):
    monkeypatch.setattr(socket, "getaddrinfo", pytest.fail)
    modem = Modem(dial_plan=DialPlan({"1": TcpTarget("bridge.example", 80)}))
    assert responses(modem.feed(b"ATD1\r").to_app) == [NO_CARRIER]


def test_tcp_carrier_bridges_both_directions(echo_server):
    port, _ = echo_server
    plan = parse_dial_plan(f"42 = tcp:127.0.0.1:{port}")
    modem = Modem(dial_plan=plan)
    modem.feed(b"ATE0\r")
    got = _pump_until(modem, responses, modem.feed(b"ATD42\r").to_app)
    assert responses(got) == [CONNECT]
    # connected and idle: only the socket's readiness calls for a pump
    assert modem.deadline() is None
    modem.feed(b"marco")
    got = _pump_until(modem, lambda buf: b"marco" in buf)
    assert got == b"marco"
    modem.close()


def test_tcp_remote_hangup_reports_no_carrier(echo_server):
    port, conns = echo_server
    plan = parse_dial_plan(f"42 = tcp:127.0.0.1:{port}")
    modem = Modem(dial_plan=plan)
    modem.feed(b"ATE0\r")
    modem.feed(b"ATD42\r")
    modem.feed(b"x")
    _pump_until(modem, lambda buf: b"x" in buf)  # connection is really up
    # shutdown, not just close: the echo thread is blocked in recv() on
    # this socket, and a plain close would defer the FIN until it wakes
    conns[0].shutdown(socket.SHUT_RDWR)
    conns[0].close()
    got = _pump_until(modem, lambda buf: frame_result(NO_CARRIER) in buf)
    assert modem.mode is Mode.COMMAND
    assert modem.carrier is None


def test_tcp_connect_refused_reports_no_carrier():
    # grab an ephemeral port and close it again: nothing is listening
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    plan = parse_dial_plan(f"42 = tcp:127.0.0.1:{port}")
    modem = Modem(dial_plan=plan, connect_timeout=1.0)
    modem.feed(b"ATE0\r")
    got = _pump_until(modem, responses, modem.feed(b"ATD42\r").to_app)
    assert responses(got) == [NO_CARRIER]
    assert modem.mode is Mode.COMMAND


def test_input_after_a_tcp_dial_waits_for_its_outcome():
    clock = FakeClock()
    with socket.socket() as hole, socket.socket() as queued:
        hole.bind(("127.0.0.1", 0))
        hole.listen(0)
        queued.connect(hole.getsockname())  # fills the backlog: the next SYN is dropped
        modem = Modem(dial_plan=parse_dial_plan(f"1 = tcp:127.0.0.1:{hole.getsockname()[1]}"),
                      clock=clock)
        try:
            modem.feed(b"ATE0\r")
            dialled = modem.feed(b"ATD1\rAT\r")
            assert (dialled.to_app, dialled.events) == (b"", [])
            assert not modem.accepts_input
            clock.advance(modem.connect_timeout - 0.01)
            assert modem.carrier_pump().to_app == b""
            assert modem.deadline() == pytest.approx(clock() + 0.01)
            clock.advance(0.01)
            answered = modem.carrier_pump()
            # the dial line is traced once, with its outcome; then the
            # command typed meanwhile runs
            assert responses(answered.to_app) == [NO_CARRIER, OK]
            assert [(e["line"], e["result"]) for e in answered.events] == [
                ("ATD1", NO_CARRIER), ("AT", OK)]
            assert modem.accepts_input
            assert modem.carrier is None
        finally:
            modem.close()


def test_data_after_a_tcp_dial_line_goes_to_the_call(echo_server):
    port, _ = echo_server
    modem = Modem(dial_plan=parse_dial_plan(f"42 = tcp:127.0.0.1:{port}"))
    modem.feed(b"ATE0\r")
    got = _pump_until(modem, lambda buf: b"marco" in buf, modem.feed(b"ATD42\rmarco").to_app)
    assert got == frame_result(CONNECT) + b"marco"
    modem.close()


def test_redial_after_escape_hangs_up_the_held_call():
    clock = FakeClock()
    with socket.create_server(("127.0.0.1", 0)) as server:
        modem = Modem(dial_plan=parse_dial_plan(f"42 = tcp:127.0.0.1:{server.getsockname()[1]}"),
                      clock=clock)
        try:
            modem.feed(b"ATE0\r")
            assert responses(_pump_until(modem, responses, modem.feed(b"ATD42\r").to_app)) == [
                CONNECT]
            first, _ = server.accept()
            with first:
                clock.advance(GUARD_SECONDS)
                modem.feed(b"+++")
                clock.advance(GUARD_SECONDS)
                assert responses(modem.carrier_pump().to_app) == [OK]  # the call is held
                redialled = modem.feed(b"ATD42\r").to_app
                first.settimeout(1.0)
                assert first.recv(1) == b""  # the held call hung up
            assert responses(_pump_until(modem, responses, redialled)) == [CONNECT]
            server.accept()[0].close()
        finally:
            modem.close()


# ---------------------------------------------------------------------------
# state-machine fuzz: random interleavings keep the invariants


def test_random_traffic_never_strands_the_state_machine():
    rng = random.Random(4242)
    clock = FakeClock()
    modem = fresh_modem(clock=clock)
    lines = [b"AT\r", b"ATD5551234\r", b"ATH\r", b"ATZ\r", b"ATE0\r",
             b"ATE1\r", b"junk\r", b"ATD\r", b"ATD5550000\r"]
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.4:
            modem.feed(rng.choice(lines))
        elif roll < 0.6:
            modem.feed(rng.randbytes(rng.randrange(1, 20)))
        elif roll < 0.8:
            modem.carrier_pump()
        else:
            clock.advance(rng.choice([0.1, 0.6, 1.1]))
        if modem.mode is Mode.DATA:
            assert modem.carrier is not None
        if modem.carrier is None:
            assert modem.mode is Mode.COMMAND
    modem.close()
    assert modem.carrier is None
