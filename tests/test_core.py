"""Platform core: registries, arbitration, pump, and trace ordering."""

from __future__ import annotations

import itertools
import random

import pytest

from proteus.core import DeploymentState, Platform, Policy
from proteus.errors import (
    ConfigureFailedError,
    DeploymentNotActiveError,
    DuplicateHamError,
    DuplicateModuleError,
    HardwareBusyError,
    NameInUseError,
    NoCompatibleImplementationError,
    UnknownBehaviorError,
    UnknownDeploymentError,
    UnknownHamError,
    UnknownModuleError,
)
from proteus.ham import HamDescriptor, SimulatedFpga
from proteus.manifest import Implementation, ModuleManifest

from conftest import FakeEndpoint, make_manifest


def kinds(platform):
    return [e.kind.value for e in platform.trace.events()]


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


def app_handle(endpoint_factory, name):
    return endpoint_factory.live[name].handle


# ---------------------------------------------------------------------------
# registries


def test_register_ham_returns_probed_id(platform, sim_ham):
    assert platform.register_ham(sim_ham) == "sim0"
    assert kinds(platform) == ["HamRegistered"]


def test_register_duplicate_ham_rejected(platform, sim_ham):
    platform.register_ham(sim_ham)
    with pytest.raises(DuplicateHamError):
        platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))


def test_load_module_records_manifest(platform, modem_manifest):
    assert platform.load_module(modem_manifest) == "modem"
    assert kinds(platform) == ["ModuleLoaded"]


def test_load_duplicate_module_rejected(platform, modem_manifest):
    platform.load_module(modem_manifest)
    with pytest.raises(DuplicateModuleError):
        platform.load_module(make_manifest("modem", "identity", "identity"))


def test_load_module_with_unknown_behavior_rejected(platform):
    bad = make_manifest("weird", behavior="quantum", image="identity")
    with pytest.raises(UnknownBehaviorError):
        platform.load_module(bad)


def test_shipped_example_manifests_deploy(platform):
    from pathlib import Path
    modules_dir = Path(__file__).parent.parent / "modules"
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    platform.register_ham(SimulatedFpga("sim1", "sim-fpga-v1"))
    platform.load_module_file(str(modules_dir / "modem.yaml"))
    platform.load_module_file(str(modules_dir / "shouter.yaml"))
    a = platform.deploy("modem", "sim0")   # exercises the relative dial plan
    b = platform.deploy("shouter", "sim1")
    assert platform.deployment_info(a)["state"] == "active"
    assert platform.deployment_info(b)["state"] == "active"


def test_load_module_file_parses_yaml(platform, tmp_path):
    doc = """\
module_id: faxbox
display_name: Fax Box
implementations:
  - hardware_type: sim-fpga-v1
    behavior: identity
    image:
      behavior: identity
config:
  endpoint_name: fax0
"""
    path = tmp_path / "faxbox.yaml"
    path.write_text(doc)
    assert platform.load_module_file(str(path)) == "faxbox"
    assert platform.status()["modules"][0]["module_id"] == "faxbox"


# ---------------------------------------------------------------------------
# implementation matching


DESCRIPTOR = HamDescriptor("h", "sim-fpga-v1")


def test_match_picks_first_compatible_implementation():
    manifest = ModuleManifest(
        module_id="m", display_name="m",
        implementations=(
            Implementation("xilinx-v7", "identity", "identity"),
            Implementation("sim-fpga-v1", "identity", "identity"),
            Implementation("sim-fpga-v1", "identity", "upper"),
        ),
    )
    assert Platform.match_implementation(manifest, DESCRIPTOR) == 1


def test_match_order_is_author_controlled():
    first = Implementation("sim-fpga-v1", "identity", "upper")
    second = Implementation("sim-fpga-v1", "identity", "identity")
    m1 = ModuleManifest("m", "m", (first, second))
    m2 = ModuleManifest("m", "m", (second, first))
    assert Platform.match_implementation(m1, DESCRIPTOR) == 0
    assert Platform.match_implementation(m2, DESCRIPTOR) == 0


def test_match_incompatible_raises():
    manifest = make_manifest("m", hardware_type="xilinx-v7")
    with pytest.raises(NoCompatibleImplementationError):
        Platform.match_implementation(manifest, DESCRIPTOR)


def test_match_is_pure():
    manifest = make_manifest("m")
    results = {Platform.match_implementation(manifest, DESCRIPTOR) for _ in range(10)}
    assert results == {0}


def test_deploy_rejects_incompatible_module_up_front(platform, sim_ham):
    platform.register_ham(sim_ham)
    platform.load_module(make_manifest("alien", hardware_type="xilinx-v7"))
    with pytest.raises(NoCompatibleImplementationError):
        platform.deploy("alien", "sim0")
    assert platform.active_count == 0


# ---------------------------------------------------------------------------
# deployment lifecycle


def test_deploy_happy_path(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    info = platform.deployment_info(dep)
    assert info["state"] == "active"
    assert info["module_id"] == "modem"
    assert sim_ham.configured
    assert is_subsequence(
        ["DeployRequested", "ImplementationMatched", "Deployed", "EndpointOpened"],
        kinds(platform))


def test_deploy_unknown_module(platform, sim_ham):
    platform.register_ham(sim_ham)
    with pytest.raises(UnknownModuleError):
        platform.deploy("ghost", "sim0")


def test_deploy_unknown_ham(platform, modem_manifest):
    platform.load_module(modem_manifest)
    with pytest.raises(UnknownHamError):
        platform.deploy("modem", "nope")


def test_second_deploy_rejected_while_busy(platform, sim_ham, modem_manifest, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    platform.load_module(shouter_manifest)
    platform.deploy("modem", "sim0")
    with pytest.raises(HardwareBusyError):
        platform.deploy("shouter", "sim0", policy=Policy.REJECT)
    assert "DeployRejected" in kinds(platform)
    assert platform.active_count == 1


def test_queued_deploy_waits_then_activates(platform, sim_ham, modem_manifest, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    platform.load_module(shouter_manifest)
    first = platform.deploy("modem", "sim0")
    second = platform.deploy("shouter", "sim0", policy=Policy.QUEUE)
    assert platform.deployment_info(second)["state"] == "pending"
    assert "DeployQueued" in kinds(platform)
    platform.undeploy(first)
    assert platform.deployment_info(second)["state"] == "active"
    assert platform.deployment_info(first)["state"] == "stopped"


def test_queue_is_fifo_across_three_waiters(platform, sim_ham):
    platform.register_ham(sim_ham)
    for i in range(4):
        platform.load_module(make_manifest(f"m{i}", "identity", "identity",
                                           config={"endpoint_name": f"ep{i}"}))
    ids = [platform.deploy("m0", "sim0")]
    for i in (1, 2, 3):
        ids.append(platform.deploy(f"m{i}", "sim0", policy=Policy.QUEUE))
    activation_order = []
    for _ in range(4):
        active = [d["deployment_id"] for d in platform.status()["deployments"]
                  if d["state"] == "active"]
        assert len(active) == 1
        activation_order.append(active[0])
        platform.undeploy(active[0])
    assert activation_order == ids


def test_undeploy_unknown_deployment(platform):
    with pytest.raises(UnknownDeploymentError):
        platform.undeploy("d999")


def test_undeploy_twice_rejected(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    platform.undeploy(dep)
    with pytest.raises(DeploymentNotActiveError):
        platform.undeploy(dep)


def test_undeploy_of_queued_request_is_not_active(platform, sim_ham, modem_manifest, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    platform.load_module(shouter_manifest)
    platform.deploy("modem", "sim0")
    queued = platform.deploy("shouter", "sim0", policy=Policy.QUEUE)
    with pytest.raises(DeploymentNotActiveError):
        platform.undeploy(queued)


def test_undeploy_frees_hardware_for_fresh_deploy(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    platform.undeploy(dep)
    assert not sim_ham.configured  # device was reset
    dep2 = platform.deploy("modem", "sim0")
    assert platform.deployment_info(dep2)["state"] == "active"


def test_two_hams_run_independently(platform, modem_manifest, shouter_manifest):
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    platform.register_ham(SimulatedFpga("sim1", "sim-fpga-v1"))
    platform.load_module(modem_manifest)
    platform.load_module(shouter_manifest)
    a = platform.deploy("modem", "sim0")
    b = platform.deploy("shouter", "sim1")
    assert platform.deployment_info(a)["state"] == "active"
    assert platform.deployment_info(b)["state"] == "active"
    assert platform.active_count == 2


def test_shutdown_undeploys_everything(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    platform.deploy("modem", "sim0")
    platform.shutdown()
    assert platform.active_count == 0


# ---------------------------------------------------------------------------
# activation failures


def test_bad_image_fails_deploy_and_resets_ham(platform, sim_ham):
    platform.register_ham(sim_ham)
    platform.load_module(make_manifest("m", "identity", image="no-such-image"))
    with pytest.raises(ConfigureFailedError):
        platform.deploy("m", "sim0")
    assert platform.active_count == 0
    assert not sim_ham.configured
    # the device is still usable afterwards
    platform.load_module(make_manifest("ok", "identity", "identity"))
    platform.deploy("ok", "sim0")


def test_unreadable_dial_plan_fails_deploy(platform, sim_ham, tmp_path):
    platform.register_ham(sim_ham)
    platform.load_module(make_manifest(
        "modem", "modem", "modem-stub",
        config={"dial_plan": str(tmp_path / "missing.plan")}))
    with pytest.raises(ConfigureFailedError):
        platform.deploy("modem", "sim0")
    assert platform.active_count == 0
    assert not sim_ham.configured


def test_endpoint_name_collision_fails_second_deploy(platform, modem_manifest):
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    platform.register_ham(SimulatedFpga("sim1", "sim-fpga-v1"))
    platform.load_module(make_manifest("a", "identity", "identity",
                                       config={"endpoint_name": "shared"}))
    platform.load_module(make_manifest("b", "identity", "identity",
                                       config={"endpoint_name": "shared"}))
    platform.deploy("a", "sim0")
    with pytest.raises(NameInUseError):
        platform.deploy("b", "sim1")
    status = {h["ham_id"]: h["busy"] for h in platform.status()["hams"]}
    assert status == {"sim0": True, "sim1": False}


# ---------------------------------------------------------------------------
# the data pump


def pump_drain(platform, dep, passes=10):
    for _ in range(passes):
        platform.pump(dep)


def test_pump_runs_bytes_through_device_image(platform, endpoint_factory, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    dep = platform.deploy("shouter", "sim0")
    handle = app_handle(endpoint_factory, "shouter-sim0")
    handle.write(b"make this loud")
    pump_drain(platform, dep)
    assert handle.read(100) == b"MAKE THIS LOUD"


def test_pump_emits_data_events(platform, endpoint_factory, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    dep = platform.deploy("shouter", "sim0")
    app_handle(endpoint_factory, "shouter-sim0").write(b"x")
    pump_drain(platform, dep)
    seen = kinds(platform)
    assert "DataIn" in seen and "DataOut" in seen


def test_pump_modem_module_answers_connect(platform, endpoint_factory, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    handle = app_handle(endpoint_factory, "modem-sim0")
    handle.write(b"ATD5551234\r")
    pump_drain(platform, dep)
    out = handle.read(4096)
    assert out.endswith(b"\r\nCONNECT\r\n")
    parsed = [e for e in platform.trace.events() if e.kind.value == "CommandParsed"]
    assert parsed and parsed[-1].detail["result"] == "CONNECT"
    assert "ATD" in parsed[-1].detail["line"].upper()


def test_pump_large_transfer_in_bounded_passes(platform, endpoint_factory, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    dep = platform.deploy("shouter", "sim0")
    handle = app_handle(endpoint_factory, "shouter-sim0")
    payload = random.Random(8).randbytes(64 * 1024)
    sent = 0
    received = bytearray()
    while sent < len(payload) or len(received) < len(payload):
        sent += handle.write(payload[sent:sent + 4096])
        platform.pump(dep)
        received.extend(handle.read(8192) or b"")
    assert bytes(received) == payload.upper()


def test_pump_requires_active_deployment(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    platform.undeploy(dep)
    with pytest.raises(DeploymentNotActiveError):
        platform.pump(dep)
    with pytest.raises(UnknownDeploymentError):
        platform.pump("d404")


def test_pump_all_pumps_only_active_deployments(platform, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.register_ham(SimulatedFpga("sim1", "sim-fpga-v1"))
    platform.load_module(shouter_manifest)
    for _ in range(200):
        platform.undeploy(platform.deploy("shouter", "sim0"))
    active = [platform.deploy("shouter", ham_id) for ham_id in ("sim0", "sim1")]
    pumped = []
    pump = platform.pump
    platform.pump = lambda deployment_id: pumped.append(deployment_id) or pump(deployment_id)
    platform.pump_all()
    assert sorted(pumped) == sorted(active)


class PausableClient(FakeEndpoint):
    """Endpoint whose client takes what the platform sends only while
    ``reading`` is set, as a terminal that stops and resumes reading."""

    reading = False

    def _take(self):
        while self.reading and (chunk := self.handle.read(4096)):
            self.delivered.extend(chunk)

    def pump_once(self):
        self._take()
        return 0, 0

    def notify(self):
        self._take()


def test_pass_takes_in_input_once_a_resumed_client_clears_the_backlog(tmp_path, sim_ham):
    platform = Platform(runtime_dir=tmp_path, channel_capacity=16,
                        endpoint_factory=PausableClient)
    platform.register_ham(sim_ham)
    platform.load_module(make_manifest())
    dep = platform.deploy("modem", "sim0")
    client = platform._deployments[dep].endpoint
    batch = b"A\r" * 8  # each line echoes and answers ERROR: 88 bytes out
    answer = b"A\r\r\nERROR\r\n" * 8
    client.handle.write(batch)
    platform.pump(dep)  # the answer backs up behind the stalled client
    client.handle.write(batch)
    platform.pump(dep)  # held back: the backlog is over a channel's worth
    client.reading = True
    platform.pump(dep)
    # one pass clears the backlog and then answers the second batch too
    assert bytes(client.delivered) == answer * 2


def test_output_without_an_application_side_is_counted_and_traced(
        platform, endpoint_factory, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    dep = platform.deploy("shouter", "sim0")
    handle = app_handle(endpoint_factory, "shouter-sim0")
    handle.write(b"nobody hears")
    handle.close()  # the answer has nowhere to go
    platform.pump(dep)
    drops = [e.detail for e in platform.trace.events() if e.kind.value == "DataDropped"]
    assert drops == [{"deployment_id": dep, "bytes": 12, "where": "platform"}]
    entry, = platform.status()["deployments"]
    assert entry["bytes_dropped"] == 12


def test_undeploy_flushes_buffered_output(platform, endpoint_factory, sim_ham, shouter_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    dep = platform.deploy("shouter", "sim0")
    endpoint = endpoint_factory.live["shouter-sim0"]
    endpoint.handle.write(b"last words")
    platform.undeploy(dep)  # never pumped explicitly
    assert bytes(endpoint.delivered) == b"LAST WORDS"


# ---------------------------------------------------------------------------
# exhaustive arbitration check against a reference model
#
# Three deployment requests (one per module) plus one undeploy each are
# interleaved in every order that keeps each undeploy after its deploy.
# Each schedule runs under both policies against the real platform and a
# tiny independent model; every step must agree on outcome, the active
# module, and the queue depth, and at most one deployment may ever hold
# the device.


class ArbiterModel:
    """Reference semantics for one device: an occupant and a FIFO line."""

    def __init__(self, policy):
        self.policy = policy
        self.active = None
        self.line = []

    def deploy(self, label):
        if self.active is None:
            self.active = label
            return "active"
        if self.policy is Policy.REJECT:
            return "rejected"
        self.line.append(label)
        return "queued"

    def undeploy(self, label):
        if self.active != label:
            return "not-active"
        self.active = self.line.pop(0) if self.line else None
        return "ok"


def all_schedules():
    ops = [("d", 0), ("d", 1), ("d", 2), ("u", 0), ("u", 1), ("u", 2)]
    for perm in itertools.permutations(ops):
        if all(perm.index(("d", k)) < perm.index(("u", k)) for k in range(3)):
            yield perm


def observe(platform):
    st = platform.status()
    active = [d["module_id"] for d in st["deployments"] if d["state"] == "active"]
    assert len(active) <= 1, "two deployments hold one device"
    return (active[0] if active else None, st["queue_depth"])


def run_schedule(schedule, policy, tmp_path, factory_cls):
    platform = Platform(runtime_dir=tmp_path, endpoint_factory=factory_cls())
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    labels = ["m0", "m1", "m2"]
    for i, label in enumerate(labels):
        platform.load_module(make_manifest(label, "identity", "identity",
                                           config={"endpoint_name": f"ep{i}"}))
    model = ArbiterModel(policy)
    ids = {}
    outcomes = {}
    for op, k in schedule:
        label = labels[k]
        if op == "d":
            expected = model.deploy(label)
            try:
                dep = platform.deploy(label, "sim0", policy=policy)
            except HardwareBusyError:
                got = "rejected"
            else:
                ids[label] = dep
                got = platform.deployment_info(dep)["state"]
                got = {"active": "active", "pending": "queued"}[got]
            outcomes[label] = got
            assert got == expected, (schedule, op, label)
        else:
            if outcomes.get(label) == "rejected":
                continue  # nothing was ever deployed for this label
            expected = model.undeploy(label)
            try:
                platform.undeploy(ids[label])
                got = "ok"
            except DeploymentNotActiveError:
                got = "not-active"
            assert got == expected, (schedule, op, label)
        assert observe(platform) == (model.active, len(model.line)), (schedule, op, label)
    # drain whatever is still running; activation order must follow the model
    while model.active is not None:
        label = model.active
        platform.undeploy(ids[label])
        model.undeploy(label)
        assert observe(platform) == (model.active, len(model.line))
    assert platform.active_count == 0


@pytest.mark.parametrize("policy", [Policy.REJECT, Policy.QUEUE])
def test_exhaustive_three_request_interleavings(policy, tmp_path):
    from conftest import FakeEndpointFactory
    schedules = list(all_schedules())
    assert len(schedules) == 90  # 6!/2^3 orderings keep deploy before undeploy
    for schedule in schedules:
        run_schedule(schedule, policy, tmp_path, FakeEndpointFactory)


def test_randomized_arbitration_matches_model(tmp_path):
    from conftest import FakeEndpointFactory
    rng = random.Random(1234)
    platform = Platform(runtime_dir=tmp_path, endpoint_factory=FakeEndpointFactory())
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    for i in range(3):
        platform.load_module(make_manifest(f"m{i}", "identity", "identity",
                                           config={"endpoint_name": f"ep{i}"}))
    model = ArbiterModel(Policy.QUEUE)
    live = {}   # deployment_id -> label, for ids the model still tracks
    done = []
    for step in range(600):
        if rng.random() < 0.5:
            label = f"m{rng.randrange(3)}"
            expected = model.deploy(f"{label}#{step}")
            dep = platform.deploy(label, "sim0", policy=Policy.QUEUE)
            live[dep] = f"{label}#{step}"
            state = platform.deployment_info(dep)["state"]
            assert {"active": "active", "pending": "queued"}[state] == expected
        elif live or done:
            pool = list(live) + done
            dep = rng.choice(pool)
            if dep in live:
                expected = model.undeploy(live[dep])
            else:
                expected = "not-active"  # already stopped earlier
            try:
                platform.undeploy(dep)
                got = "ok"
            except DeploymentNotActiveError:
                got = "not-active"
            assert got == expected
            if got == "ok":
                done.append(dep)
                del live[dep]
        st = platform.status()
        active = [d for d in st["deployments"] if d["state"] == "active"]
        assert len(active) <= 1
        assert st["queue_depth"] == len(model.line)


# ---------------------------------------------------------------------------
# trace stream


def test_trace_sequence_is_strictly_increasing(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    platform.undeploy(dep)
    seqs = [e.seq for e in platform.trace.events()]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_trace_lifecycle_subsequence(platform, endpoint_factory, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    dep = platform.deploy("modem", "sim0")
    app_handle(endpoint_factory, "modem-sim0").write(b"ATD42\r")
    pump_drain(platform, dep)
    platform.undeploy(dep)
    assert is_subsequence(
        ["DeployRequested", "ImplementationMatched", "Deployed",
         "EndpointOpened", "CommandParsed", "Undeployed"],
        kinds(platform))


def test_trace_subscription_sees_only_new_events(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    cursor = platform.trace.next_seq
    dep = platform.deploy("modem", "sim0")
    got = platform.trace.events(cursor)
    assert got[0].kind.value == "DeployRequested"
    assert all(e.kind.value != "HamRegistered" for e in got)
    cursor += len(got)
    platform.undeploy(dep)
    assert any(e.kind.value == "Undeployed" for e in platform.trace.events(cursor))


def test_trace_subscription_from_beginning(platform, sim_ham):
    platform.register_ham(sim_ham)
    assert [e.kind.value for e in platform.trace.events(0)] == ["HamRegistered"]


# ---------------------------------------------------------------------------
# status


def test_status_reports_registries_and_business(platform, sim_ham, modem_manifest):
    platform.register_ham(sim_ham)
    platform.load_module(modem_manifest)
    st = platform.status()
    assert st["hams"][0]["ham_id"] == "sim0"
    assert st["hams"][0]["busy"] is False
    dep = platform.deploy("modem", "sim0")
    st = platform.status()
    assert st["hams"][0]["busy"] is True
    assert st["hams"][0]["active_deployment"] == dep
    entry = [d for d in st["deployments"] if d["deployment_id"] == dep][0]
    assert entry["state"] == "active"
    assert entry["endpoint"]["name"] == "modem-sim0"
