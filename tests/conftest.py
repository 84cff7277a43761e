"""Shared fixtures: fake endpoints and canned manifests."""

from __future__ import annotations

import pytest

from proteus.core import Platform
from proteus.errors import NameInUseError
from proteus.ham import SimulatedFpga
from proteus.manifest import Implementation, ModuleManifest


class FakeEndpoint:
    """Endpoint stand-in that skips the PTY but keeps the contract."""

    def __init__(self, deployment_id, app_handle, name, link_dir):
        self.deployment_id = deployment_id
        self.handle = app_handle
        self.name = name
        self.os_path = f"/fake/{name}"
        self.link_path = link_dir / name
        self.open_count = 0
        self.withdrawn = False
        self.notified = 0
        self.delivered = bytearray()  # what a client would have received

    def notify(self):
        self.notified += 1

    def pump_once(self):
        return 0, 0

    def withdraw(self):
        # the real endpoint drains outbound bytes to the terminal before
        # tearing it down; keep that contract visible to tests
        while True:
            chunk = self.handle.read(4096)
            if not chunk:
                break
            self.delivered.extend(chunk)
        self.handle.close()
        self.withdrawn = True

    def snapshot(self):
        return {"name": self.name, "path": self.os_path,
                "link": str(self.link_path), "open_count": self.open_count,
                "sessions": 0, "bytes_from_app": 0, "bytes_to_app": 0,
                "bytes_dropped": 0}


class FakeEndpointFactory:
    """Tracks live names like the real endpoint directory would."""

    def __init__(self):
        self.live = {}

    def __call__(self, deployment_id, app_handle, name, link_dir):
        if name in self.live and not self.live[name].withdrawn:
            raise NameInUseError(f"endpoint name already published: {name}")
        endpoint = FakeEndpoint(deployment_id, app_handle, name, link_dir)
        self.live[name] = endpoint
        return endpoint


@pytest.fixture
def endpoint_factory():
    return FakeEndpointFactory()


@pytest.fixture
def platform(tmp_path, endpoint_factory):
    return Platform(runtime_dir=tmp_path, endpoint_factory=endpoint_factory)


@pytest.fixture
def sim_ham():
    return SimulatedFpga("sim0", "sim-fpga-v1")


def make_manifest(module_id="modem", behavior="modem", image="modem-stub",
                  hardware_type="sim-fpga-v1", config=None):
    return ModuleManifest(
        module_id=module_id,
        display_name=f"Test {module_id}",
        implementations=(
            Implementation(hardware_type=hardware_type, behavior=behavior,
                           image_behavior=image),
        ),
        config=dict(config or {}),
    )


@pytest.fixture
def modem_manifest():
    return make_manifest("modem", "modem", "modem-stub")


@pytest.fixture
def shouter_manifest():
    return make_manifest("shouter", "identity", "upper")
