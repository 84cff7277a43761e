"""Simulated reconfigurable hardware: lifecycle and transform behavior."""

from __future__ import annotations

import random

import pytest

from proteus.errors import NotConfiguredError, UnknownBehaviorError
from proteus.ham import BEHAVIORS, HamDescriptor, HardwareImage, SimulatedFpga


def test_probe_reports_identity_and_type():
    ham = SimulatedFpga("sim0", "sim-fpga-v1")
    desc = ham.probe()
    assert desc.ham_id == "sim0"
    assert desc.hardware_type == "sim-fpga-v1"
    assert desc.resources  # a real board would report capacity figures


def test_probe_is_stable_across_calls():
    ham = SimulatedFpga()
    assert ham.probe() == ham.probe()
    assert ham.probe() is ham.probe()


def test_a_descriptor_is_immutable():
    # every caller of probe() gets the same one
    desc = SimulatedFpga().probe()
    with pytest.raises(AttributeError):
        desc.ham_id = "other"
    assert HamDescriptor("a", "t").resources is not HamDescriptor("a", "t").resources


def test_process_before_configure_raises():
    ham = SimulatedFpga()
    with pytest.raises(NotConfiguredError):
        ham.process(b"x")


def test_configure_unknown_behavior_rejected():
    ham = SimulatedFpga()
    with pytest.raises(UnknownBehaviorError):
        ham.configure(HardwareImage(behavior="fft-radix2"))
    assert not ham.configured


def test_identity_behavior_passes_bytes_through():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="identity"))
    assert ham.process(b"ATD555\r") == b"ATD555\r"
    assert ham.process(b"") == b""


def test_upper_behavior_maps_ascii_case():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="upper"))
    assert ham.process(b"hello, World 123\n") == b"HELLO, WORLD 123\n"


def test_upper_behavior_leaves_non_letters_alone():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="upper"))
    raw = bytes(range(256))
    out = ham.process(raw)
    assert len(out) == len(raw)
    for i, (a, b) in enumerate(zip(raw, out)):
        if ord("a") <= a <= ord("z"):
            assert b == a - 32
        else:
            assert b == a


def test_modem_stub_behavior_is_transparent():
    # The AT interpreter runs on the platform side; the hardware image for
    # the modem is a plain pass-through so every byte still crosses it.
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="modem-stub"))
    payload = random.Random(3).randbytes(4096)
    assert ham.process(payload) == payload


@pytest.mark.parametrize("behavior", sorted(BEHAVIORS))
def test_every_behavior_is_deterministic_and_length_preserving(behavior):
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior=behavior))
    rng = random.Random(17)
    for _ in range(50):
        payload = rng.randbytes(rng.randrange(0, 2048))
        first = ham.process(payload)
        assert ham.process(payload) == first
        assert len(first) == len(payload)


def test_identity_property_random_bytes():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="identity"))
    rng = random.Random(23)
    for _ in range(200):
        payload = rng.randbytes(rng.randrange(0, 512))
        assert ham.process(payload) == payload


def test_reset_returns_to_unconfigured():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="identity"))
    assert ham.configured
    ham.reset()
    assert not ham.configured
    with pytest.raises(NotConfiguredError):
        ham.process(b"x")


def test_reconfigure_swaps_transform():
    ham = SimulatedFpga()
    ham.configure(HardwareImage(behavior="identity"))
    assert ham.process(b"abc") == b"abc"
    ham.configure(HardwareImage(behavior="upper"))
    assert ham.process(b"abc") == b"ABC"


def test_reconfigure_delay_is_honored():
    import time
    ham = SimulatedFpga(reconfigure_delay=0.05)
    t0 = time.monotonic()
    ham.configure(HardwareImage(behavior="identity"))
    assert time.monotonic() - t0 >= 0.05
