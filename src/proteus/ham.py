"""Hardware abstraction layer plus a simulated reconfigurable device.

The real platform targets FPGA boards; this stand-in accepts "algorithm
images" that are plain byte transforms, which keeps the full deployment
and data path intact without hardware.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

from .errors import NotConfiguredError, UnknownBehaviorError


class HamDescriptor(NamedTuple("HamDescriptor", [("ham_id", str), ("hardware_type", str),
                                                 ("resources", dict)])):
    """What a hardware abstraction module reports about its device:
    immutable, as every caller gets the same one.  ``resources`` defaults
    to a fresh dict, which a ``NamedTuple`` field default cannot give,
    hence the ``__new__``."""

    __slots__ = ()

    def __new__(cls, ham_id: str, hardware_type: str, resources: dict | None = None):
        return tuple.__new__(cls, (ham_id, hardware_type, {} if resources is None else resources))


class HardwareImage(NamedTuple("HardwareImage", [("behavior", str), ("params", dict)])):
    """The blob deployed onto a device: a behavior tag plus parameters,
    which none of the simulated device's behaviors takes.  ``params``
    defaults to a fresh dict."""

    __slots__ = ()

    def __new__(cls, behavior: str, params: dict | None = None):
        return tuple.__new__(cls, (behavior, {} if params is None else params))


class Ham(ABC):
    """Contract every hardware abstraction module implements."""

    @abstractmethod
    def probe(self) -> HamDescriptor:
        """Describe the device.  Stable across calls for one instance."""

    @abstractmethod
    def configure(self, image: HardwareImage) -> None:
        """Load an algorithm image.  Only valid while no deployment is active."""

    @abstractmethod
    def process(self, data: bytes) -> bytes:
        """Run the configured image over a byte sequence."""

    @abstractmethod
    def reset(self) -> None:
        """Return to the unconfigured state."""


def _unconfigured(data: bytes) -> bytes:
    raise NotConfiguredError("device has no image configured")


# each image behavior's byte transform.  "modem-stub" is identity on
# purpose: the AT interpreter lives in the modem software module on the
# platform side, not in the hardware.  ``bytes`` of a bytes object is
# that object, not a copy.
BEHAVIORS: dict[str, Callable[[bytes], bytes]] = {
    "identity": bytes,
    "upper": bytes.upper,
    "modem-stub": bytes,
}


class SimulatedFpga(Ham):
    """In-process reconfigurable device applying pure byte transforms.

    ``reconfigure_delay`` simulates the time a real device takes to load
    an image (seconds, default 0).
    """

    def __init__(self, ham_id: str = "sim0", hardware_type: str = "sim-fpga-v1",
                 resources: dict | None = None, reconfigure_delay: float = 0.0):
        self._descriptor = HamDescriptor(
            ham_id=ham_id,
            hardware_type=hardware_type,
            resources=dict(resources or {"cells": "250k", "block-ram": "936kb"}),
        )
        self._reconfigure_delay = reconfigure_delay
        self._image: HardwareImage | None = None
        self._transform: Callable[[bytes], bytes] = _unconfigured

    def probe(self) -> HamDescriptor:
        return self._descriptor

    def configure(self, image: HardwareImage) -> None:
        transform = BEHAVIORS.get(image.behavior)
        if transform is None:
            raise UnknownBehaviorError(
                f"no such hardware behavior: {image.behavior!r} "
                f"(known: {', '.join(sorted(BEHAVIORS))})"
            )
        if self._reconfigure_delay > 0:
            time.sleep(self._reconfigure_delay)
        self._image = image
        self._transform = transform

    def process(self, data: bytes) -> bytes:
        return self._transform(data)

    def reset(self) -> None:
        self._image = None
        self._transform = _unconfigured

    @property
    def configured(self) -> bool:
        return self._image is not None
