"""Platform core: registries, deployment arbitration, and the data pump.

The platform owns the bindings between loaded software modules, the
hardware abstraction modules they run on, the duplex channel carrying
their traffic, and the OS endpoint a native application opens.  Exactly
one deployment may hold a given device at a time; contenders are either
rejected or queued FIFO.  All mutating calls are meant to run on a
single thread of control (the platform loop when daemonized).
"""

from __future__ import annotations

import functools
import itertools
import logging
import select
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

from .channel import ChannelHandle, create_duplex
from .endpoint import BACKLOG_POLL, PtyEndpoint
from .errors import (
    ConfigureFailedError,
    DeploymentNotActiveError,
    DuplicateHamError,
    DuplicateModuleError,
    HardwareBusyError,
    NoCompatibleImplementationError,
    ProteusError,
    UnknownBehaviorError,
    UnknownDeploymentError,
    UnknownHamError,
    UnknownModuleError,
)
from .ham import Ham, HamDescriptor, HardwareImage
from .manifest import Implementation, ModuleManifest, load_manifest
from .modem import DialPlan, Modem, load_dial_plan
from .paths import proteus_dir
from .trace import TraceKind, TraceLog

logger = logging.getLogger(__name__)


class Policy(Enum):
    REJECT = "reject"
    QUEUE = "queue"


class DeploymentState(Enum):
    PENDING = "pending"
    ACTIVE = "active"
    STOPPING = "stopping"
    STOPPED = "stopped"


# --- platform-side module behaviors ----------------------------------------

class IdentityRuntime:
    """Pass-through module logic: hardware output goes straight back."""

    def handle_rx(self, data: bytes) -> tuple[bytes, list]:
        return data, []

    def poll(self) -> tuple[bytes, list]:
        return b"", []

    def accepts_input(self) -> bool:
        return True

    def watch(self, room: bool) -> None:
        return None

    def pump_timeout(self) -> float | None:
        return None

    def close(self) -> None:
        pass


class ModemRuntime(Modem):
    """The AT interpreter behind the hardware leg of the data path."""

    def __init__(self, config: dict, clock: Callable[[], float]):
        plan_path = config.get("dial_plan")
        super().__init__(dial_plan=load_dial_plan(plan_path) if plan_path else None,
                         clock=clock)

    def handle_rx(self, data: bytes) -> tuple[bytes, list]:
        result = self.feed(data)
        return result.to_app, result.events

    def poll(self) -> tuple[bytes, list]:
        result = self.carrier_pump()
        return result.to_app, result.events


RUNTIME_BEHAVIORS: dict[str, Callable] = {
    "identity": lambda config, clock: IdentityRuntime(),
    "modem": lambda config, clock: ModemRuntime(config, clock),
}


@dataclass
class Deployment:
    deployment_id: str
    module_id: str
    ham_id: str
    policy: Policy
    state: DeploymentState = DeploymentState.PENDING
    platform_handle: ChannelHandle | None = None
    endpoint: PtyEndpoint | None = None
    runtime: object | None = None
    out_pending: bytearray = field(default_factory=bytearray)
    bytes_dropped: int = 0


@dataclass
class PumpProgress:
    bytes_in: int = 0
    bytes_out: int = 0


def _default_endpoint_factory(deployment_id: str, app_handle: ChannelHandle,
                              name: str, link_dir: Path,
                              trace: TraceLog | None = None) -> PtyEndpoint:
    return PtyEndpoint(deployment_id, app_handle, name, link_dir, trace)


class Platform:
    """The platform core and its trace stream.

    ``endpoint_factory`` may be overridden for tests that do not need a
    real pseudo-terminal per deployment.
    """

    def __init__(self, runtime_dir: Path | str | None = None,
                 channel_capacity: int = 4096,
                 endpoint_factory: Callable | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self._endpoint_dir = proteus_dir(runtime_dir)
        self._capacity = channel_capacity
        self._clock = clock
        self.trace = TraceLog()
        self._endpoint_factory = endpoint_factory or functools.partial(
            _default_endpoint_factory, trace=self.trace)
        self._hams: dict[str, tuple[HamDescriptor, Ham]] = {}
        self._modules: dict[str, ModuleManifest] = {}
        self._deployments: dict[str, Deployment] = {}
        self._occupant: dict[str, str] = {}  # ham_id -> active deployment_id
        self._queues: dict[str, deque[str]] = {}
        self._ids = itertools.count()

    # -- registries ----------------------------------------------------------

    def register_ham(self, ham: Ham) -> str:
        """Register a hardware abstraction module; returns its ham_id."""
        descriptor = ham.probe()
        if not descriptor.hardware_type:
            raise ProteusError("descriptor hardware_type must be non-empty")
        if descriptor.ham_id in self._hams:
            raise DuplicateHamError(f"ham already registered: {descriptor.ham_id}")
        self._hams[descriptor.ham_id] = (descriptor, ham)
        self._queues.setdefault(descriptor.ham_id, deque())
        self.trace.emit(TraceKind.HAM_REGISTERED,
                        ham_id=descriptor.ham_id,
                        hardware_type=descriptor.hardware_type)
        return descriptor.ham_id

    def load_module(self, manifest: ModuleManifest) -> str:
        if manifest.module_id in self._modules:
            raise DuplicateModuleError(f"module already loaded: {manifest.module_id}")
        for i, impl in enumerate(manifest.implementations):
            if impl.behavior not in RUNTIME_BEHAVIORS:
                raise UnknownBehaviorError(
                    f"implementations[{i}].behavior {impl.behavior!r} is not a "
                    f"known module behavior ({', '.join(sorted(RUNTIME_BEHAVIORS))})")
        self._modules[manifest.module_id] = manifest
        self.trace.emit(TraceKind.MODULE_LOADED,
                        module_id=manifest.module_id,
                        display_name=manifest.display_name)
        return manifest.module_id

    def load_module_file(self, path: str) -> str:
        return self.load_module(load_manifest(path))

    @staticmethod
    def match_implementation(manifest: ModuleManifest,
                             descriptor: HamDescriptor) -> int:
        """First implementation compatible with the descriptor's hardware.

        Pure function; manifest authors control selection via ordering.
        """
        for i, impl in enumerate(manifest.implementations):
            if impl.hardware_type == descriptor.hardware_type:
                return i
        raise NoCompatibleImplementationError(
            f"module {manifest.module_id!r} has no implementation for "
            f"hardware type {descriptor.hardware_type!r}")

    # -- deployment lifecycle ------------------------------------------------

    def deploy(self, module_id: str, ham_id: str,
               policy: Policy = Policy.REJECT) -> str:
        """Bind a module to a device, or queue/reject if it is busy."""
        self.trace.emit(TraceKind.DEPLOY_REQUESTED,
                        module_id=module_id, ham_id=ham_id, policy=policy.value)
        manifest = self._modules.get(module_id)
        if manifest is None:
            raise UnknownModuleError(f"no such module: {module_id}")
        if ham_id not in self._hams:
            raise UnknownHamError(f"no such ham: {ham_id}")
        descriptor, _ = self._hams[ham_id]
        # compatibility is checked up front so a queued request cannot
        # turn out undeployable at activation time
        self.match_implementation(manifest, descriptor)

        if ham_id in self._occupant:
            if policy is Policy.REJECT:
                self.trace.emit(TraceKind.DEPLOY_REJECTED,
                                module_id=module_id, ham_id=ham_id,
                                reason="hardware-busy")
                raise HardwareBusyError(
                    f"ham {ham_id} is held by deployment {self._occupant[ham_id]}")
            deployment = self._new_deployment(module_id, ham_id, policy)
            self._queues[ham_id].append(deployment.deployment_id)
            self.trace.emit(TraceKind.DEPLOY_QUEUED,
                            deployment_id=deployment.deployment_id,
                            module_id=module_id, ham_id=ham_id,
                            position=len(self._queues[ham_id]))
            return deployment.deployment_id

        deployment = self._new_deployment(module_id, ham_id, policy)
        self._activate(deployment)
        return deployment.deployment_id

    def _new_deployment(self, module_id: str, ham_id: str, policy: Policy) -> Deployment:
        deployment = Deployment(
            deployment_id=f"d{next(self._ids)}",
            module_id=module_id,
            ham_id=ham_id,
            policy=policy,
        )
        self._deployments[deployment.deployment_id] = deployment
        return deployment

    def _activate(self, deployment: Deployment) -> None:
        manifest = self._modules[deployment.module_id]
        descriptor, ham = self._hams[deployment.ham_id]
        index = self.match_implementation(manifest, descriptor)
        impl = manifest.implementations[index]
        self.trace.emit(TraceKind.IMPLEMENTATION_MATCHED,
                        deployment_id=deployment.deployment_id,
                        module_id=deployment.module_id,
                        ham_id=deployment.ham_id,
                        index=index,
                        hardware_type=impl.hardware_type,
                        behavior=impl.behavior)
        try:
            ham.configure(HardwareImage(impl.image_behavior, impl.image_params))
        except ProteusError as exc:
            raise ConfigureFailedError(
                f"ham {deployment.ham_id} rejected image: {exc}") from exc

        app_handle, platform_handle = create_duplex(self._capacity)
        deployment.platform_handle = platform_handle
        name = manifest.config.get("endpoint_name") or (
            f"{deployment.module_id}-{deployment.ham_id}")
        try:
            try:
                deployment.runtime = RUNTIME_BEHAVIORS[impl.behavior](
                    manifest.config, self._clock)
            except ProteusError:
                raise
            except Exception as exc:
                raise ConfigureFailedError(
                    f"module behavior {impl.behavior!r} failed to start: {exc}") from exc
            deployment.endpoint = self._endpoint_factory(
                deployment.deployment_id, app_handle, name, self._endpoint_dir)
        except ProteusError:
            platform_handle.close()
            app_handle.close()
            ham.reset()
            raise
        self._occupant[deployment.ham_id] = deployment.deployment_id
        deployment.state = DeploymentState.ACTIVE
        self.trace.emit(TraceKind.DEPLOYED,
                        deployment_id=deployment.deployment_id,
                        module_id=deployment.module_id,
                        ham_id=deployment.ham_id)
        self.trace.emit(TraceKind.ENDPOINT_OPENED,
                        deployment_id=deployment.deployment_id,
                        name=name,
                        path=deployment.endpoint.os_path,
                        link=str(deployment.endpoint.link_path))
        logger.info("deployment %s active: %s on %s at %s",
                    deployment.deployment_id, deployment.module_id,
                    deployment.ham_id, deployment.endpoint.os_path)

    def undeploy(self, deployment_id: str) -> None:
        """Stop an active deployment and activate the next queued one."""
        deployment = self._deployments.get(deployment_id)
        if deployment is None:
            raise UnknownDeploymentError(f"no such deployment: {deployment_id}")
        if deployment.state is not DeploymentState.ACTIVE:
            raise DeploymentNotActiveError(
                f"deployment {deployment_id} is {deployment.state.value}, not active")
        deployment.state = DeploymentState.STOPPING
        self.pump(deployment_id, _allow_stopping=True)  # final flush
        deployment.endpoint.withdraw()
        deployment.platform_handle.close()
        deployment.runtime.close()
        _, ham = self._hams[deployment.ham_id]
        ham.reset()
        deployment.state = DeploymentState.STOPPED
        del self._occupant[deployment.ham_id]
        self.trace.emit(TraceKind.UNDEPLOYED,
                        deployment_id=deployment_id,
                        module_id=deployment.module_id,
                        ham_id=deployment.ham_id)
        queue = self._queues[deployment.ham_id]
        while queue:
            next_id = queue.popleft()
            nxt = self._deployments[next_id]
            try:
                self._activate(nxt)
                break
            except ProteusError as exc:
                nxt.state = DeploymentState.STOPPED
                self.trace.emit(TraceKind.DEPLOY_REJECTED,
                                deployment_id=next_id,
                                module_id=nxt.module_id,
                                ham_id=nxt.ham_id,
                                reason=exc.code)

    # -- data path -----------------------------------------------------------

    def pump(self, deployment_id: str, _allow_stopping: bool = False) -> PumpProgress:
        """Move what is ready PTY -> channel -> hardware -> module and back.

        Bytes the application wrote are run through the device image and
        the module behavior; whatever the module answers is written back
        toward the application and on to its PTY.  Everything runs on the
        caller's thread.  Intake is capped at one buffer's worth per pass
        so the loop stays fair across deployments; output goes on to the
        client for as long as it takes it, and once that makes room for
        intake held back behind it, or the module takes input again, the
        pass goes on with that too.
        """
        deployment = self._deployments.get(deployment_id)
        if deployment is None:
            raise UnknownDeploymentError(f"no such deployment: {deployment_id}")
        if deployment.state is not DeploymentState.ACTIVE and not _allow_stopping:
            raise DeploymentNotActiveError(
                f"deployment {deployment_id} is {deployment.state.value}, not active")

        progress = PumpProgress()
        notified = 0
        endpoint = deployment.endpoint
        endpoint.pump_once()
        while True:
            held_back = self._take_in(deployment, progress)
            # every notify makes room in the channel for more of out_pending
            while progress.bytes_out > notified:
                self.trace.emit(TraceKind.DATA_OUT, deployment_id=deployment_id,
                                bytes=progress.bytes_out - notified)
                notified = progress.bytes_out
                endpoint.notify()
                self._flush_out(deployment, progress)
            if not held_back or not self._takes_in(deployment):
                return progress
            endpoint.pump_once()  # the endpoint's intake can move again

    def _takes_in(self, deployment: Deployment) -> bool:
        return (len(deployment.out_pending) < self._capacity
                and deployment.runtime.accepts_input())

    def _take_in(self, deployment: Deployment, progress: PumpProgress) -> bool:
        """Run the application's bytes through hardware and module into
        ``out_pending``; True if intake was held back, by output backlog
        or by a module that takes no input for now."""
        self._flush_out(deployment, progress)
        held_back = not self._takes_in(deployment)
        events: list = []
        if not held_back:
            data = deployment.platform_handle.read(self._capacity)
            if data:
                progress.bytes_in += len(data)
                self.trace.emit(TraceKind.DATA_IN,
                                deployment_id=deployment.deployment_id, bytes=len(data))
                _, ham = self._hams[deployment.ham_id]
                to_app, events = deployment.runtime.handle_rx(ham.process(data))
                deployment.out_pending += to_app
        if len(deployment.out_pending) < self._capacity:  # else the module waits too
            to_app, evs = deployment.runtime.poll()
            deployment.out_pending += to_app
            events += evs
        self._flush_out(deployment, progress)
        for event in events:
            if event.get("kind") == "CommandParsed":
                detail = {k: v for k, v in event.items() if k != "kind"}
                self.trace.emit(TraceKind.COMMAND_PARSED,
                                deployment_id=deployment.deployment_id, **detail)
        return held_back

    def _flush_out(self, deployment: Deployment, progress: PumpProgress) -> None:
        if not deployment.out_pending:
            return
        try:
            accepted = deployment.platform_handle.write(bytes(deployment.out_pending))
        except ProteusError:
            # the application side is gone: nothing can deliver these
            dropped = len(deployment.out_pending)
            deployment.out_pending.clear()
            deployment.bytes_dropped += dropped
            self.trace.emit(TraceKind.DATA_DROPPED, deployment_id=deployment.deployment_id,
                            bytes=dropped, where="platform")
            return
        if accepted:
            del deployment.out_pending[:accepted]
            progress.bytes_out += accepted

    def pump_all(self) -> bool:
        """Pump every active deployment once; True if any bytes moved."""
        progressed = False
        for deployment_id in list(self._occupant.values()):
            p = self.pump(deployment_id)
            progressed = progressed or bool(p.bytes_in or p.bytes_out)
        return progressed

    def watch_fds(self) -> dict[int, tuple[str, int, object]]:
        """fd -> (deployment_id, epoll events, holder) for each fd whose
        readiness calls for a pump pass of that deployment.

        A deployment may have two: its PTY master and its TCP carrier.
        The holder is the object that owns the fd; once it closes, a new
        holder may get the same number, which a caller keeping epoll
        registrations must register afresh.
        """
        watched = {}
        for deployment_id in self._occupant.values():
            deployment = self._deployments[deployment_id]
            endpoint = deployment.endpoint
            fd = endpoint.watch_fd()
            if fd is not None:
                watched[fd] = (deployment_id, select.EPOLLIN, endpoint)
            carrier = deployment.runtime.watch(len(deployment.out_pending) < self._capacity)
            if carrier is not None:
                holder, events = carrier
                watched[holder.fileno()] = (deployment_id, events, holder)
        return watched

    def pump_timeout(self) -> float | None:
        """Seconds until a pump pass is due that no watched fd announces.

        None means none is due: the platform waits on I/O alone.  A
        timeout comes from an endpoint looking for a client, the modem's
        escape guard time or connect timeout, or output held back by a
        full channel.  The polls count from now, so a caller that pumps only
        the deployments whose fd fired keeps the earliest deadline until
        it has called :meth:`pump_all`.
        """
        timeouts = []
        for deployment_id in self._occupant.values():
            deployment = self._deployments[deployment_id]
            timeouts.append(deployment.endpoint.pump_timeout())
            timeouts.append(deployment.runtime.pump_timeout())
            if deployment.out_pending:
                timeouts.append(BACKLOG_POLL)
        return min((t for t in timeouts if t is not None), default=None)

    # -- introspection -------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._occupant)

    def deployment_info(self, deployment_id: str) -> dict:
        deployment = self._deployments.get(deployment_id)
        if deployment is None:
            raise UnknownDeploymentError(f"no such deployment: {deployment_id}")
        info = {
            "module_id": deployment.module_id,
            "ham_id": deployment.ham_id,
            "state": deployment.state.value,
        }
        if deployment.endpoint is not None:
            info["endpoint"] = deployment.endpoint.os_path
            info["link"] = str(deployment.endpoint.link_path)
        return info

    def status(self) -> dict:
        """Snapshot of hams, modules, deployments, and queue depths."""
        hams = []
        for ham_id, (descriptor, _) in sorted(self._hams.items()):
            hams.append({
                "ham_id": ham_id,
                "hardware_type": descriptor.hardware_type,
                "resources": dict(descriptor.resources),
                "busy": ham_id in self._occupant,
                "active_deployment": self._occupant.get(ham_id),
                "queue_depth": len(self._queues.get(ham_id, ())),
            })
        modules = []
        for module_id, manifest in sorted(self._modules.items()):
            modules.append({
                "module_id": module_id,
                "display_name": manifest.display_name,
                "implementations": [
                    {"hardware_type": impl.hardware_type, "behavior": impl.behavior}
                    for impl in manifest.implementations
                ],
            })
        deployments = []
        for deployment in self._deployments.values():
            entry = {
                "deployment_id": deployment.deployment_id,
                "module_id": deployment.module_id,
                "ham_id": deployment.ham_id,
                "state": deployment.state.value,
                "policy": deployment.policy.value,
            }
            if deployment.endpoint is not None and deployment.state is DeploymentState.ACTIVE:
                entry["endpoint"] = deployment.endpoint.snapshot()
                entry["bytes_dropped"] = deployment.bytes_dropped
            deployments.append(entry)
        return {
            "hams": hams,
            "modules": modules,
            "deployments": deployments,
            "queue_depth": sum(len(q) for q in self._queues.values()),
        }

    def shutdown(self) -> None:
        """Undeploy everything that is still active."""
        # undeploying can activate a queued deployment, which goes too
        while self._occupant:
            self.undeploy(next(iter(self._occupant.values())))
