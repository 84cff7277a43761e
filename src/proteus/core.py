"""Platform core: registries, deployment arbitration, and the data pump.

The platform owns the bindings between loaded software modules, the
hardware abstraction modules they run on, the duplex channel carrying
their traffic, and the OS endpoint a native application opens.  Exactly
one deployment may hold a given device at a time; contenders are either
rejected or queued FIFO.  All mutating calls are meant to run on a
single thread of control (the platform loop when daemonized).

Each active deployment waits on up to two fds (its PTY master and its
TCP carrier) and on one absolute deadline, the earliest pass that no fd
announces.  They are worked out at the end of the deployment's own pass,
and on deploy and undeploy, and a watcher (the platform loop) hears of
them only when they change; see :meth:`Platform.set_watcher`.
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
from typing import Callable, ClassVar

from .channel import ChannelHandle, create_duplex
from .control import EncodedDict
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
from .modem import DialPlan, FeedResult, Modem, load_dial_plan
from .paths import proteus_dir
from .trace import TraceKind, TraceLog

logger = logging.getLogger(__name__)

# stopped deployments kept for ``status`` and lookups; the oldest go first
MAX_TOMBSTONES = 1024


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
    """Pass-through module logic: hardware output goes straight back.

    A module behavior has the :class:`~proteus.modem.Modem`'s interface:
    ``feed`` takes what the hardware produced, ``carrier_pump`` what no
    input brings, and both return a :class:`~proteus.modem.FeedResult`.
    """

    def feed(self, data: bytes) -> FeedResult:
        return FeedResult(data)

    def carrier_pump(self) -> FeedResult:
        return FeedResult()

    def accepts_input(self) -> bool:
        return True

    def watch(self, room: bool) -> None:
        return None

    def deadline(self) -> float | None:
        return None

    def close(self) -> None:
        pass


class ModemRuntime(Modem):
    """The AT interpreter behind the hardware leg of the data path."""

    def __init__(self, config: dict, clock: Callable[[], float]):
        plan_path = config.get("dial_plan")
        super().__init__(dial_plan=load_dial_plan(plan_path) if plan_path else None,
                         clock=clock)


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

    def status_entry(self) -> dict:
        entry = {
            "deployment_id": self.deployment_id,
            "module_id": self.module_id,
            "ham_id": self.ham_id,
            "state": self.state.value,
            "policy": self.policy.value,
        }
        if self.endpoint is not None and self.state is DeploymentState.ACTIVE:
            entry["endpoint"] = self.endpoint.snapshot()
            entry["bytes_dropped"] = self.bytes_dropped
        return entry


@dataclass(slots=True)
class Tombstone:
    """What is kept of a stopped deployment: no channel, endpoint or
    runtime, only who it was and its ``status`` entry, encoded once."""

    deployment_id: str
    module_id: str
    ham_id: str
    policy: Policy
    entry: EncodedDict
    state: ClassVar[DeploymentState] = DeploymentState.STOPPED

    @classmethod
    def of(cls, deployment: Deployment) -> Tombstone:
        return cls(deployment.deployment_id, deployment.module_id, deployment.ham_id,
                   deployment.policy, EncodedDict(deployment.status_entry()))

    def status_entry(self) -> EncodedDict:
        return self.entry


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
    real pseudo-terminal per deployment.  Deadlines are on
    ``time.monotonic``, which ``clock``, the modules' clock, must then be
    for a loop to keep them.
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
        # in id order; a stopped one is a tombstone until MAX_TOMBSTONES
        # later ones push it out
        self._deployments: dict[str, Deployment | Tombstone] = {}
        self._tombstones: deque[str] = deque()  # ids, oldest stopped first
        self._occupant: dict[str, str] = {}  # ham_id -> active deployment_id
        self._queues: dict[str, deque[str]] = {}
        self._ids = itertools.count()
        # deployment id -> (fds, deadline) as last reported, for each one
        # that waits on something; see set_watcher
        self._watching: dict[str, tuple[dict, float | None]] = {}
        self._on_watch: Callable = lambda deployment_id, fds, deadline: None
        # stopped deployments' endpoints whose client still reads the tail
        self._draining: dict[str, PtyEndpoint] = {}

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
        try:
            self._activate(deployment)
        except ProteusError:
            self._bury(deployment)
            raise
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
        self._rewatch(deployment)
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
        self._pass(deployment)  # final flush
        self._report(deployment_id, {}, None)  # while its fds are still open
        if deployment.endpoint.withdraw():
            # the client reads the tail on its own time, not the loop's
            self._draining[deployment_id] = deployment.endpoint
            self._report(deployment_id, {}, deployment.endpoint.watch()[1])
        deployment.platform_handle.close()
        deployment.runtime.close()
        _, ham = self._hams[deployment.ham_id]
        ham.reset()
        self._bury(deployment)
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
                self._bury(nxt)
                self.trace.emit(TraceKind.DEPLOY_REJECTED,
                                deployment_id=next_id,
                                module_id=nxt.module_id,
                                ham_id=nxt.ham_id,
                                reason=exc.code)

    def _bury(self, deployment: Deployment) -> None:
        """Replace a deployment that is done with its tombstone."""
        deployment.state = DeploymentState.STOPPED
        self._deployments[deployment.deployment_id] = Tombstone.of(deployment)
        self._tombstones.append(deployment.deployment_id)
        if len(self._tombstones) > MAX_TOMBSTONES:
            del self._deployments[self._tombstones.popleft()]

    # -- data path -----------------------------------------------------------

    def pump(self, deployment_id: str) -> PumpProgress:
        """Move what is ready PTY -> channel -> hardware -> module and back.

        Bytes the application wrote are run through the device image and
        the module behavior; whatever the module answers is written back
        toward the application and on to its PTY.  Everything runs on the
        caller's thread.  Intake is capped at one buffer's worth per pass
        so the loop stays fair across deployments; output goes on to the
        client for as long as it takes it, and once that makes room for
        intake held back behind it, or the module takes input again, the
        pass goes on with that too.  So does input the endpoint holds for
        want of channel room once the pass has taken from the channel.
        The bytes a pass moves are counted in the endpoint's ``status``
        entry, not traced.  Last, the pass works out what the deployment
        waits on next.
        """
        deployment = self._deployments.get(deployment_id)
        if deployment is None:
            raise UnknownDeploymentError(f"no such deployment: {deployment_id}")
        if deployment.state is not DeploymentState.ACTIVE:
            raise DeploymentNotActiveError(
                f"deployment {deployment_id} is {deployment.state.value}, not active")
        progress = self._pass(deployment)
        self._rewatch(deployment)
        return progress

    def _pass(self, deployment: Deployment) -> PumpProgress:
        progress = PumpProgress()
        notified = 0
        endpoint = deployment.endpoint
        endpoint.pump_once()
        while True:
            taken = progress.bytes_in
            held_back = self._take_in(deployment, progress)
            # every notify makes room in the channel for more of out_pending
            while progress.bytes_out > notified:
                notified = progress.bytes_out
                endpoint.notify()
                if deployment.out_pending:
                    self._flush_out(deployment, progress)
            if held_back:
                if not self._takes_in(deployment):
                    return progress
            elif progress.bytes_in == taken or not endpoint.holds_input:
                # input the endpoint holds waits for channel room, which
                # nothing but this taking announces
                return progress
            endpoint.pump_once()  # the endpoint's intake can move again

    def _takes_in(self, deployment: Deployment) -> bool:
        return (len(deployment.out_pending) < self._capacity
                and deployment.runtime.accepts_input())

    def _take_in(self, deployment: Deployment, progress: PumpProgress) -> bool:
        """Run the application's bytes through hardware and module into
        ``out_pending``; True if intake was held back, by output backlog
        or by a module that takes no input for now."""
        if deployment.out_pending:
            self._flush_out(deployment, progress)
        held_back = not self._takes_in(deployment)
        events: list = []
        if not held_back and deployment.platform_handle.readable:
            data = deployment.platform_handle.read(self._capacity)
            progress.bytes_in += len(data)
            _, ham = self._hams[deployment.ham_id]
            result = deployment.runtime.feed(ham.process(data))
            deployment.out_pending += result.to_app
            events = result.events
        if len(deployment.out_pending) < self._capacity:  # else the module waits too
            result = deployment.runtime.carrier_pump()
            deployment.out_pending += result.to_app
            events += result.events
        if deployment.out_pending:
            self._flush_out(deployment, progress)
        for event in events:
            self.trace.emit(TraceKind.COMMAND_PARSED,
                            deployment_id=deployment.deployment_id, **event)
        return held_back

    def _flush_out(self, deployment: Deployment, progress: PumpProgress) -> None:
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
        """Pump every active deployment once, and look at each withdrawn
        endpoint's client; True if any bytes moved."""
        progressed = False
        for deployment_id in list(self._occupant.values()):
            p = self.pump(deployment_id)
            progressed = progressed or bool(p.bytes_in or p.bytes_out)
        for deployment_id in list(self._draining):
            self.pump_due(deployment_id)
        return progressed

    def pump_due(self, deployment_id: str) -> None:
        """Serve a deadline reported for ``deployment_id`` that has come:
        a pump pass while it is active, a look at the client of its
        withdrawn endpoint once it has stopped."""
        endpoint = self._draining.get(deployment_id)
        if endpoint is None:
            self.pump(deployment_id)
        elif endpoint.linger():
            self._report(deployment_id, {}, endpoint.watch()[1])
        else:
            del self._draining[deployment_id]
            self._report(deployment_id, {}, None)

    # -- what a loop waits on --------------------------------------------------

    def set_watcher(self, on_watch: Callable[[str, dict, float | None], None]) -> None:
        """Call ``on_watch(deployment_id, fds, deadline)`` for what each
        deployment waits on now, and again whenever that changes.

        ``fds`` maps each fd whose readiness calls for a pump pass of the
        deployment to (epoll events, holder), where the holder is the
        object that owns the fd; once it closes, a new holder may get the
        same number, which the watcher must register afresh.  A
        deployment may have two: its PTY master and its TCP carrier.
        ``deadline`` is when, on ``time.monotonic``, :meth:`pump_due` is
        due, or None.  A deployment that stops reports no fds before
        they close, and a deadline only while its endpoint's client still
        reads the tail.
        """
        self._on_watch = on_watch
        for deployment_id, (fds, deadline) in self._watching.items():
            on_watch(deployment_id, fds, deadline)

    def _rewatch(self, deployment: Deployment) -> None:
        """Work out what ``deployment`` waits on; report it if that changed."""
        endpoint, runtime = deployment.endpoint, deployment.runtime
        fd, deadline = endpoint.watch()
        fds = {} if fd is None else {fd: (select.EPOLLIN, endpoint)}
        carrier = runtime.watch(len(deployment.out_pending) < self._capacity)
        if carrier is not None:
            holder, events = carrier
            fds[holder.fileno()] = (events, holder)
        # output held back behind a full channel waits on the endpoint's
        # own backlog, whose retry its deadline names
        due = runtime.deadline()
        if due is not None and (deadline is None or due < deadline):
            deadline = due
        if (fds, deadline) != self._watching.get(deployment.deployment_id, ({}, None)):
            self._report(deployment.deployment_id, fds, deadline)

    def _report(self, deployment_id: str, fds: dict, deadline: float | None) -> None:
        if fds or deadline is not None:
            self._watching[deployment_id] = (fds, deadline)
        else:
            self._watching.pop(deployment_id, None)
        self._on_watch(deployment_id, fds, deadline)

    def watch_fds(self) -> dict[int, tuple[str, int, object]]:
        """fd -> (deployment_id, epoll events, holder) for each fd whose
        readiness calls for a pump pass of that deployment, as last
        reported (see :meth:`set_watcher`)."""
        return {fd: (deployment_id, events, holder)
                for deployment_id, (fds, _) in self._watching.items()
                for fd, (events, holder) in fds.items()}

    def pump_timeout(self) -> float | None:
        """Seconds until the earliest reported deadline, or None.

        None means none is due: the platform waits on I/O alone.  A
        deadline comes from an endpoint looking for a client, retrying
        output a full PTY held back or waiting for a withdrawn client to
        read its tail, or from the modem's escape guard time or connect
        timeout.  Each is absolute and reported when it changes (see
        :meth:`set_watcher`); only this answer counts from now.
        """
        deadlines = [deadline for _, deadline in self._watching.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

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
        if isinstance(deployment, Deployment) and deployment.endpoint is not None:
            info["endpoint"] = deployment.endpoint.os_path
            info["link"] = str(deployment.endpoint.link_path)
        return info

    def status(self) -> dict:
        """Snapshot of hams, modules, deployments, and queue depths.

        Deployments are listed in id order; of the stopped ones, only the
        last ``MAX_TOMBSTONES`` are kept.  A stopped one's entry is a
        read-only :class:`~proteus.control.EncodedDict`, the same each call.
        """
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
        deployments = [d.status_entry() for d in self._deployments.values()]
        for deployment_id in self._occupant.values():
            # the entries sampled each endpoint's attachment
            self._rewatch(self._deployments[deployment_id])
        return {
            "hams": hams,
            "modules": modules,
            "deployments": deployments,
            "queue_depth": sum(len(q) for q in self._queues.values()),
        }

    def shutdown(self) -> None:
        """Undeploy everything that is still active, and wait, within
        each endpoint's ``DRAIN_WAIT``, for clients to read their tails."""
        # undeploying can activate a queued deployment, which goes too
        while self._occupant:
            self.undeploy(next(iter(self._occupant.values())))
        while self._draining:
            time.sleep(BACKLOG_POLL)
            for deployment_id in list(self._draining):
                self.pump_due(deployment_id)
