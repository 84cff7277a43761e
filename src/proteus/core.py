"""Platform core: registries, deployment arbitration, and the data pump.

The platform owns the bindings between loaded software modules, the
hardware abstraction modules they run on, the duplex channel carrying
their traffic, and the OS endpoint a native application opens.  Exactly
one deployment may hold a given device at a time; contenders are either
rejected or queued FIFO.  All mutating calls are meant to run on a
single thread of control (the platform loop when daemonized).

Each active deployment waits on up to two fds (its PTY master and its
TCP carrier) and on one absolute deadline, the earliest pass that no fd
announces.  They are worked out on deploy and undeploy, and at the end
of a pass after which the endpoint's or the module's ``version`` has
moved on.  The platform keeps them itself: the fds on its one epoll, the
deadlines in a dict.  Deadlines are few, and none is a poll: only an
endpoint with no client, a withdrawn endpoint's ``DRAIN_WAIT``, and a
modem's guard time and connect timeout set any.  A stopped deployment
whose client still reads the tail keeps its PTY master on the epoll
until it closes it; a module whose output the platform has no room for
waits on nothing until the master reports room.  Other fds share that
epoll through
:meth:`Platform.add_reader`; the daemon's wake pipe, control listener
and control connections do.  :meth:`Platform.serve` makes one
``epoll_wait`` per wake-up: it runs the ready readers' handlers, then the
passes that are due.  An embedder nests the platform in its own loop
instead through one fd: wait until :meth:`Platform.fileno` is readable
or :meth:`Platform.timeout` has passed, then call ``serve()``.

With the default endpoint factory a deploy takes a PTY opened ahead of
it, a :class:`~proteus.endpoint.SparePty`, and only publishes the link.
The platform opens the spare at the end of a ``serve()`` wake-up that
called no reader handler, so that a control request right behind the
deploy does not wait for it, and tries once per spare taken: a deploy
that found none, out of fds for one, opens its PTY itself.
:meth:`Platform.shutdown` closes a spare no deploy took.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import select
import time
from collections import deque
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from .channel import ChannelHandle, create_duplex
from .control import EncodedDict, EncodedList, encoded, frozen
from .endpoint import PtyEndpoint, SparePty
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
    input brings while ``carrier`` is not None, and both return a
    :class:`~proteus.modem.FeedResult`.  ``watch``, ``deadline`` and
    ``accepts_input`` are looked at again once ``version`` moves on;
    ``watch`` and ``deadline`` only while the platform has room for the
    module's output.  ``close`` returns the bytes for the peer that the
    carrier took with it.  This one has no carrier, always takes input
    and never changes.
    """

    carrier = None
    accepts_input = True
    version = 0

    def feed(self, data: bytes) -> FeedResult:
        return FeedResult(data)

    def watch(self) -> None:
        return None

    def deadline(self) -> float | None:
        return None

    def close(self) -> int:
        return 0


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


class Deployment:
    """A deployment until it stops: what it binds, and its data path."""

    __slots__ = ("deployment_id", "module_id", "ham_id", "policy", "state",
                 "platform_handle", "endpoint", "runtime", "out_pending",
                 "bytes_dropped", "seen")

    def __init__(self, deployment_id: str, module_id: str, ham_id: str, policy: Policy):
        self.deployment_id = deployment_id
        self.module_id = module_id
        self.ham_id = ham_id
        self.policy = policy
        self.state = DeploymentState.PENDING
        self.platform_handle: ChannelHandle | None = None
        self.endpoint: PtyEndpoint | None = None
        self.runtime: object | None = None
        self.out_pending = bytearray()
        self.bytes_dropped = 0
        # (endpoint version, runtime version, output room) when last watched
        self.seen: tuple | None = None

    def status_entry(self) -> EncodedDict:
        """This deployment's ``status`` entry, with its text; an active
        one's holds its endpoint's, sampled now."""
        entry = {
            "deployment_id": self.deployment_id,
            "module_id": self.module_id,
            "ham_id": self.ham_id,
            "state": self.state.value,
            "policy": self.policy.value,
        }
        text = ('{"deployment_id": %s, "module_id": %s, "ham_id": %s, "state": %s, '
                '"policy": %s' % tuple(map(encode_basestring_ascii, entry.values()))).encode()
        if self.endpoint is None or self.state is not DeploymentState.ACTIVE:
            return EncodedDict(entry, text + b"}")
        entry["endpoint"] = endpoint = self.endpoint.snapshot()
        entry["bytes_dropped"] = self.bytes_dropped
        return EncodedDict(entry, b'%s, "endpoint": %s, "bytes_dropped": %d}' % (
            text, encoded(endpoint), self.bytes_dropped))


class Tombstone:
    """What is kept of a stopped deployment: no channel, endpoint or
    runtime, only who it was and its ``status`` entry, encoded once."""

    __slots__ = ("deployment_id", "module_id", "ham_id", "policy", "entry")
    state = DeploymentState.STOPPED

    def __init__(self, deployment_id: str, module_id: str, ham_id: str, policy: Policy,
                 entry: EncodedDict):
        self.deployment_id = deployment_id
        self.module_id = module_id
        self.ham_id = ham_id
        self.policy = policy
        self.entry = entry

    @classmethod
    def of(cls, deployment: Deployment) -> Tombstone:
        return cls(deployment.deployment_id, deployment.module_id, deployment.ham_id,
                   deployment.policy, deployment.status_entry())


def _number(deployment_id: str) -> int:
    return int(deployment_id[1:])  # "d<n>"


class StoppedEntries:
    """The kept tombstones' ``status`` entries in id order, and their
    texts joined by ``", "`` into one, so that ``status`` lists them with
    no work of its own per entry.

    A deployment usually stops after every one with a lower id has, so
    its entry usually goes last, which copies the text once; and the
    oldest stopped usually has the lowest id, so evicting it costs
    nothing until the next entry drops its text.  Otherwise the text is
    joined afresh.
    """

    def __init__(self):
        self.numbers: list[int] = []  # of the entries' ids, ascending
        self.entries: list[EncodedDict] = []
        self.text = b""  # may begin with an evicted entry's text
        self.starts: list[int] = []  # where each entry's text starts, less origin
        self.origin = 0  # where text starts

    def add(self, deployment_id: str, entry: EncodedDict) -> None:
        number = _number(deployment_id)
        i = bisect.bisect(self.numbers, number)
        self.numbers.insert(i, number)
        self.entries.insert(i, entry)
        if i < len(self.numbers) - 1:
            self._join()
        elif i == 0:  # the only one
            self.text, self.starts, self.origin = entry.json, [0], 0
        else:
            kept = memoryview(self.text)[self.starts[0] - self.origin:]
            self.starts.append(self.origin + len(self.text) + 2)
            self.origin = self.starts[0]
            self.text = b"".join((kept, b", ", entry.json))

    def remove(self, deployment_id: str) -> None:
        i = bisect.bisect_left(self.numbers, _number(deployment_id))
        del self.numbers[i], self.entries[i], self.starts[i]
        if i > 0 or not self.entries:
            self._join()

    def _join(self) -> None:
        texts = [entry.json for entry in self.entries]
        self.text = b", ".join(texts)
        self.starts = list(itertools.accumulate((len(text) + 2 for text in texts),
                                                initial=0))[:-1]
        self.origin = 0

    def position(self, deployment_id: str) -> int:
        """How many of the entries list before ``deployment_id``."""
        return bisect.bisect(self.numbers, _number(deployment_id))

    def text_of(self, start: int, end: int):
        """The text of the entries from ``start`` up to ``end``, uncopied."""
        last = len(self.text) if end == len(self.starts) else self.starts[end] - self.origin - 2
        return memoryview(self.text)[self.starts[start] - self.origin:last]


class PumpProgress:
    __slots__ = ("bytes_in", "bytes_out")

    def __init__(self, bytes_in: int = 0, bytes_out: int = 0):
        self.bytes_in = bytes_in
        self.bytes_out = bytes_out


def _default_endpoint_factory(deployment_id: str, app_handle: ChannelHandle,
                              name: str, link_dir: str,
                              trace: TraceLog | None,
                              pty: Callable[[], tuple[int, str]]) -> PtyEndpoint:
    return PtyEndpoint(deployment_id, app_handle, name, link_dir, pty(), trace)


class Platform:
    """The platform core and its trace stream.

    ``endpoint_factory`` may be overridden for tests that do not need a
    real pseudo-terminal per deployment.  Deadlines, the modules' too,
    are on ``time.monotonic``.
    """

    def __init__(self, runtime_dir: Path | str | None = None,
                 channel_capacity: int = 4096,
                 endpoint_factory: Callable | None = None):
        self._endpoint_dir = str(proteus_dir(runtime_dir))
        self._capacity = channel_capacity
        self.trace = TraceLog()
        self._spare: SparePty | None = None  # opened ahead of a deploy (see serve)
        if endpoint_factory is None:
            self._spare = SparePty()
            # looked up now, by name: a wrapper installed before the
            # platform is built sees every endpoint open
            endpoint_factory = functools.partial(
                _default_endpoint_factory, trace=self.trace, pty=self._spare.take)
        self._endpoint_factory = endpoint_factory
        self._hams: dict[str, tuple[HamDescriptor, Ham]] = {}
        self._modules: dict[str, ModuleManifest] = {}
        # a stopped one is a tombstone until MAX_TOMBSTONES later ones
        # push it out
        self._deployments: dict[str, Deployment | Tombstone] = {}
        self._live: dict[str, Deployment] = {}  # those not stopped, in id order
        self._tombstones: deque[str] = deque()  # ids, oldest stopped first
        self._stopped = StoppedEntries()  # the tombstones' status entries
        # parts of the status kept encoded until they change (see status):
        # each ham's fields that registering fixes, with their text
        self._ham_heads: list[tuple[EncodedDict, bytes]] | None = None
        self._hams_status: tuple[tuple, EncodedList] | None = None  # (occupancy, hams)
        self._modules_status: EncodedList | None = None
        self._occupant: dict[str, str] = {}  # ham_id -> active deployment_id
        self._queues: dict[str, deque[str]] = {}
        self._ids = itertools.count()
        # what each deployment waits on (see _rewatch): its fds, registered
        # on _epoll, and its deadline, in _deadlines
        self._epoll = select.epoll()
        self._readers: dict[int, Callable[[], None]] = {}  # other fds on _epoll
        # deployment id -> fd -> (epoll events, holder)
        self._watched: dict[str, dict[int, tuple[int, object]]] = {}
        self._owner: dict[int, str] = {}  # registered fd -> its deployment id
        self._deadlines: dict[str, float] = {}
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
        self._ham_heads = None
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
        self._modules_status = None
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
        self._live[deployment.deployment_id] = deployment
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
                    manifest.config, time.monotonic)
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
                        link=deployment.endpoint.link_path)
        logger.debug("deployment %s active: %s on %s at %s",
                    deployment.deployment_id, deployment.module_id,
                    deployment.ham_id, deployment.endpoint.os_path)

    def undeploy(self, deployment_id: str) -> None:
        """Stop an active deployment and activate the next queued one."""
        self.pump(deployment_id)  # final flush; raises unless it is active
        deployment = self._deployments[deployment_id]
        deployment.state = DeploymentState.STOPPING
        self._watch(deployment_id, ())  # while its fds are still open
        # what the channel holds for the module, module output it had no
        # room for, and what the module's carrier holds for the peer go
        # with them
        for where, lost in (("channel", deployment.platform_handle.readable),
                            ("platform", len(deployment.out_pending)),
                            ("carrier", deployment.runtime.close())):
            if lost:
                self._dropped(deployment, lost, where)
        deadline = None
        if deployment.endpoint.withdraw():
            # the client reads the tail on its own time, not the loop's
            self._draining[deployment_id] = deployment.endpoint
            master, deadline = deployment.endpoint.watch()
            self._watch(deployment_id, (master,))
        self._set_deadline(deployment_id, deadline)
        deployment.platform_handle.close()
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
        deployment_id = deployment.deployment_id
        deployment.state = DeploymentState.STOPPED
        tombstone = Tombstone.of(deployment)
        self._deployments[deployment_id] = tombstone
        del self._live[deployment_id]
        self._tombstones.append(deployment_id)
        self._stopped.add(deployment_id, tombstone.entry)
        if len(self._tombstones) > MAX_TOMBSTONES:
            evicted = self._tombstones.popleft()
            del self._deployments[evicted]
            self._stopped.remove(evicted)

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
        entry, not traced.  Last, once the endpoint's or the module's
        ``version`` or the output's room changed, the pass works out what
        the deployment waits on next.
        """
        deployment = self._deployments.get(deployment_id)
        if deployment is None:
            raise UnknownDeploymentError(f"no such deployment: {deployment_id}")
        if deployment.state is not DeploymentState.ACTIVE:
            raise DeploymentNotActiveError(
                f"deployment {deployment_id} is {deployment.state.value}, not active")
        endpoint, runtime = deployment.endpoint, deployment.runtime
        handle, out = deployment.platform_handle, deployment.out_pending
        capacity = self._capacity
        taken = moved = notified = 0
        endpoint.pump_once()
        while True:
            intake = taken
            events = ()
            held_back = len(out) >= capacity or not runtime.accepts_input
            if not held_back:
                data = handle.read(capacity)
                if data:
                    taken += len(data)
                    result = runtime.feed(self._hams[deployment.ham_id][1].process(data))
                    out += result.to_app
                    events = result.events
                    if result.dropped:
                        self._dropped(deployment, result.dropped, "carrier")
            if runtime.carrier is not None and len(out) < capacity:  # else the module waits too
                result = runtime.carrier_pump()
                out += result.to_app
                if result.events:
                    events = [*events, *result.events]
                if result.dropped:
                    self._dropped(deployment, result.dropped, "carrier")
            # every notify makes room in the channel for more of out_pending
            while True:
                if out:
                    try:
                        accepted = handle.write(out)
                        moved += accepted
                    except ProteusError:
                        # the application side is gone: nothing can deliver these
                        accepted = len(out)
                        self._dropped(deployment, accepted, "platform")
                    del out[:accepted]
                if moved == notified:
                    break
                notified = moved
                endpoint.notify()
            for event in events:
                self.trace.emit(TraceKind.COMMAND_PARSED, deployment_id=deployment_id, **event)
            if held_back:
                if len(out) >= capacity or not runtime.accepts_input:
                    break
            elif taken == intake or not endpoint.holds_input:
                # input the endpoint holds waits for channel room, which
                # nothing but this taking announces
                break
            endpoint.pump_once()  # the endpoint's intake can move again
        if deployment.seen != (endpoint.version, runtime.version, len(out) < capacity):
            self._rewatch(deployment)
        return PumpProgress(taken, moved)

    def _dropped(self, deployment: Deployment, count: int, where: str) -> None:
        deployment.bytes_dropped += count
        self.trace.emit(TraceKind.DATA_DROPPED, deployment_id=deployment.deployment_id,
                        bytes=count, where=where)

    def pump_all(self) -> bool:
        """Pump every active deployment once, and look at each withdrawn
        endpoint's client; True if any bytes moved."""
        progressed = False
        for deployment_id in list(self._occupant.values()):
            p = self.pump(deployment_id)
            progressed = progressed or bool(p.bytes_in or p.bytes_out)
        for deployment_id, endpoint in list(self._draining.items()):
            self._linger(deployment_id, endpoint)
        return progressed

    def _linger(self, deployment_id: str, endpoint: PtyEndpoint) -> None:
        """Look at the client of a stopped deployment's withdrawn endpoint."""
        if not endpoint.linger():
            del self._draining[deployment_id]
            self._watch(deployment_id, ())  # its master left the epoll as it closed
            self._set_deadline(deployment_id, None)

    # -- what a loop waits on --------------------------------------------------

    def fileno(self) -> int:
        """The platform's epoll: readable while an fd that some
        deployment or reader waits on is ready.  To nest the platform in
        another loop, wait until it is, or until :meth:`timeout` has
        passed, then call :meth:`serve`."""
        return self._epoll.fileno()

    def timeout(self) -> float | None:
        """Seconds until the earliest deadline, or None: the platform then
        waits on :meth:`fileno` alone.  Endpoints set deadlines to look for
        a client and to stop waiting for a withdrawn client to read its
        tail; the modem, for its escape guard time and connect timeout.
        """
        if not self._deadlines:
            return None
        return max(0.0, min(self._deadlines.values()) - time.monotonic())

    def serve(self, timeout: float | None = 0.0) -> None:
        """Wait until an fd on the platform's epoll is ready, for no longer
        than ``timeout`` seconds (None: no limit) or the earliest deadline;
        call each ready reader's handler; then, unless a handler shut the
        platform down, run one pass through :meth:`pump` of each deployment
        whose fd is ready or whose deadline has come.  A stopped deployment
        whose client still reads the tail gets a look at that client
        instead.  Each pass or look at a deadline moves that deadline on.
        Last, if no handler was called and a deploy has taken the spare
        PTY, open another."""
        wait = self.timeout() if self._deadlines else None
        if wait is not None and (timeout is None or wait < timeout):
            timeout = wait
        ready = self._epoll.poll(timeout)
        answered = False
        for fd, _ in ready:
            handler = self._readers.get(fd)
            if handler is not None:  # None: a deployment's, or removed by a handler
                handler()
                answered = True
        if self._epoll.closed:
            return
        due = {}
        for fd, _ in ready:
            if fd in self._owner:  # else a reader's, or unwatched by a handler
                due[self._owner[fd]] = None
        now = time.monotonic()
        for deployment_id, deadline in self._deadlines.items():
            if deadline <= now:
                due[deployment_id] = None
        for deployment_id in due:
            endpoint = self._draining.get(deployment_id)
            if endpoint is None:
                self.pump(deployment_id)
            else:
                self._linger(deployment_id, endpoint)
        if not answered and self._spare is not None and self._spare.wanted:
            # not right behind a reply: the request that follows it would wait
            self._spare.refill()

    def add_reader(self, fd: int, handler: Callable[[], None]) -> None:
        """Have :meth:`serve` call ``handler()``, before any pass, while
        ``fd`` is readable, or as :meth:`modify_reader` says.  It may be
        called for a closed fd whose number it reused in one wake-up."""
        self._epoll.register(fd, select.EPOLLIN)
        self._readers[fd] = handler

    def modify_reader(self, fd: int, events: int) -> None:
        self._epoll.modify(fd, events)

    def remove_reader(self, fd: int) -> None:
        del self._readers[fd]
        self._epoll.unregister(fd)

    def _rewatch(self, deployment: Deployment) -> None:
        """Work out what ``deployment`` waits on, and watch it."""
        endpoint, runtime = deployment.endpoint, deployment.runtime
        room = len(deployment.out_pending) < self._capacity
        deployment.seen = (endpoint.version, runtime.version, room)
        master, deadline = endpoint.watch()
        module = None
        # output held back behind a full channel waits for the endpoint to
        # read the channel, which it does once the master reports room
        # (EPOLLOUT) for the output it holds back itself; until then no
        # pass calls the module, so it waits on nothing
        if room:
            module, due = runtime.watch(), runtime.deadline()
            if due is not None and (deadline is None or due < deadline):
                deadline = due
        self._watch(deployment.deployment_id, (master, module))
        self._set_deadline(deployment.deployment_id, deadline)

    def _watch(self, deployment_id: str, watched: tuple) -> None:
        """Keep the epoll registrations of ``deployment_id`` to the
        (holder, epoll events) pairs in ``watched``, where a holder is the
        object that owns its fd, and None is none.  Once a holder closes,
        a new one may get the same number, which is registered afresh."""
        fds = {holder.fileno(): (events, holder) for holder, events in filter(None, watched)}
        old = self._watched.get(deployment_id, {})
        if fds == old:
            return
        for fd, (_, holder) in old.items():
            if fd not in fds or fds[fd][1] is not holder:
                del self._owner[fd]
                try:
                    self._epoll.unregister(fd)
                except OSError:
                    pass  # closed with its holder, which took it off the epoll
        for fd, (events, holder) in fds.items():
            prev = old.get(fd)
            if prev is None or prev[1] is not holder:
                self._epoll.register(fd, events)
                self._owner[fd] = deployment_id
            elif prev[0] != events:
                self._epoll.modify(fd, events)
        if fds:
            self._watched[deployment_id] = fds
        else:
            del self._watched[deployment_id]

    def _set_deadline(self, deployment_id: str, deadline: float | None) -> None:
        if deadline is None:
            self._deadlines.pop(deployment_id, None)
        else:
            self._deadlines[deployment_id] = deadline

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
            info["link"] = deployment.endpoint.link_path
        return info

    def status(self) -> dict:
        """Snapshot of hams, modules, deployments, and queue depths.

        Deployments are listed in id order; of the stopped ones, only the
        last ``MAX_TOMBSTONES`` are kept.  Each list and each entry is a
        read-only :class:`~proteus.control.EncodedList` or
        :class:`~proteus.control.EncodedDict`, which carries its text for
        :func:`~proteus.control.encode_status_response`, and so is each
        dict and list in them.  The ``hams`` list is shared by every call
        until a ham registers or its occupancy or a queue depth changes,
        the ``modules`` list until a module loads, and a stopped
        deployment's entry for good.  An active deployment's entry samples
        its endpoint's attachment.  The call does Python work per live
        deployment, not per stopped one.
        """
        if self._ham_heads is None:  # until a ham registers
            self._ham_heads = [self._ham_head(descriptor)
                               for _, (descriptor, _) in sorted(self._hams.items())]
            self._hams_status = None
        occupancy = (tuple(self._occupant.items()), tuple(map(len, self._queues.values())))
        if self._hams_status is None or self._hams_status[0] != occupancy:
            self._hams_status = occupancy, self._ham_entries()
        if self._modules_status is None:  # until a module loads
            self._modules_status = frozen([{
                "module_id": module_id,
                "display_name": manifest.display_name,
                "implementations": [
                    {"hardware_type": impl.hardware_type, "behavior": impl.behavior}
                    for impl in manifest.implementations
                ],
            } for module_id, manifest in sorted(self._modules.items())])
        stopped = self._stopped
        deployments, texts, listed = [], [], 0
        for deployment_id, deployment in self._live.items():
            before = stopped.position(deployment_id)
            if before > listed:
                deployments += stopped.entries[listed:before]
                texts.append(stopped.text_of(listed, before))
                listed = before
            entry = deployment.status_entry()
            deployments.append(entry)
            texts.append(entry.json)
            if deployment.state is DeploymentState.ACTIVE:
                # the entry sampled the endpoint's attachment
                endpoint, runtime = deployment.endpoint, deployment.runtime
                if deployment.seen != (endpoint.version, runtime.version,
                                       len(deployment.out_pending) < self._capacity):
                    self._rewatch(deployment)
        if listed < len(stopped.entries):
            deployments += stopped.entries[listed:]
            texts.append(stopped.text_of(listed, len(stopped.entries)))
        parts = [b"["]
        for text in texts:
            parts += (b", ", text)
        parts[1:2] = ()  # no separator before the first
        parts.append(b"]")
        return {
            "hams": self._hams_status[1],
            "modules": self._modules_status,
            "deployments": EncodedList(deployments, parts),
            "queue_depth": sum(map(len, self._queues.values())),
        }

    @staticmethod
    def _ham_head(descriptor: HamDescriptor) -> tuple[EncodedDict, bytes]:
        """A ham's status fields that registering fixes, and their text
        up to the ``busy`` that follows them."""
        fixed = frozen({
            "ham_id": descriptor.ham_id,
            "hardware_type": descriptor.hardware_type,
            "resources": descriptor.resources,
        })
        return fixed, fixed.json[:-1] + b', "busy": '

    def _ham_entries(self) -> EncodedList:
        entries = []
        for fixed, head in self._ham_heads:
            active = self._occupant.get(fixed["ham_id"])
            depth = len(self._queues[fixed["ham_id"]])
            entries.append(EncodedDict(
                {**fixed, "busy": active is not None, "active_deployment": active,
                 "queue_depth": depth},
                b'%s%s, "active_deployment": %s, "queue_depth": %d}' % (
                    head, b"false" if active is None else b"true",
                    b"null" if active is None else encode_basestring_ascii(active).encode(),
                    depth)))
        return EncodedList(entries, [b"[", b", ".join(entry.json for entry in entries), b"]"])

    def shutdown(self) -> None:
        """Undeploy everything that is still active, take the readers off
        the epoll, close the spare PTY, and serve until each client has
        read its tail or its endpoint's ``DRAIN_WAIT`` has passed; then
        close the epoll.  This is final: the platform cannot be served or
        deploy again."""
        # undeploying can activate a queued deployment, which goes too
        while self._occupant:
            self.undeploy(next(iter(self._occupant.values())))
        for fd in self._readers:
            try:
                self._epoll.unregister(fd)
            except OSError:
                pass  # closed by its owner, which took it off the epoll
        self._readers.clear()  # a reader ready in this wake-up is not called
        if self._spare is not None:
            self._spare.close()
        while self._draining:
            self.serve(None)
        self._epoll.close()
