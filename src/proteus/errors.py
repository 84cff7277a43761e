"""Error hierarchy for the platform.

Every error carries a stable machine-readable ``code`` that is surfaced
verbatim over the control protocol and by the CLI, so exception classes
here are the single source of truth for error codes.
"""

from __future__ import annotations


class ProteusError(Exception):
    """Base class for all platform errors."""

    code = "internal-error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- duplex channel ---------------------------------------------------------

class InvalidCapacityError(ProteusError):
    code = "invalid-capacity"


class ClosedHandleError(ProteusError):
    code = "closed-handle"


class PeerDisconnectedError(ProteusError):
    code = "peer-disconnected"


# --- hardware abstraction ---------------------------------------------------

class UnknownBehaviorError(ProteusError):
    code = "unknown-behavior"


class NotConfiguredError(ProteusError):
    code = "not-configured"


# --- platform core ----------------------------------------------------------

class DuplicateHamError(ProteusError):
    code = "duplicate-ham-id"


class DuplicateModuleError(ProteusError):
    code = "duplicate-module-id"


class MalformedManifestError(ProteusError):
    code = "malformed-manifest"

    def __init__(self, field: str, message: str = ""):
        super().__init__(message or f"invalid manifest field: {field}")
        self.field = field


class NoCompatibleImplementationError(ProteusError):
    code = "no-compatible-implementation"


class UnknownModuleError(ProteusError):
    code = "unknown-module"


class UnknownHamError(ProteusError):
    code = "unknown-ham"


class HardwareBusyError(ProteusError):
    code = "hardware-busy"


class ConfigureFailedError(ProteusError):
    code = "configure-failed"


class UnknownDeploymentError(ProteusError):
    code = "unknown-deployment"


class DeploymentNotActiveError(ProteusError):
    code = "deployment-not-active"


# --- endpoint ---------------------------------------------------------------

class NameInUseError(ProteusError):
    code = "name-in-use"


class OsResourceError(ProteusError):
    code = "os-resource-failure"


# --- modem ------------------------------------------------------------------

class NotAtPrefixedError(ProteusError):
    code = "not-at-prefixed"


class MalformedDialPlanError(ProteusError):
    code = "malformed-dial-plan"


# --- control ----------------------------------------------------------------

class AlreadyRunningError(ProteusError):
    code = "already-running"


class ProtocolError(ProteusError):
    code = "protocol-error"


class RequestTooLongError(ProteusError):
    code = "request-too-long"


class TooManyClientsError(ProteusError):
    code = "too-many-clients"
