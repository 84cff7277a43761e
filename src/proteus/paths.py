"""Well-known filesystem locations for sockets and endpoint links."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

CONTROL_ENV = "PROTEUS_CONTROL"


def runtime_base() -> Path:
    return Path(os.environ.get("XDG_RUNTIME_DIR") or tempfile.gettempdir())


def proteus_dir(runtime_dir: Path | str | None = None) -> Path:
    """``<runtime-dir>/proteus``, created on demand."""
    base = Path(runtime_dir) if runtime_dir else runtime_base()
    directory = base / "proteus"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def default_socket_path(runtime_dir: Path | str | None = None) -> Path:
    return proteus_dir(runtime_dir) / "control.sock"


def resolve_socket_path(flag_value: str | None = None,
                        runtime_dir: Path | str | None = None) -> Path:
    """Flag beats the PROTEUS_CONTROL environment variable beats the default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CONTROL_ENV)
    if env:
        return Path(env)
    return default_socket_path(runtime_dir)
