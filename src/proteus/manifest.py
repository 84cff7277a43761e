"""Software module manifests: identity plus hardware-tagged implementations.

A manifest names a deployable module and lists its algorithm
implementations, each tagged with the hardware type it runs on, the
image to load onto that hardware, and the platform-side behavior to
attach.  Manifest files are YAML documents with exactly these fields.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import MalformedManifestError


class Implementation(NamedTuple("Implementation", [
        ("hardware_type", str), ("behavior", str), ("image_behavior", str),
        ("image_params", dict)])):
    """One algorithm implementation inside a module; ``image_params``
    defaults to a fresh dict."""

    __slots__ = ()

    def __new__(cls, hardware_type: str, behavior: str, image_behavior: str,
                image_params: dict | None = None):
        return tuple.__new__(cls, (hardware_type, behavior, image_behavior,
                                   {} if image_params is None else image_params))


class ModuleManifest(NamedTuple("ModuleManifest", [
        ("module_id", str), ("display_name", str),
        ("implementations", tuple), ("config", dict)])):
    """A loaded module, shared by each of its deployments, so immutable;
    ``config`` defaults to a fresh dict."""

    __slots__ = ()

    def __new__(cls, module_id: str, display_name: str,
                implementations: tuple[Implementation, ...], config: dict | None = None):
        return tuple.__new__(cls, (module_id, display_name, implementations,
                                   {} if config is None else config))


def validate_manifest(manifest: ModuleManifest) -> None:
    """Raise :class:`MalformedManifestError` naming the violated field."""
    if not manifest.module_id or not isinstance(manifest.module_id, str):
        raise MalformedManifestError("module_id", "module_id must be a non-empty string")
    if not isinstance(manifest.display_name, str):
        raise MalformedManifestError("display_name", "display_name must be a string")
    if not manifest.implementations:
        raise MalformedManifestError("implementations", "implementations must be non-empty")
    for i, impl in enumerate(manifest.implementations):
        if not impl.hardware_type:
            raise MalformedManifestError(
                f"implementations[{i}].hardware_type", "hardware_type must be non-empty")
        if not impl.behavior:
            raise MalformedManifestError(
                f"implementations[{i}].behavior", "behavior must be non-empty")
        if not impl.image_behavior:
            raise MalformedManifestError(
                f"implementations[{i}].image.behavior", "image behavior must be non-empty")
    if not isinstance(manifest.config, dict):
        raise MalformedManifestError("config", "config must be a key-value map")


def manifest_from_dict(doc: dict) -> ModuleManifest:
    """Build and validate a manifest from a parsed document."""
    if not isinstance(doc, dict):
        raise MalformedManifestError("document", "manifest must be a mapping")
    impls = []
    raw_impls = doc.get("implementations")
    if not isinstance(raw_impls, list):
        raise MalformedManifestError("implementations", "implementations must be a list")
    for i, entry in enumerate(raw_impls):
        if not isinstance(entry, dict):
            raise MalformedManifestError(f"implementations[{i}]", "entry must be a mapping")
        image = entry.get("image") or {}
        if not isinstance(image, dict):
            raise MalformedManifestError(f"implementations[{i}].image", "image must be a mapping")
        impls.append(Implementation(
            hardware_type=str(entry.get("hardware_type") or ""),
            behavior=str(entry.get("behavior") or ""),
            image_behavior=str(image.get("behavior") or ""),
            image_params=dict(image.get("params") or {}),
        ))
    manifest = ModuleManifest(
        module_id=str(doc.get("module_id") or ""),
        display_name=str(doc.get("display_name") or doc.get("module_id") or ""),
        implementations=tuple(impls),
        config=dict(doc.get("config") or {}),
    )
    validate_manifest(manifest)
    return manifest


def load_manifest(path: str) -> ModuleManifest:
    """Load a manifest from a YAML file.

    A relative ``dial_plan`` config path is resolved against the
    manifest's own directory, so a module can ship both files together.
    """
    import yaml  # here, not at the top: a client command never parses YAML

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedManifestError("path", f"cannot read manifest: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise MalformedManifestError("document", f"unparseable manifest: {exc}") from exc
    manifest = manifest_from_dict(doc)
    plan = manifest.config.get("dial_plan")
    if plan and not Path(plan).is_absolute():
        manifest.config["dial_plan"] = str(path.parent / plan)
    return manifest
