"""Run manifests: what a command wrote, from which config, verifiably;
and the strict JSON reader and writer that every JSON document goes through."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfdopError, ManifestMismatch


@dataclass(frozen=True)
class RunManifest:
    command: str
    tool_version: str
    rng_algorithm: str
    seed: int | None
    config: dict
    config_digest: str
    outputs: list  # [{"path": str, "sha256": str, "size_bytes": int}, ...]


_MANIFEST_KEYS = frozenset(f.name for f in fields(RunManifest))


def _read_json(path) -> dict:
    """The JSON object in a file; refuses text that is not UTF-8 JSON, or
    a document that is not an object, naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfdopError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfdopError(f"{path}: must hold a JSON object, got {json.dumps(doc):.40}")
    return doc


def _require_finite_fields(doc: dict, prefix: str) -> None:
    """Refuse a float field strict JSON cannot hold, naming it."""
    for key, value in doc.items():
        if isinstance(value, dict):
            _require_finite_fields(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfdopError(f"{prefix}{key} is not finite ({value}); strict JSON cannot hold it")


def _strict_json(doc: dict, sort_keys: bool = False) -> str:
    """doc as indented strict JSON text; refuses a non-finite float field, naming it."""
    _require_finite_fields(doc, "")
    return json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def build_manifest(
    command: str,
    tool_version: str,
    rng_algorithm: str,
    seed: int | None,
    config: dict,
    output_paths: list[Path],
    base_dir: Path,
) -> RunManifest:
    """Digest the config and every output file (paths stored relative to base_dir)."""
    outputs = []
    for p in output_paths:
        digest, size = _file_digest(p)
        try:
            rel = str(p.resolve().relative_to(base_dir.resolve()))
        except ValueError:
            rel = str(p.resolve())
        outputs.append({"path": rel, "sha256": digest, "size_bytes": size})
    return RunManifest(
        command=command,
        tool_version=tool_version,
        rng_algorithm=rng_algorithm,
        seed=seed,
        config=config,
        config_digest=config_digest(config),
        outputs=outputs,
    )


def write_manifest(manifest: RunManifest, path) -> None:
    Path(path).write_text(_strict_json(asdict(manifest), sort_keys=True) + "\n")


def load_manifest(path) -> RunManifest:
    """Read a manifest; a document without exactly RunManifest's keys is a mismatch."""
    doc = _read_json(path)
    if doc.keys() != _MANIFEST_KEYS:
        raise ManifestMismatch(
            f"{path}: not a run manifest (missing keys {sorted(_MANIFEST_KEYS - doc.keys())}, "
            f"unknown keys {sorted(doc.keys() - _MANIFEST_KEYS)})"
        )
    return RunManifest(**doc)


def verify_manifest(path) -> RunManifest:
    """Recompute the config digest and every output digest; raise
    ManifestMismatch on a mismatch or a missing or unknown key, and
    ConfdopError for a file that is not a UTF-8 JSON object."""
    path = Path(path)
    m = load_manifest(path)
    recomputed = config_digest(m.config)
    if recomputed != m.config_digest:
        raise ManifestMismatch(
            f"config digest mismatch: manifest says {m.config_digest}, recomputed {recomputed}"
        )
    for entry in m.outputs:
        p = Path(entry["path"])
        if not p.is_absolute():
            p = path.parent / p
        if not p.exists():
            raise ManifestMismatch(f"output file missing: {entry['path']}")
        digest, size = _file_digest(p)
        if digest != entry["sha256"] or size != entry["size_bytes"]:
            raise ManifestMismatch(
                f"output file changed: {entry['path']} "
                f"(sha256 {digest} vs {entry['sha256']})"
            )
    return m
