"""Run manifests: what a command wrote, from which config, verifiably."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ManifestMismatch


@dataclass(frozen=True)
class RunManifest:
    command: str
    tool_version: str
    rng_algorithm: str
    seed: int | None
    config: dict
    config_digest: str
    outputs: list  # [{"path": str, "sha256": str, "size_bytes": int}, ...]


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
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def load_manifest(path) -> RunManifest:
    d = json.loads(Path(path).read_text())
    return RunManifest(**d)


def verify_manifest(path) -> RunManifest:
    """Recompute the config digest and every output digest; raise on mismatch."""
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
