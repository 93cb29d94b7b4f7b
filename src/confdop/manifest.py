"""Run manifests: what a command wrote, from which config, verifiably;
and the strict JSON reader and writer that every JSON document goes through."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import typing
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .errors import ConfdopError, ManifestMismatch


class OutputEntry(typing.TypedDict):
    """One file a command wrote; path is absolute or relative to the manifest's directory."""

    path: str
    sha256: str
    size_bytes: int


@dataclass(frozen=True)
class RunManifest:
    """A run manifest; these annotations are the JSON shape load_manifest checks."""

    command: str
    tool_version: str
    rng_algorithm: str
    seed: int | None
    config: dict
    config_digest: str
    outputs: list[OutputEntry]


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


def _strict_json(doc: dict, sort_keys: bool = False) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=sort_keys,
    allow_nan=False), built in one walk.

    The walk refuses a non-finite float when it reaches it, with a
    ConfdopError naming its field (hill.r_prime, outputs[0].x): with
    sort_keys, the first in written order.  A value json.dumps refuses, or
    a key that is not a str, raises TypeError.  Nothing is returned for a
    refused document, so the caller prints or writes nothing.
    """
    parts: list[str] = []
    _append_json(doc, "", "\n", sort_keys, parts)
    return "".join(parts)


def _append_json(value, field: str, newline: str, sort_keys: bool, parts: list[str]) -> None:
    """Append value's JSON text to parts; newline is a line break plus the
    indent of value's own line.  A finite plain float, alone or as a dict
    item, is written in one step; other types are tested in json.encoder's
    order, so a float subclass (np.float64) is written as a float."""
    if type(value) is float and value - value == 0.0:  # finite
        parts.append(float.__repr__(value))
    elif isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ConfdopError(f"{field} is not finite ({value}); strict JSON cannot hold it")
        parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for i, item in enumerate(value):
            parts.append(sep)
            _append_json(item, f"{field}[{i}]", inner, sort_keys, parts)
            sep = comma
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(item) is float and item - item == 0.0:
                parts.append(f"{sep}{_encode_str(key)}: {float.__repr__(item)}")
            else:
                parts.append(f"{sep}{_encode_str(key)}: ")
                _append_json(item, f"{field}.{key}" if field else key, inner, sort_keys, parts)
            sep = comma
        parts.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_digest(path: Path) -> tuple[str, int]:
    """The SHA-256 of a file and its size, read a chunk at a time."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest(), f.tell()


def _write_over(path, chunks) -> None:
    """Write the bytes-like chunks (bytes, or any C-contiguous buffer,
    such as a row matrix) to path, from its first byte over the old ones,
    and cut the file at the written length where it was longer, so it
    holds exactly the written bytes, as after a truncating open.  Opening
    without O_TRUNC spares the file system freeing the old blocks and
    starting their writeback at close; like a truncating open, it leaves
    no copy of the old bytes and makes nothing durable (no fsync).  The
    file is cut even when writing stops on an exception."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        size, written = os.fstat(fd).st_size, 0
        try:
            for chunk in chunks:
                written += f.write(chunk)
                del chunk  # not held while the next one is made
        finally:
            if size > written:  # never for a pipe or a device, whose size is 0
                f.truncate(written)


def _write_json(doc: dict, path, sort_keys: bool = False) -> None:
    """Write _strict_json's text of doc and a newline to path.  The text is
    built before the file is opened, so a refused document writes nothing."""
    _write_over(path, [(_strict_json(doc, sort_keys) + "\n").encode()])


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
    _write_json(asdict(manifest), path, sort_keys=True)


# Each record's annotations, evaluated once per process rather than per load.
_type_hints = functools.cache(typing.get_type_hints)


def _shape_error(doc, record, where: str = "") -> str | None:
    """Why doc is not a JSON object of record's shape, naming the field, or
    None when it is.  The shape is record's annotations: exactly those keys,
    each holding a value of its annotated type, where list[T] holds T
    records.  No field is a bool, so JSON true is refused where an int is due.
    """
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        return f"{at}must be an object, got {json.dumps(doc):.40}"
    hints = _type_hints(record)
    if doc.keys() != hints.keys():
        return (
            f"{at}missing keys {sorted(hints.keys() - doc.keys())}, "
            f"unknown keys {sorted(doc.keys() - hints.keys())}"
        )
    for key, hint in hints.items():
        field, value = f"{where}.{key}" if where else key, doc[key]
        is_list = typing.get_origin(hint) is list
        allowed = list if is_list else typing.get_args(hint) or hint  # int | None: (int, NoneType)
        if isinstance(value, bool) or not isinstance(value, allowed):
            name = "list" if is_list else getattr(hint, "__name__", hint)
            return f"{field}: must be {name}, got {json.dumps(value):.40}"
        if is_list:
            (item,) = typing.get_args(hint)
            for i, entry in enumerate(value):
                reason = _shape_error(entry, item, f"{field}[{i}]")
                if reason:
                    return reason
    return None


def load_manifest(path) -> RunManifest:
    """Read a manifest; a document not of RunManifest's shape, or one that
    strict JSON cannot hold (a NaN or Infinity token), is a ManifestMismatch
    naming the file and the first bad field."""
    doc = _read_json(path)
    reason = _shape_error(doc, RunManifest)
    if reason is None:
        try:  # the writer's rule, so whatever loads can be written back
            _strict_json(doc, sort_keys=True)
        except ConfdopError as exc:
            reason = str(exc)
    if reason:
        raise ManifestMismatch(f"{path}: not a run manifest ({reason})")
    return RunManifest(**doc)


def verify_manifest(path) -> RunManifest:
    """Recompute the config digest and every output digest; raise
    ManifestMismatch on a mismatch or a document not of a manifest's shape,
    and ConfdopError for a file that is not a UTF-8 JSON object."""
    path = Path(path)
    m = load_manifest(path)
    recomputed = config_digest(m.config)
    if recomputed != m.config_digest:
        raise ManifestMismatch(
            f"config digest mismatch: manifest says {m.config_digest}, recomputed {recomputed}"
        )
    for entry in m.outputs:
        p = path.parent / entry["path"]  # an absolute entry path stays as it is
        if not p.is_file():  # "" and a directory name are not files either
            raise ManifestMismatch(f"output file missing or not a file: {entry['path']!r}")
        digest, size = _file_digest(p)
        if digest != entry["sha256"] or size != entry["size_bytes"]:
            raise ManifestMismatch(
                f"output file changed: {entry['path']} "
                f"(sha256 {digest} vs {entry['sha256']})"
            )
    return m
