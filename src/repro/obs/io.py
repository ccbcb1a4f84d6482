"""Binary persistence of recordings (``.robs``) and obs-directory cleanup.

The on-disk format follows :mod:`repro.trace.packed`'s recipe: magic +
version + JSON header (name table, drop count, meta, event count) followed
by the five raw little-endian int64 event columns, loaded back with bulk
``array.frombytes``.  Files are written atomically.

An *obs directory* (``--obs-dir``) has three children::

    recordings/<digest>.robs    full event recordings (optional, large)
    points/<digest>.json        per-point telemetry summaries
    heartbeats/<host>-<pid>.jsonl   worker progress events

:func:`gc_obs_dir` removes them (with ``--dry-run`` support), reporting the
bytes reclaimed.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from typing import List, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.common.fileio import atomic_write_bytes
from repro.obs.events import STRIDE
from repro.obs.observer import Recording

PathLike = Union[str, Path]

#: File magic and version of the recording format; bump the version when the
#: column layout or header contract changes.
OBS_MAGIC = b"ROBS"
OBS_FORMAT_VERSION = 1

#: Column order in the file body.
_COLUMN_NAMES = ("time", "kind", "module", "task", "value")

#: Obs-directory children, in gc order.
OBS_SUBDIRS = ("recordings", "points", "heartbeats")

#: Default obs directory (relative to the working directory), next to the
#: sweep artifact cache.
DEFAULT_OBS_ROOT = Path(".repro-artifacts") / "obs"


def recording_to_bytes(recording: Recording) -> bytes:
    """Serialise a recording to the versioned binary format."""
    columns = [array("q") for _ in range(STRIDE)]
    for event in recording.events:
        for column, item in zip(columns, event):
            column.append(item)
    header = {
        "names": recording.names,
        "dropped": recording.dropped,
        "meta": recording.meta,
        "num_events": len(recording.events),
        "columns": list(_COLUMN_NAMES),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    parts = [OBS_MAGIC,
             OBS_FORMAT_VERSION.to_bytes(4, "little"),
             len(header_bytes).to_bytes(8, "little"),
             header_bytes]
    for column in columns:
        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            column = array("q", column)
            column.byteswap()
        parts.append(column.tobytes())
    return b"".join(parts)


def recording_from_bytes(raw: bytes) -> Recording:
    """Parse :func:`recording_to_bytes` output (raises ``TraceFormatError``)."""
    if len(raw) < 16 or raw[:4] != OBS_MAGIC:
        raise TraceFormatError("not an obs recording (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version != OBS_FORMAT_VERSION:
        raise TraceFormatError(
            f"obs recording version {version} is not the supported "
            f"version {OBS_FORMAT_VERSION}")
    header_len = int.from_bytes(raw[8:16], "little")
    body = 16 + header_len
    if body > len(raw):
        raise TraceFormatError("obs recording: truncated header")
    try:
        header = json.loads(raw[16:body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError("obs recording: malformed header JSON") from exc
    if (not isinstance(header, dict)
            or header.get("columns") != list(_COLUMN_NAMES)):
        raise TraceFormatError("obs recording: malformed column directory")
    num_events = int(header.get("num_events", -1))
    itemsize = array("q").itemsize
    expected = body + num_events * itemsize * STRIDE
    if num_events < 0 or expected != len(raw):
        raise TraceFormatError(
            f"obs recording: file is {len(raw)} bytes but the header "
            f"promises {expected}")
    columns: List[array] = []
    offset = body
    for _ in range(STRIDE):
        nbytes = num_events * itemsize
        column = array("q")
        column.frombytes(raw[offset:offset + nbytes])
        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            column.byteswap()
        columns.append(column)
        offset += nbytes
    events = list(zip(*columns)) if num_events else []
    return Recording(names=list(header.get("names", [])),
                     events=events,
                     dropped=int(header.get("dropped", 0)),
                     meta=dict(header.get("meta", {})))


def save_recording(recording: Recording, path: PathLike) -> Path:
    """Atomically write a ``.robs`` recording file."""
    return atomic_write_bytes(path, recording_to_bytes(recording))


def load_recording(path: PathLike) -> Recording:
    """Load a ``.robs`` file written by :func:`save_recording`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise TraceFormatError(f"cannot read obs recording {path}: {exc}") from exc
    try:
        return recording_from_bytes(raw)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def gc_obs_dir(root: PathLike,
               dry_run: bool = False) -> Tuple[List[Path], int]:
    """Delete an obs directory's artifacts; returns (paths, bytes reclaimed).

    With ``dry_run`` the same lists are computed but nothing is removed.
    Only the known artifact kinds under the three obs subdirectories are
    touched; unknown files are left alone.
    """
    root = Path(root)
    patterns = {"recordings": "*.robs", "points": "*.json",
                "heartbeats": "*.jsonl"}
    removed: List[Path] = []
    reclaimed = 0
    for subdir in OBS_SUBDIRS:
        directory = root / subdir
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob(patterns[subdir])):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            removed.append(path)
            reclaimed += size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    removed.pop()
                    reclaimed -= size
    return removed, reclaimed
