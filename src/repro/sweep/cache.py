"""Content-addressed, on-disk cache of sweep results.

Layout (under the cache root, default ``.repro-artifacts/sweeps``)::

    <root>/
        objects/<aa>/<point_id>.json   one file per simulated point
        manifests/<spec_id>.json       one manifest per completed sweep

``point_id`` is :attr:`repro.sweep.spec.SweepPoint.point_id` -- the sha256 of
the point's canonical parameter JSON -- so the cache key depends only on
*what* is simulated, never on which spec, process or machine asked for it.
Interrupted sweeps therefore resume for free: every point that finished
before the interruption is found by its content address and skipped.

Entries are written atomically (temp file + ``os.replace``) so concurrent
workers, or a sweep killed mid-write, can never leave a truncated JSON file
behind.  Each entry records the full parameter dict alongside the result,
which makes the artifact directory self-describing.

Integrity: every entry carries a content digest of its result payload,
verified on read.  A corrupt, truncated, schema-mismatched or
digest-mismatched entry is never served *and never silently dropped*: it is
counted (``cache.corrupt``), moved to ``<root>/quarantine/`` for post-mortem
(with a reason sidecar) and reported via
:class:`~repro.common.errors.ArtifactIntegrityWarning`; the caller sees a
miss and transparently recomputes.  Stale-but-wellformed schema versions are
the one exception -- they are ordinary misses, not damage.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.backend.result import SimulationResult
from repro.common.errors import ArtifactIntegrityWarning
from repro.common.fileio import atomic_write_text, quarantine_file
from repro.common.hashing import content_digest
from repro.sweep.spec import SweepPoint

#: Bump when the entry layout changes; mismatched entries are treated as
#: misses so stale artifacts never poison newer code.  2: results carry
#: ``<hist>.max`` stats keys (histograms gained a ``.max`` summary entry),
#: so schema-1 entries would serve an inconsistent stats contract.
#: 3: histograms additionally report ``.p50``/``.p99`` and samplers report
#: ``.samples_dropped``, so schema-2 entries would lack those keys.
#: 4: entries carry a ``digest`` (sha256 of the canonical result JSON),
#: verified on every read.
#: 5: results carry topology metrics (``num_frontends``, per-frontend decode
#: rates, steal counts, fabric forwards), so schema-4 entries would serve
#: results without the topology contract.
SCHEMA_VERSION = 5

#: Default artifacts directory (relative to the working directory).
DEFAULT_CACHE_ROOT = Path(".repro-artifacts") / "sweeps"


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialise a :class:`SimulationResult` to plain JSON data."""
    return asdict(result)


def result_from_dict(data: Dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` data."""
    return SimulationResult(**data)


class ResultCache:
    """Content-addressed store mapping sweep points to simulation results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_ROOT):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries found (and quarantined) by this cache instance.
        self.corrupt = 0
        #: Where those entries went (parallel list of quarantine paths).
        self.quarantined: List[Path] = []

    # -- Paths -------------------------------------------------------------

    def _object_path(self, point_id: str) -> Path:
        return self.root / "objects" / point_id[:2] / f"{point_id}.json"

    def _manifest_path(self, spec_id: str) -> Path:
        return self.root / "manifests" / f"{spec_id}.json"

    def quarantine_dir(self) -> Path:
        """Where this cache's corrupt entries are moved for post-mortem."""
        return self.root / "quarantine"

    # -- Entries -----------------------------------------------------------

    @staticmethod
    def _verify(entry: object) -> Union[SimulationResult, None, str]:
        """Validate one loaded entry.

        Returns the result on success, ``None`` for a well-formed entry of a
        *different* schema version (an ordinary miss -- old artifacts are not
        damage), or a reason string describing the corruption.
        """
        if not isinstance(entry, dict):
            return "entry is not a JSON object"
        schema = entry.get("schema")
        if schema != SCHEMA_VERSION:
            if isinstance(schema, int) and isinstance(entry.get("result"), dict):
                return None
            return f"unrecognized schema marker {schema!r}"
        result_data = entry.get("result")
        if not isinstance(result_data, dict):
            return "result payload is not a JSON object"
        digest = entry.get("digest")
        if digest != content_digest(result_data):
            return "result payload does not match its recorded digest"
        try:
            return result_from_dict(result_data)
        except TypeError as exc:
            return f"result payload does not rebuild a SimulationResult ({exc})"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Count, move and warn about one corrupt entry."""
        self.corrupt += 1
        moved = quarantine_file(path, self.quarantine_dir(), reason)
        if moved is not None:
            self.quarantined.append(moved)
        warnings.warn(
            f"corrupt result-cache entry {path.name} ({reason}); "
            f"quarantined to {moved if moved is not None else '<already gone>'}"
            " and the point will be recomputed",
            ArtifactIntegrityWarning, stacklevel=3)

    def get(self, point: SweepPoint) -> Optional[SimulationResult]:
        """Return the cached result for ``point``, or ``None`` on a miss.

        Corrupt entries (truncated JSON, digest mismatch, mangled payload)
        are quarantined and reported, then treated as misses so the caller
        recomputes; see the module docstring.
        """
        path = self._object_path(point.point_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except json.JSONDecodeError as exc:
            self._quarantine(path, f"invalid JSON ({exc})")
            self.misses += 1
            return None
        verdict = self._verify(entry)
        if isinstance(verdict, SimulationResult):
            self.hits += 1
            return verdict
        if isinstance(verdict, str):
            self._quarantine(path, verdict)
        self.misses += 1
        return None

    def put(self, point: SweepPoint, result: SimulationResult) -> Path:
        """Persist ``result`` for ``point`` atomically; returns the path."""
        path = self._object_path(point.point_id)
        result_data = result_to_dict(result)
        entry = {
            "schema": SCHEMA_VERSION,
            "point_id": point.point_id,
            "params": point.as_dict(),
            "digest": content_digest(result_data),
            "result": result_data,
        }
        from repro.sweep.faults import fire as fire_fault
        fault = fire_fault("torn_cache", point=point.index)
        if fault is not None:
            # Injected torn write: a truncated, non-atomic entry, exactly
            # what a kill -9 mid-write on a non-atomic writer would leave.
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(entry, sort_keys=True, indent=1)
            path.write_text(payload[:max(8, len(payload) // 2)])
            return path
        self._atomic_write(path, entry)
        return path

    def contains(self, point: SweepPoint) -> bool:
        """True if ``point`` has a valid cache entry (does not count stats,
        does not quarantine -- a read-only probe)."""
        path = self._object_path(point.point_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return False
        return isinstance(self._verify(entry), SimulationResult)

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))

    # -- Manifests ---------------------------------------------------------

    def write_manifest(self, spec_id: str, name: str,
                       points: List[SweepPoint]) -> Path:
        """Record which points a completed sweep covered (for provenance)."""
        path = self._manifest_path(spec_id)
        manifest = {
            "schema": SCHEMA_VERSION,
            "spec_id": spec_id,
            "name": name,
            "num_points": len(points),
            "point_ids": [point.point_id for point in points],
        }
        self._atomic_write(path, manifest)
        return path

    def read_manifest(self, spec_id: str) -> Optional[Dict]:
        """Load a sweep manifest, or ``None`` if the sweep never completed."""
        try:
            with open(self._manifest_path(spec_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    # -- Internals ---------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, data: Dict) -> None:
        atomic_write_text(path, json.dumps(data, sort_keys=True, indent=1))
