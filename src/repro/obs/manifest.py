"""Run manifests: provenance serialized next to every artifact.

A :class:`RunManifest` pins everything needed to reproduce (or audit) the
run that produced an artifact: the package version, the seed, a hash of
the frozen experiment configuration, the scheme set, interpreter and numpy
versions, the git commit when available, the scaling-mode flags, and the
wall-clock spent per phase. Manifests are written as
``<artifact>.manifest.json`` (or ``report.manifest.json`` inside a report
directory) with sorted keys, so identical runs produce identical bytes up
to the environment and timing fields.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple


def config_hash(config: object) -> str:
    """SHA-256 over the canonical JSON form of a frozen config.

    Dataclasses and other non-JSON values serialize through ``repr``,
    which is stable for the frozen configs used here (field order is
    class-declaration order). The hash pins the *whole* configuration, so
    two manifests with equal hashes ran byte-identical cells.
    """
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _git_sha() -> Optional[str]:
    """The current git commit, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def profile_hotspots(profiler: "cProfile.Profile",
                     top_n: int = 15) -> list:
    """The top-N cumulative-time hotspots of a finished cProfile run.

    Returns JSON-ready dicts (``function``, ``cumtime_s``, ``tottime_s``,
    ``calls``) sorted by cumulative time, ready to fold into a manifest's
    ``extra`` under ``profile_top``. Spot-precision floats are rounded to
    microseconds so manifests stay diff-friendly.
    """
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    hotspots = []
    for func in stats.fcn_list[:top_n]:  # type: ignore[attr-defined]
        cc, nc, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        if filename == "~":
            location = name  # built-ins have no file
        else:
            location = f"{filename}:{lineno}({name})"
        hotspots.append({
            "function": location,
            "cumtime_s": round(cumtime, 6),
            "tottime_s": round(tottime, 6),
            "calls": nc,
        })
    return hotspots


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        return None
    return numpy.__version__


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run/artifact (see module docstring)."""

    version: str
    command: str
    seed: Optional[int]
    config_hash: str
    schemes: Tuple[str, ...]
    python_version: str
    platform: str
    numpy_version: Optional[str]
    git_sha: Optional[str]
    shards: int = 1
    cache_partitions: int = 1
    placement: str = "hash"
    phase_timings_s: Tuple[Tuple[str, float], ...] = ()
    extra: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        """The manifest as a JSON-ready dict."""
        payload: Dict[str, object] = {
            "manifest_version": 1,
            "version": self.version,
            "command": self.command,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "schemes": list(self.schemes),
            "python_version": self.python_version,
            "platform": self.platform,
            "numpy_version": self.numpy_version,
            "git_sha": self.git_sha,
            "shards": self.shards,
            "cache_partitions": self.cache_partitions,
            "placement": self.placement,
            "phase_timings_s": {name: seconds
                               for name, seconds in self.phase_timings_s},
        }
        for key, value in self.extra:
            payload[key] = value
        return payload

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, indented)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def write(self, path: str) -> None:
        """Write the manifest to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def build_manifest(command: str, *,
                   seed: Optional[int] = None,
                   config: object = None,
                   schemes: Sequence[str] = (),
                   shards: int = 1,
                   cache_partitions: int = 1,
                   placement: str = "hash",
                   phase_timings_s: Optional[Mapping[str, float]] = None,
                   extra: Optional[Mapping[str, object]] = None
                   ) -> RunManifest:
    """Collect the environment and assemble a :class:`RunManifest`.

    The version stamped here is the same string ``repro --version``
    prints, so artifacts and the CLI can never disagree about provenance.
    """
    from repro import __version__

    timings = phase_timings_s or {}
    return RunManifest(
        version=__version__,
        command=command,
        seed=seed,
        config_hash=config_hash(config),
        schemes=tuple(schemes),
        python_version=platform.python_version(),
        platform=sys.platform,
        numpy_version=_numpy_version(),
        git_sha=_git_sha(),
        shards=shards,
        cache_partitions=cache_partitions,
        placement=placement,
        phase_timings_s=tuple(sorted(timings.items())),
        extra=tuple(sorted((extra or {}).items())),
    )
