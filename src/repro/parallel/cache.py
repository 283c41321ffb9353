"""Content-addressed result cache for sweep points.

Results are stored as JSON files under ``.repro_cache/`` (or the path in
the ``REPRO_CACHE`` environment variable), addressed by a sha256 of the
canonical form of the evaluation payload -- typically a dict of
(kind, machine-spec parameters, simulation config) -- salted with
:data:`CODE_SALT`.  Bumping the salt when the model/simulator semantics
change invalidates every prior entry at once without touching the files.

Values must be JSON round-trippable.  Floats survive exactly (``json``
serialises via ``repr`` and parses back to the identical double), so
cached sweeps reproduce bit-identical experiment text and checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

from ..obs.metrics import REGISTRY
from .grid import canonical_json

__all__ = ["CODE_SALT", "ResultCache", "cache_from_env", "coerce_cache"]

#: Version salt mixed into every cache key.  Bump when simulator or model
#: semantics change so stale results can never be replayed.
CODE_SALT = "repro-model-v1"

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the cache location ("off"/"0" disables).
CACHE_ENV_VAR = "REPRO_CACHE"

#: Spellings of a cache setting (``--cache`` or ``REPRO_CACHE``) that
#: disable caching, compared after stripping and lower-casing.
CACHE_OFF = ("", "off", "0", "none", "false")


class ResultCache:
    """A content-addressed JSON store for design-point results.

    Parameters
    ----------
    root:
        Directory holding the cache (created lazily on first write).
    salt:
        Version string mixed into every key; defaults to :data:`CODE_SALT`.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out over 256
    subdirectories keeps directory listings manageable for large sweeps).
    Caches written by older builds stored entries flat at
    ``<root>/<key>.json``; those are still readable and are migrated into
    their shard directory transparently on first hit, so a warm cache
    survives the layout change without a recompute.
    Writes are atomic (tmp file + rename), so concurrent workers racing
    on the same point at worst both compute it; neither sees a torn file.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR, salt: str = CODE_SALT) -> None:
        self.root = Path(root)
        self.salt = salt
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        # Mirror the counters into the process registry so cache health
        # shows up in every metrics export without plumbing the instance.
        self._m_hits = REGISTRY.counter("cache.hits", layer="result_cache")
        self._m_misses = REGISTRY.counter("cache.misses", layer="result_cache")
        self._m_puts = REGISTRY.counter("cache.puts", layer="result_cache")
        self._m_evictions = REGISTRY.counter("cache.evictions", layer="result_cache")

    # -- keys -----------------------------------------------------------

    def key_for(self, payload: Any) -> str:
        """The cache key for ``payload`` under this cache's salt."""
        text = f"{self.salt}\n{canonical_json(payload)}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _flat_path(self, key: str) -> Path:
        """Where a pre-sharding build would have stored ``key``."""
        return self.root / f"{key}.json"

    def _migrate_flat(self, key: str) -> Optional[dict[str, Any]]:
        """Read a flat-layout entry for ``key``, moving it into its shard.

        Returns the entry, or None when no legacy file exists.  Migration
        uses an atomic rename; a concurrent reader either finds the flat
        file or the sharded one, never neither.
        """
        flat = self._flat_path(key)
        try:
            with open(flat, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        dest = self._path(key)
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat, dest)
        except OSError:
            pass  # read-only cache dir: serve the entry, retry the move later
        return entry

    # -- store ----------------------------------------------------------

    def get(self, payload: Any) -> Optional[dict[str, Any]]:
        """The stored entry for ``payload``, or None.  Counts a lookup."""
        self.lookups += 1
        key = self.key_for(payload)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            entry = self._migrate_flat(key)
            if entry is None:
                self.misses += 1
                self._m_misses.inc()
                return None
        self.hits += 1
        self._m_hits.inc()
        return entry

    def put(self, payload: Any, value: Any) -> None:
        """Store ``value`` for ``payload`` (atomically)."""
        key = self.key_for(payload)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"salt": self.salt, "payload": canonical_json(payload), "value": value}
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
            self.puts += 1
            self._m_puts.inc()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def cached_eval(self, payload: Any, compute: Callable[[], Any]) -> Any:
        """``compute()``'s value for ``payload``, from cache when possible.

        The workhorse call: experiments wrap each simulation in this so a
        warm re-run replays stored values instead of re-simulating.
        """
        entry = self.get(payload)
        if entry is not None:
            return entry["value"]
        value = compute()
        self.put(payload, value)
        return value

    # -- maintenance ----------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Each removed file counts as an eviction in :attr:`stats`.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for sub in self.root.iterdir():
            if sub.is_dir():
                for path in sub.glob("*.json"):
                    path.unlink()
                    removed += 1
            elif sub.suffix == ".json":  # legacy flat-layout entry
                sub.unlink()
                removed += 1
        self.evictions += removed
        self._m_evictions.inc(removed)
        return removed

    @property
    def stats(self) -> dict[str, int]:
        """Lookup/hit/miss/put/evict counters since construction."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def footer(self) -> str:
        """One-line run summary for CLI output."""
        return (
            f"cache {self.root}: {self.lookups} lookups, {self.hits} hits "
            f"({100 * self.hit_rate:.0f}%), {self.misses} misses, "
            f"{self.puts} stored, {self.evictions} evicted"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root} salt={self.salt!r} {self.stats}>"


def cache_from_env(default: Optional[str] = None) -> Optional[ResultCache]:
    """Build a cache from ``REPRO_CACHE`` (or ``default`` when unset).

    A :data:`CACHE_OFF` spelling disables caching; anything else is the
    cache directory.  Returns None when disabled/unconfigured.
    """
    raw = os.environ.get(CACHE_ENV_VAR, default)
    return None if raw is None else coerce_cache(raw)


def coerce_cache(cache: Any) -> Optional[ResultCache]:
    """The cache a ``cache`` argument selects; None means no cache.

    ``cache`` is a directory path (a :data:`CACHE_OFF` string such as
    ``"off"`` disables), a :class:`ResultCache`, True (the default
    ``.repro_cache/``), False (off), or None (consult ``REPRO_CACHE``).
    """
    if cache is None:
        return cache_from_env()
    if cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, str) and cache.strip().lower() in CACHE_OFF:
        return None
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    raise TypeError(
        "cache must be a directory path, a ResultCache, True, False or None, "
        f"got {cache!r}"
    )
