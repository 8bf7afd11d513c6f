"""Append-only on-disk cache with per-record checksums.

One JSONL file per (kind, type, rank); every line carries the canonical
key, the payload, and a sha256 checksum of both.  Corrupt or truncated
records, undecodable bytes included, are skipped on load (forcing
recomputation), and later records win over earlier ones for the same
key, so appending is always safe.  The cache directory is created when
the cache is opened, so a directory that cannot be made fails before
anything is computed; that, and a cache file that cannot be read or
appended to, raises ConfigError naming the path.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import ConfigError

ENV_VAR = "ALCOVE_KL_CACHE"


def cache_dir(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "alcove-kl"


def _digest(key: str, payload) -> str:
    body = json.dumps([key, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


class RecordCache:
    """A checksummed key -> JSON-payload store backed by one JSONL file."""

    def __init__(self, directory: Path, name: str):
        self.path = Path(directory) / f"{name}.jsonl"
        self._records: dict[str, object] = {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise self._unusable(exc) from exc
        self._load()

    def _unusable(self, exc: OSError) -> ConfigError:
        return ConfigError(f"cache file {str(self.path)!r} is unusable: {exc}")

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise self._unusable(exc) from exc
        for line in data.splitlines():
            try:
                rec = json.loads(line.decode("utf-8"))
                key, payload, sha = rec["key"], rec["payload"], rec["sha"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                continue  # blank or corrupt record: recompute later
            if _digest(key, payload) != sha:
                continue
            self._records[key] = payload

    def get(self, key: str):
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def put(self, key: str, payload) -> None:
        self._records[key] = payload
        rec = {"key": key, "payload": payload, "sha": _digest(key, payload)}
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        except OSError as exc:
            raise self._unusable(exc) from exc

    def __len__(self) -> int:
        return len(self._records)
