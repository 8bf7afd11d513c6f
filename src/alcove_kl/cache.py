"""Append-only on-disk cache with per-record checksums.

One JSONL file per (kind, type, rank); every line carries the canonical
key, the payload, and a sha256 checksum of both.  Every key begins with
the engine version ``ENGINE_VERSION``, which the cache adds itself, so a
record written by an engine that emitted other values, or laid its
records out otherwise, is never read.  The cache stores any JSON
payload; the command line stores the printed cells of a table.
Corrupt or truncated records, undecodable bytes included, are skipped on
load (forcing recomputation), and later records win over earlier ones
for the same key, so appending is always safe.  When the dead lines
(corrupt, superseded or of another engine version) are at least as many
as the live records, and at least one record is live, loading rewrites
the file with the live records alone, through a temporary file and an
atomic rename, so each rewrite writes no more lines than the dead ones
appended since the last; a file that cannot be rewritten is left as it
was and served as loaded.  The cache directory is created when the
cache is opened, so a directory that cannot be made fails before
anything is computed; that, and a cache file that cannot be read or
appended to, raises ConfigError naming the path.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import ConfigError

ENV_VAR = "ALCOVE_KL_CACHE"

# Bumped whenever an emitted value or the layout of a record changes, so
# that every record written before the change is recomputed instead of
# read.  2: a record holds the printed cells of its table.  3: a row is
# keyed by the generator word as given, not by the element it spells.
ENGINE_VERSION = 3


def cache_dir(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "alcove-kl")


def _digest(key: str, payload) -> str:
    body = json.dumps([key, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _line(key: str, payload) -> str:
    rec = {"key": key, "payload": payload, "sha": _digest(key, payload)}
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


class RecordCache:
    """A checksummed key -> JSON-payload store backed by one JSONL file."""

    def __init__(self, directory: str | os.PathLike, name: str):
        self.path = os.path.join(directory, f"{name}.jsonl")
        self._version = f"engine {ENGINE_VERSION}:"
        self._records: dict[str, object] = {}
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise self._unusable(exc) from exc
        self._load()

    def _unusable(self, exc: OSError) -> ConfigError:
        return ConfigError(f"cache file {self.path!r} is unusable: {exc}")

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise self._unusable(exc) from exc
        lines = data.splitlines()
        for line in lines:
            try:
                rec = json.loads(line.decode("utf-8"))
                key, payload, sha = rec["key"], rec["payload"], rec["sha"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                continue  # blank or corrupt record: recompute later
            if (
                not isinstance(key, str)
                or not key.startswith(self._version)
                or _digest(key, payload) != sha
            ):
                continue  # a corrupt record, or one of another engine version
            self._records[key] = payload
        live = len(self._records)
        if 0 < live <= len(lines) - live:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the file with the live records only, or leave it be."""
        import tempfile  # only a compacting load needs it

        tmp = None
        try:
            directory, name = os.path.split(self.path)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=name, suffix=".tmp")
            with open(fd, "w", encoding="utf-8") as fh:
                fh.writelines(_line(k, v) for k, v in self._records.items())
            os.chmod(tmp, os.stat(self.path).st_mode & 0o7777)
            os.replace(tmp, self.path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def get(self, key: str):
        return self._records.get(self._version + key)

    def __contains__(self, key: str) -> bool:
        return self._version + key in self._records

    def put(self, key: str, payload) -> None:
        key = self._version + key
        self._records[key] = payload
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_line(key, payload))
        except OSError as exc:
            raise self._unusable(exc) from exc

    def __len__(self) -> int:
        return len(self._records)
