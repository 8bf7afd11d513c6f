import os

import pytest

from alcove_kl import cache
from alcove_kl.cache import RecordCache


def _line(key, payload, version=cache.ENGINE_VERSION):
    return cache._line(f"engine {version}:{key}", payload)


def _write(tmp_path, *lines):
    path = tmp_path / "kl_A1.jsonl"
    path.write_text("".join(lines))
    return path


def test_old_version_and_superseded_records_are_compacted(tmp_path):
    path = _write(
        tmp_path,
        _line("a", 1, version=cache.ENGINE_VERSION - 1),
        _line("a", 2),
        _line("b", 3),
        _line("a", 4),
        _line("b", 5, version=cache.ENGINE_VERSION - 1),
    )
    path.chmod(0o644)
    store = RecordCache(tmp_path, "kl_A1")  # 3 dead lines, 2 live records
    assert (store.get("a"), store.get("b"), len(store)) == (4, 3, 2)
    assert path.read_text() == _line("a", 4) + _line("b", 3)
    assert path.stat().st_mode & 0o777 == 0o644
    assert os.listdir(tmp_path) == ["kl_A1.jsonl"]
    reread = RecordCache(tmp_path, "kl_A1")
    assert (reread.get("a"), reread.get("b")) == (4, 3)


def test_a_tie_is_compacted_to_its_live_line(tmp_path):
    path = _write(tmp_path, _line("a", 1, version=cache.ENGINE_VERSION - 1), _line("a", 2))
    assert RecordCache(tmp_path, "kl_A1").get("a") == 2
    assert path.read_text() == _line("a", 2)


def test_corrupt_lines_are_compacted(tmp_path):
    path = tmp_path / "kl_A1.jsonl"
    live = _line("a", [1, 2])
    path.write_bytes(b"\xff\xfe garbage\n" + live.encode() + live[:-9].encode() + b"\n")
    store = RecordCache(tmp_path, "kl_A1")
    assert store.get("a") == [1, 2]
    assert path.read_text() == live


def test_a_failed_rename_leaves_the_file_and_serves_the_records(tmp_path, monkeypatch):
    stamp = (_line("a", 1) + "not json\n" + _line("a", 2)).encode()
    path = tmp_path / "kl_A1.jsonl"
    path.write_bytes(stamp)

    def refuse(src, dst):
        raise PermissionError("read-only cache")

    monkeypatch.setattr(cache.os, "replace", refuse)
    store = RecordCache(tmp_path, "kl_A1")
    assert store.get("a") == 2 and len(store) == 1
    assert path.read_bytes() == stamp
    assert os.listdir(tmp_path) == ["kl_A1.jsonl"]  # no temporary file left


@pytest.mark.parametrize("dead", [0, 1])
def test_a_file_with_no_live_record_is_left_to_append_to(tmp_path, dead):
    stamp = "not json\n" * dead
    path = _write(tmp_path, stamp)
    store = RecordCache(tmp_path, "kl_A1")
    assert len(store) == 0
    assert path.read_text() == stamp
