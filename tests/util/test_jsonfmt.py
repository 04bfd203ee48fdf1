"""Atomic JSON writes: all of the new document, or the old file untouched."""

import json
import os

import pytest

from repro.util import jsonfmt
from repro.util.jsonfmt import write_json_atomic

PREVIOUS = b'{\n  "previous": true\n}\n'


@pytest.fixture
def target(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(PREVIOUS)
    return path


def leftovers(path):
    return sorted(entry.name for entry in path.parent.iterdir() if entry != path)


class TestWriteJsonAtomic:
    def test_document_is_written_canonically(self, target):
        document = {"b": [1, 2.5, None], "a": {"z": "é", "y": 0}}
        assert write_json_atomic(target, document) == target
        assert target.read_text(encoding="utf-8") == (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        assert leftovers(target) == []

    def test_text_is_written_verbatim(self, target):
        write_json_atomic(str(target), "# TYPE x counter\nx_total 3\n# EOF\n")
        assert target.read_bytes() == b"# TYPE x counter\nx_total 3\n# EOF\n"

    def test_serialization_error_keeps_the_previous_file(self, target):
        with pytest.raises(TypeError):
            write_json_atomic(target, {"bad": object()})
        assert target.read_bytes() == PREVIOUS
        assert leftovers(target) == []

    def test_failed_replace_keeps_the_previous_file(self, target, monkeypatch):
        def refuse(source, destination):
            raise KeyboardInterrupt

        monkeypatch.setattr(jsonfmt.os, "replace", refuse)
        with pytest.raises(KeyboardInterrupt):
            write_json_atomic(target, {"new": True})
        assert target.read_bytes() == PREVIOUS
        assert leftovers(target) == []

    def test_creates_a_new_file_as_open_would(self, tmp_path):
        path = tmp_path / "fresh.json"
        write_json_atomic(path, [1, 2])
        assert path.read_text() == "[\n  1,\n  2\n]\n"
        reference = tmp_path / "reference.json"
        reference.write_text("[]")
        assert os.stat(path).st_mode == os.stat(reference).st_mode
