"""The committed ``BENCH_*.json`` files are written only on request.

A bench run prints its tables and hands its artifact to
``merge_json_artifact``; that writes only when
``RICSA_BENCH_ARTIFACT_DIR`` names a directory (the CI bench jobs set it
to the workspace).  Without it — the Tier-1 command — the committed
files must come out byte-identical, so a PR no longer carries a second
commit of single-run noise.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import merge_json_artifact, write_json_artifact

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ("BENCH_executor.json", "BENCH_web_concurrency.json")


def test_committed_artifacts_are_left_alone_unless_a_directory_is_named(
        tmp_path, monkeypatch):
    before = {name: (ROOT / name).read_bytes() for name in COMMITTED}
    monkeypatch.delenv("RICSA_BENCH_ARTIFACT_DIR", raising=False)
    for name in COMMITTED:
        merge_json_artifact(ROOT / name, {"probe": {"runs": 1}})
        write_json_artifact(ROOT / name, {"probe": {"runs": 1}})
    assert {name: (ROOT / name).read_bytes() for name in COMMITTED} == before

    monkeypatch.setenv("RICSA_BENCH_ARTIFACT_DIR", str(tmp_path))
    write_json_artifact(ROOT / COMMITTED[0], {"grid": [1, 2]})
    merge_json_artifact(ROOT / COMMITTED[0], {"probe": {"runs": 1}})
    written = json.loads((tmp_path / COMMITTED[0]).read_text())
    assert written == {"grid": [1, 2], "probe": {"runs": 1}}  # merged, in place
    assert sorted(p.name for p in tmp_path.iterdir()) == [COMMITTED[0]]
    assert {name: (ROOT / name).read_bytes() for name in COMMITTED} == before
