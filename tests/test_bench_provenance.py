"""``benchmarks/_helpers.write_bench_json`` stamps every artifact with
its provenance: commit, dirty-tree flag, usable cores, numeric library
versions, scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import _helpers  # noqa: E402


def test_artifact_carries_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(_helpers, "REPO_ROOT", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    path = _helpers.write_bench_json("probe", {"summary": {"x": np.float64(1.5)}})
    assert path == str(tmp_path / "BENCH_probe.json")
    data = json.loads(Path(path).read_text())
    assert data["summary"] == {"x": 1.5}
    prov = data["provenance"]
    assert set(prov) == {
        "git_sha", "git_dirty", "usable_cores", "numpy", "scipy", "cffi", "scale",
    }
    assert prov["git_sha"] is None  # tmp_path is no checkout
    assert prov["git_dirty"] is None
    assert prov["usable_cores"] == (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    assert prov["numpy"] == np.__version__
    assert prov["scale"] == "tiny"


def test_provenance_names_the_checkout_commit():
    try:
        expected = subprocess.run(
            ["git", "-C", _helpers.REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        expected = None
    assert _helpers.provenance()["git_sha"] == expected


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
         *args],
        capture_output=True, check=True,
    )


def _init_checkout(root):
    _git(root, "init", "-q")
    (root / "tracked.txt").write_text("a\n")
    _git(root, "add", "tracked.txt")
    _git(root, "commit", "-q", "-m", "init")


def test_provenance_flags_a_dirty_tree(tmp_path, monkeypatch):
    try:
        _init_checkout(tmp_path)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a working git")
    monkeypatch.setattr(_helpers, "REPO_ROOT", str(tmp_path))
    assert _helpers.provenance()["git_dirty"] is False
    (tmp_path / "untracked.txt").write_text("new\n")
    assert _helpers.provenance()["git_dirty"] is False  # untracked: ignored
    (tmp_path / "tracked.txt").write_text("b\n")
    prov = _helpers.provenance()
    assert prov["git_dirty"] is True
    assert prov["git_sha"] is not None and len(prov["git_sha"]) == 40


def test_rewriting_a_committed_artifact_reads_clean(tmp_path, monkeypatch):
    # Re-running a bench over its committed record on a clean tree is a
    # clean measurement: the stamp is taken before the file is rewritten.
    try:
        _init_checkout(tmp_path)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a working git")
    monkeypatch.setattr(_helpers, "REPO_ROOT", str(tmp_path))
    path = _helpers.write_bench_json("probe", {"summary": {"x": 1}})
    _git(tmp_path, "add", path)
    _git(tmp_path, "commit", "-q", "-m", "record")
    _helpers.write_bench_json("probe", {"summary": {"x": 2}})
    data = json.loads(Path(path).read_text())
    assert data["summary"] == {"x": 2}
    assert data["provenance"]["git_dirty"] is False


def test_rewritten_root_records_do_not_dirty_the_tree(tmp_path, monkeypatch):
    # A second bench in one re-run stamps clean although the first one
    # rewrote its committed record; an edited source file still reads dirty.
    try:
        _init_checkout(tmp_path)
        (tmp_path / "BENCH_x.json").write_text("{}\n")
        _git(tmp_path, "add", "BENCH_x.json")
        _git(tmp_path, "commit", "-q", "-m", "record")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a working git")
    monkeypatch.setattr(_helpers, "REPO_ROOT", str(tmp_path))
    (tmp_path / "BENCH_x.json").write_text('{"rewritten": true}\n')
    assert _helpers.provenance()["git_dirty"] is False
    (tmp_path / "tracked.txt").write_text("b\n")
    assert _helpers.provenance()["git_dirty"] is True
