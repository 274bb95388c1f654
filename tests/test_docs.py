"""Doc-sync tests: the documentation set must track the code.

Three contracts, all cheap enough for the tier-1 suite:

* every ``simulate``/``figure`` CLI flag in the argparse spec appears in
  ``docs/user_guide.md`` (new flags must be documented in the same PR);
* every engine name in the registry appears in ``docs/engines.md`` (and
  in the user guide's ``--engine`` row), and the guide carries the
  engine x knob matrix rendered from the capability table;
* the fenced ``bash``/``python`` quickstart blocks in the README parse,
  and the runnable ones execute at tiny scale;
* every relative markdown link in ``docs/`` and the README resolves to a
  file in the repository (the CI docs job runs this module as the link
  check).
"""

import ast
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.engines import ENGINES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
SRC_DIR = os.path.join(REPO_ROOT, "src")


def _read(*parts) -> str:
    with open(os.path.join(REPO_ROOT, *parts)) as fh:
        return fh.read()


def _subcommand_flags(name: str):
    """All option strings (and positional names) of one CLI subcommand."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    command = sub.choices[name]
    flags = []
    for action in command._actions:
        if action.option_strings:
            flags.extend(
                s for s in action.option_strings if s.startswith("--")
            )
        elif action.dest not in ("help",):
            flags.append(action.dest)
    return flags


class TestCliFlagsDocumented:
    @pytest.mark.parametrize("command", ["simulate", "figure"])
    def test_every_flag_in_user_guide(self, command):
        guide = _read("docs", "user_guide.md")
        missing = [
            flag
            for flag in _subcommand_flags(command)
            if flag != "--help" and f"`{flag}`" not in guide
        ]
        assert not missing, (
            f"repro-lb {command} flags missing from docs/user_guide.md: "
            f"{missing} — document new flags in the same PR that adds them"
        )

    def test_guide_mentions_every_subcommand(self):
        guide = _read("docs", "user_guide.md")
        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        for command in sub.choices:
            assert f"`{command}`" in guide or f"cli {command}" in guide, (
                f"subcommand {command!r} undocumented in docs/user_guide.md"
            )


class TestEnginesDocumented:
    def test_every_registered_engine_in_engine_guide(self):
        guide = _read("docs", "engines.md")
        missing = [
            name for name in ENGINES if f"`{name}`" not in guide
        ]
        assert not missing, (
            f"registered engines missing from docs/engines.md: {missing}"
        )

    def test_every_registered_engine_in_user_guide_and_readme(self):
        """The user guide's ``--engine`` row and the README backend list
        track the registry — adding a backend must document it in both."""
        guide = _read("docs", "user_guide.md")
        readme = _read("README.md")
        for name in ENGINES:
            assert f"`{name}`" in guide, (
                f"engine {name!r} missing from docs/user_guide.md"
            )
            assert f"`{name}`" in readme or name in readme, (
                f"engine {name!r} missing from README.md"
            )

    def test_engine_config_fields_in_knob_table(self):
        """Every EngineConfig field appears as a knob row in engines.md."""
        import dataclasses

        from repro.engines import EngineConfig

        guide = _read("docs", "engines.md")
        missing = [
            f.name
            for f in dataclasses.fields(EngineConfig)
            if f"`{f.name}`" not in guide
        ]
        assert not missing, (
            f"EngineConfig fields missing from docs/engines.md: {missing}"
        )


def _capability_matrix() -> str:
    """The engine x knob matrix of ``docs/engines.md``, rendered from
    :mod:`repro.engines.capabilities`: one column per engine, a ✓ where
    the engine honours the knob."""
    from repro.engines.capabilities import (
        CAPABILITIES,
        ENGINE_COLUMNS,
        UNIVERSAL,
    )

    def cell(cap, engine):
        return "✓" if engine in cap.engines else "–"

    lines = [
        "| setting | " + " | ".join(f"`{e}`" for e in ENGINE_COLUMNS) + " |",
        "|---" * (len(ENGINE_COLUMNS) + 1) + "|",
    ]
    for cap in CAPABILITIES:
        cells = " | ".join(cell(cap, e) for e in ENGINE_COLUMNS)
        lines.append(f"| `{cap.setting}` | {cells} |")
    lines.append("")
    lines.append(
        "Universal (every engine, every value): "
        + ", ".join(f"`{name}`" for name in UNIVERSAL)
        + "."
    )
    return "\n".join(lines)


class TestCapabilityMatrix:
    def test_engine_guide_carries_the_generated_matrix(self):
        matrix = _capability_matrix()
        assert matrix in _read("docs", "engines.md"), (
            "docs/engines.md must contain the engine x knob matrix rendered "
            "from repro.engines.capabilities:\n\n" + matrix
        )


FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def _readme_blocks(language: str):
    return [
        block for lang, block in FENCE.findall(_read("README.md"))
        if lang == language
    ]


class TestReadmeSnippets:
    def test_bash_blocks_parse_and_reference_real_entry_points(self):
        blocks = _readme_blocks("bash")
        assert blocks, "README lost its bash quickstart blocks"
        for block in blocks:
            joined = block.replace("\\\n", " ")  # fold line continuations
            for line in joined.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                # every documented command drives pytest or the repro CLI
                assert ("python -m" in line or line.startswith("cd ")), (
                    f"unexpected README command: {line!r}"
                )

    def test_python_blocks_compile(self):
        for block in _readme_blocks("python"):
            ast.parse(block)
        for name in ("user_guide.md", "engines.md", "benchmarks.md",
                     "index.md", "architecture.md"):
            for lang, block in FENCE.findall(_read("docs", name)):
                if lang == "python":
                    ast.parse(block)

    def test_first_quickstart_commands_run_tiny(self):
        """The README's first quickstart block works verbatim (tiny args)."""
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        for args in (
            ["-m", "repro.cli", "list"],
            ["-m", "repro.cli", "table1", "--scale", "tiny"],
            [
                "-m", "repro.cli", "simulate", "--graph", "torus-100",
                "--scale", "tiny", "--rounds", "5", "--engine", "sharded",
                "--workers", "2", "--replicas", "4",
            ],
        ):
            proc = subprocess.run(
                [sys.executable, *args], env=env, cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr

    def test_user_guide_python_snippets_run_tiny(self):
        """The guide's python snippets execute after downscaling."""
        blocks = [
            b for b in (
                block for lang, block in FENCE.findall(
                    _read("docs", "user_guide.md")
                ) if lang == "python"
            )
        ]
        assert len(blocks) >= 3
        shrunk = []
        for block in blocks:
            block = block.replace("torus_2d(16, 16)", "torus_2d(5, 5)")
            block = block.replace("rounds=200", "rounds=8")
            block = block.replace("n_replicas=32", "n_replicas=4")
            shrunk.append(block)
        script = "\n\n".join(shrunk)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")


class TestMarkdownLinks:
    def _markdown_files(self):
        files = [os.path.join(REPO_ROOT, "README.md")]
        for root, _, names in os.walk(DOCS_DIR):
            files.extend(
                os.path.join(root, n) for n in names if n.endswith(".md")
            )
        return files

    def test_relative_links_resolve(self):
        broken = []
        for path in self._markdown_files():
            with open(path) as fh:
                text = fh.read()
            # drop fenced code blocks — they contain ``[x](y)``-ish noise
            text = FENCE.sub("", text)
            for target, _anchor in LINK.findall(text):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target)
                )
                if not os.path.exists(resolved):
                    broken.append(f"{os.path.relpath(path, REPO_ROOT)} -> {target}")
        assert not broken, f"broken relative markdown links: {broken}"

    def test_docs_set_is_complete(self):
        """The documented docs set exists and the index links all of it."""
        expected = {
            "index.md", "user_guide.md", "engines.md", "benchmarks.md",
            "architecture.md",
        }
        present = {
            n for n in os.listdir(DOCS_DIR) if n.endswith(".md")
        }
        assert expected <= present
        index = _read("docs", "index.md")
        for name in sorted(expected - {"index.md"}):
            assert name in index, f"docs/index.md does not link {name}"
