"""The package's documented surface: the export list and the README examples,
run as written."""

import ast
import json
import pathlib
import shlex

import pytest

import realroots
from realroots import Polynomial
from realroots.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _readme_block(heading: str, lang: str) -> str:
    """Body of the first fenced block of the given language under a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands() -> list[list[str]]:
    """Each command of the CLI block as argv, without the program name;
    a quoted argument may run over several lines."""
    commands, pending = [], ""
    for line in _readme_block("CLI", "sh").splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending = f"{pending}\n{line}" if pending else line
        try:
            argv = shlex.split(pending)
        except ValueError:  # an open quote continues on the next line
            continue
        assert argv[0] == "realroots", pending
        commands.append(argv[1:])
        pending = ""
    assert not pending
    return commands


class TestExports:
    def _imported(self) -> set[str]:
        tree = ast.parse(pathlib.Path(realroots.__file__).read_text())
        return {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")
        }

    def test_all_matches_the_imports(self):
        names = realroots.__all__
        assert len(names) == len(set(names))
        assert set(names) == self._imported()
        for name in names:
            assert getattr(realroots, name) is not None

    def test_star_import(self):
        namespace: dict = {}
        exec("from realroots import *", namespace)
        assert set(realroots.__all__) <= namespace.keys()


def test_library_block_prints_its_comments():
    block = _readme_block("Library", "python")
    printed = []
    exec(block, {"print": printed.append})
    comments = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(comments)
    polys = [(p, c) for p, c in zip(printed, comments) if isinstance(p, Polynomial)]
    assert len(polys) == 3
    for poly, comment in polys:
        assert str(poly) == comment


COMMANDS = [argv for argv in _readme_commands() if argv[:2] != ["verify", "all"]]


def test_cli_block_is_complete():
    assert len(COMMANDS) == 19


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)
