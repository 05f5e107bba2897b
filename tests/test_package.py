"""Package-wide guarantees: outputs are written atomically, the package
imports nothing at run time beyond numpy and the standard library, and
the README names only flags the CLI accepts."""

import argparse
import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

import llpkit
from llpkit.cli import _write_json, build_parser
from llpkit.files import write_atomic

README = Path(__file__).resolve().parent.parent / "README.md"


def failing_write(fh):
    fh.write("partial")
    raise ValueError("serialisation failed")


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_atomic(path, failing_write),
        # json.dump raises TypeError on an object it cannot serialise.
        lambda path: _write_json(path, {"ok": 1, "bad": object()}),
    ],
    ids=["write_atomic", "write_json"],
)
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "out.json"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises((ValueError, TypeError)):
        write(path)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_imports_only_numpy_and_stdlib():
    package = Path(llpkit.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{source.name}:{node.lineno} imports {name}"
                )


def subcommand_flags():
    """{command: set of option strings} for every ``llpkit`` subcommand."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: set(command._option_string_actions)
        for name, command in sub.choices.items()
    }


def test_readme_flags_are_accepted():
    flags = subcommand_flags()
    text = README.read_text(encoding="utf-8")
    unknown = []
    # Command lines: ``llpkit <command> ...``, with backslash continuations.
    for line in re.findall(r"^[ \t]*(llpkit (?:.*\\\n)*.*)", text, re.MULTILINE):
        words = shlex.split(line.replace("\\\n", " "), comments=True)
        command = words[1]
        assert command in flags, f"README runs unknown command {command!r}"
        unknown += [
            f"llpkit {command} {w}"
            for w in words[2:]
            if w.startswith("--") and w not in flags[command]
        ]
    # Flags named in prose, in backticks.
    known = set().union(*flags.values())
    prose = re.findall(r"`(--[a-z][a-z0-9-]*)`", text)
    unknown += [flag for flag in prose if flag not in known]
    assert not unknown, f"README names flags the CLI does not accept: {unknown}"
