"""Package-wide guarantees: outputs are written atomically and only by
``llpkit.files``, which alone ends CSV lines, the package imports nothing
at run time beyond numpy and the standard library, the README names only
flags the CLI accepts, its library example runs, a failing property test
reports its example under the project's pytest settings, the output
digest tool runs, and every definition in the package is named somewhere in
it."""

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import llpkit
from llpkit.cli import build_parser
from llpkit.files import write_atomic, write_json

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
CLI_DIGEST = README.with_name("tools") / "cli_digest.py"


def failing_write(fh):
    fh.write("partial")
    raise ValueError("serialisation failed")


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_atomic(path, failing_write),
        # json.dump raises TypeError on an object it cannot serialise.
        lambda path: write_json(path, {"ok": 1, "bad": object()}, indent=2),
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


# Definitions in src/llpkit that nothing there names, and why they stay.
UNNAMED_BUT_KEPT = {
    "ClassifierParams.with_theta": "perfbench/test_perfbench.py:126 calls it",
}


def test_every_definition_is_named_or_exported():
    """Every function, class and method in ``src/llpkit`` is named somewhere
    else in the package, or imported by ``llpkit/__init__.py``: code that
    nothing calls is deleted, not kept for the tests.  Dunder methods are
    called by Python itself.  A definition counts as named when its name is
    read as a variable, an attribute, an import (so ``__init__.py``'s
    exports count) or a string anywhere in the package."""
    package = Path(llpkit.__file__).parent
    trees = {
        source.stem: ast.parse(source.read_text(encoding="utf-8"), str(source))
        for source in sorted(package.glob("*.py"))
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)

    def definitions(node, prefix):
        """(qualified name, name) of every definition below ``node``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child.name
                yield from definitions(child, f"{prefix}{child.name}.")
            else:
                yield from definitions(child, prefix)

    unnamed = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in definitions(tree, "")
        if name not in named
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in UNNAMED_BUT_KEPT
    )
    assert not unnamed, f"defined in llpkit but named nowhere else: {unnamed}"
    still_unnamed = [
        qualified
        for qualified in UNNAMED_BUT_KEPT
        if qualified.rsplit(".", 1)[1] not in named
    ]
    assert still_unnamed == list(UNNAMED_BUT_KEPT), "an exemption is no longer needed"


# Calls that write, rename, remove or create a file or directory.
WRITING_CALLS = {"json.dump", "os.replace", "os.remove", "os.makedirs"}
WRITING_METHODS = {"mkdir", "write_text", "write_bytes"}


def _open_writes(call):
    """Whether a call to the builtin ``open`` may write: its mode is not a
    constant, or it names a write, append, create or update mode."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r")
    )
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def other_modules():
    """(file name, syntax tree) of every ``llpkit`` module but ``files.py``."""
    package = Path(llpkit.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "files.py"]
    assert sources
    for source in sources:
        yield source.name, ast.parse(source.read_text(encoding="utf-8"), str(source))


def test_only_files_module_writes():
    """``llpkit.files`` is the one module that writes files, so one policy
    (parent directories, temp file and rename) covers every output."""
    writes = []
    for name, tree in other_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                ast.unparse(func) in WRITING_CALLS
                or isinstance(func, ast.Attribute) and func.attr in WRITING_METHODS
                or isinstance(func, ast.Name) and func.id == "open" and _open_writes(node)
            ):
                writes.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not writes, f"write outside llpkit.files: {writes}"


def test_only_files_module_ends_csv_lines():
    """Only ``llpkit.files`` spells the CSV line end ``\\r\\n``: every other
    module hands its cells to ``files.write_csv``."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in other_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "\r\n" in node.value
    ]
    assert not found, f"CSV line ends outside llpkit.files: {found}"


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


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # One line per print(); a trailing comment on the call states its output.
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    for call, out in zip(calls, printed):
        if "  # " in call:
            assert out == call.split("  # ", 1)[1], call


def test_failing_property_test_prints_its_example(tmp_path):
    # Printing the example imports libcst, which warns with a
    # DeprecationWarning that pyproject.toml must not turn into an error.
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st

        @given(st.integers())
        @settings(database=None, derandomize=True)
        def test_fails(x):
            assert x < 10
    """), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert result.returncode == 1, output


def test_cli_digest_hashes_every_written_file(tmp_path):
    """tools/cli_digest.py, which byte-identity claims rest on, prints one
    SHA-256 per file that its commands write, then one line per failing
    command: exit 2, nothing written, one ``error:`` line."""
    env = dict(os.environ)
    src = str(Path(llpkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(CLI_DIGEST)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    *lines, fold, size, hidden = result.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines), lines
    for failed in (fold, size, hidden):
        outcome = failed.split(": ", 1)[1]
        assert outcome.startswith("exit 2, wrote nothing, stderr 'error: "), failed
        assert outcome.endswith("\\n'") and outcome.count("\\n") == 1, failed
    runs = ("mle", "amle", "dllp", "supervised")
    expected = {
        "data.csv", "heldout.csv", "bags.csv", "sweep.csv", "sweep.csv.manifest.json",
        "cv/manifest.json", "cv/cv_summary.json",
        *(f"cv/curve_fold{k}.csv" for k in range(3)),
        *(f"{run}/{name}" for run in runs
          for name in ("manifest.json", "checkpoint.json", "curve.csv", "eval.json")),
    }
    paths = [line.split(" ", 1)[1] for line in lines]
    assert len(paths) == len(expected)
    assert set(paths) == expected
