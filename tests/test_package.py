"""Package-wide guarantees: outputs are written atomically, and the
package imports nothing at run time beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import llpkit
from llpkit.cli import _write_json
from llpkit.files import write_atomic


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
