"""No package definition exists only for the tests.

Every function, class and method defined in ``src/alphaflow`` must be
named somewhere in the package or in ``benchmarks/``, outside its own
``def`` or ``class`` line.  Comments and ``__init__.py`` re-exports do
not count as uses; strings do, because the benchmark names the methods
it wraps by string.  Dunder methods are called by Python itself and are
not checked.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alphaflow"

#: kept without a caller: the pointwise one-sided check that the PDE
#: estimate is to share, and the stress entries' real-space view
ALLOWED = {"check_one_sided", "entry_values"}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _without_comments(source: str) -> list[str]:
    """The source lines with every comment blanked out."""
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def _uses() -> dict[str, set[tuple[Path, int]]]:
    """Identifier -> the (file, line) places it appears on."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "benchmarks").rglob("*.py"))
    uses = {}
    for path in files:
        for row, line in enumerate(_without_comments(path.read_text()), start=1):
            for name in _IDENTIFIER.findall(line):
                uses.setdefault(name, set()).add((path, row))
    return uses


def _definitions() -> list[tuple[str, Path, int]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.name, path, node.lineno))
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    uses = _uses()
    unused = sorted(
        f"{path.name}:{row} {name}"
        for name, path, row in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and not uses.get(name, set()) - {(path, row)}
    )
    assert not unused, "defined in src/alphaflow, named by no package or " \
                       "benchmark code:\n" + "\n".join(unused)


def test_allowlist_names_only_live_definitions():
    defined = {name for name, _, _ in _definitions()}
    assert ALLOWED <= defined
