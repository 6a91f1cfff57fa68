"""No package definition exists only for the tests.

Every function, class and method defined in ``src/alphaflow`` must be
named somewhere in the package or in ``benchmarks/``, outside its own
``def`` or ``class`` line.  Comments, ``__init__.py`` re-exports and the
package's own strings (docstrings, messages) do not count as uses.
Strings under ``benchmarks/`` do, because the benchmark names the methods
it wraps by string; so do the expressions inside f-strings.  Dunder
methods are called by Python itself and are not checked.

A class or static method must also be named on its own class: as
``<DefiningClass>.<name>``, ``self.<name>`` or ``cls.<name>``.  A name
that another class's method shares (``zero``) does not count.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alphaflow"

#: kept without a caller: the pointwise one-sided check that the PDE
#: estimate is to share, the stress entries' real-space view, and the
#: d(t, y) = 2 c(t) |y| that ``OdeProblem``'s docstring tells users to
#: derive with it from a dissipative linear + bilinear split
ALLOWED = {"check_one_sided", "entry_values", "one_sided_bound_from_decomposition"}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _is_plain_string(tok) -> bool:
    """A string literal other than an f-string, whose expressions are code."""
    prefix = tok.string[: len(tok.string) - len(tok.string.lstrip("rRbBuUfF"))]
    return tok.type == tokenize.STRING and "f" not in prefix.lower()


def _code_lines(source: str, keep_strings: bool) -> list[str]:
    """The source lines with every comment, and unless kept every plain string, blanked."""
    lines = [list(line) for line in source.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT or (not keep_strings and _is_plain_string(tok)):
            (row, col), (end_row, end_col) = tok.start, tok.end
            for r in range(row, end_row + 1):
                line = lines[r - 1]
                stop = end_col if r == end_row else len(line)
                line[col if r == row else 0:stop] = " " * (stop - (col if r == row else 0))
    return ["".join(line) for line in lines]


def _code() -> list[tuple[Path, list[str]]]:
    """Each package (but ``__init__.py``) and benchmark file with its code lines."""
    files = [(p, False) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [(p, True) for p in sorted((ROOT / "benchmarks").rglob("*.py"))]
    return [(path, _code_lines(path.read_text(), keep)) for path, keep in files]


def _uses() -> dict[str, set[tuple[Path, int]]]:
    """Identifier -> the (file, line) places it appears on."""
    uses = {}
    for path, lines in _code():
        for row, line in enumerate(lines, start=1):
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


def _class_and_static_methods() -> list[tuple[str, str, Path, int]]:
    """(defining class, name, file, line) of each class and static method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in node.decorator_list):
                    out.append((cls.name, node.name, path, node.lineno))
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


def test_every_class_and_static_method_is_called_on_its_class():
    code = "\n".join(line for _, lines in _code() for line in lines)
    unused = sorted(
        f"{path.name}:{row} {owner}.{name}"
        for owner, name, path, row in _class_and_static_methods()
        if name not in ALLOWED
        and not re.search(rf"\b(?:{owner}|self|cls)\s*\.\s*{name}\b", code)
    )
    assert not unused, "class or static method in src/alphaflow that no package " \
                       "or benchmark code names on its class:\n" + "\n".join(unused)
