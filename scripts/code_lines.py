"""Count the code lines of each `src/rulesynth` module.

A code line is a line that is not blank, not a comment-only line and not
part of a docstring (the first statement of a module, class or function
when it is a string literal).  Docstrings are found with `ast`, blank and
comment lines by scanning the text.

    python scripts/code_lines.py            # every module, then the total
    python scripts/code_lines.py FILE ...   # the named files instead
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rulesynth"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (1-based) covered by every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skipped = docstring_lines(ast.parse(source))
    stripped = (line.strip() for line in source.splitlines())
    return sum(1 for number, text in enumerate(stripped, start=1)
               if number not in skipped and text and not text.startswith("#"))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6}  {path.name}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
