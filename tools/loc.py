"""Line counts of the package: total and code-only lines per module.

Code-only lines hold at least one token that is not a comment, and are
not part of a docstring (the leading string of a module, class or
function).  Blank lines count only in the total.

    python tools/loc.py            # src/edgecone of this checkout
    python tools/loc.py OTHER/src/edgecone
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    package = Path(argv[0]) if argv else root / "src" / "edgecone"
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<16}{total:>7}{code:>7}")
    print(f"{'all':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
