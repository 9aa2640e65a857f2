"""Line counts of the package: total and code-only lines per module.

Code-only lines hold at least one token that is not a comment, and are
not part of a docstring (the leading string of a module, class or
function).  Blank lines count only in the total.

    python tools/loc.py            # src/edgecone of this checkout
    python tools/loc.py OTHER/src/edgecone
    python tools/loc.py --against HEAD~1   # plus the change from a git revision

With ``--against REV`` two more columns give each module's change in
total and code-only lines since ``REV``, whose files are read with
``git show REV:path``; a module present on one side only counts as
empty on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(cwd), *args], check=True,
                          capture_output=True, text=True).stdout


def _counts_at(rev: str, package: Path) -> dict[str, tuple[int, int]]:
    """(total, code) per module of ``package`` as committed at ``rev``."""
    top = Path(_git(package, "rev-parse", "--show-toplevel").strip())
    rel = package.resolve().relative_to(top.resolve()).as_posix()
    paths = _git(top, "ls-tree", "--name-only", rev, f"{rel}/").splitlines()
    return {Path(path).name: count(_git(top, "show", f"{rev}:{path}"))
            for path in paths if path.endswith(".py")}


def _column_sums(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return tuple(map(sum, zip((0, 0), *counts.values())))


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description="Line counts per module.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=root / "src" / "edgecone")
    parser.add_argument("--against", metavar="REV",
                        help="also print each module's change since git revision REV")
    args = parser.parse_args(argv)
    now = {path.name: count(path.read_text(encoding="utf-8"))
           for path in args.package.glob("*.py")}
    before = _counts_at(args.against, args.package) if args.against else {}
    rows = [(name, now.get(name, (0, 0)), before.get(name, (0, 0)))
            for name in sorted(now.keys() | before.keys())]
    rows.append(("all", _column_sums(now), _column_sums(before)))
    print(f"{'module':<16}{'total':>7}{'code':>7}"
          + (f"{'dtotal':>8}{'dcode':>7}" if args.against else ""))
    for name, (total, code), (old_total, old_code) in rows:
        print(f"{name:<16}{total:>7}{code:>7}" + (
            f"{total - old_total:>+8}{code - old_code:>+7}" if args.against else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
