"""Count physical and code lines per module of the tlsperm package.

A code line holds at least one token that is not a comment, a line break, an
indent or a docstring; blank lines, comment-only lines and docstring lines do
not count. Docstrings are found with ast (the leading string of a module,
class or function body) and tokens with tokenize. Run from the repository
root, or point --src at another tree's src directory:

    python3 tools/code_lines.py [--src SRC]

Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in SKIPPED:
            continue
        spanned = set(range(tok.start[0], tok.end[0] + 1))
        if tok.type == tokenize.STRING and spanned <= docs:
            continue
        code |= spanned
    return len(text.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=Path(__file__).resolve().parents[1] / "src",
                        type=Path, help="directory that holds the tlsperm package")
    args = parser.parse_args(argv)
    paths = sorted((args.src / "tlsperm").glob("*.py"))
    if not paths:
        parser.error(f"no tlsperm package under {args.src}")
    total_physical = total_code = 0
    print(f"{'module':<16} {'physical':>8} {'code':>6}")
    for path in paths:
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>8} {code:>6}")
    print(f"{'total':<16} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
