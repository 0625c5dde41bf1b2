"""Count the code lines of the ``bookcoref`` package, per module and in total.

A line counts when it holds a token that is not a comment, a blank, or part
of a docstring or other bare-string statement. Tokens come from
``tokenize``, and the bare-string statements from ``ast``. A string token
that spans several lines counts each of them.

    python3 tools/code_lines.py [ROOT]

``ROOT`` defaults to ``src/bookcoref`` next to this directory; every
``*.py`` file under it is counted.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of code lines in the Python file at ``path``."""
    with open(path, "rb") as f:
        source = f.read()
    strings: set[int] = set()
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE or tok.type == tokenize.ENCODING:
                continue
            rows = range(tok.start[0], tok.end[0] + 1)
            if not strings.issuperset(rows):
                lines.update(rows)
    return len(lines)


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "bookcoref")
    total = 0
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                count = code_lines(path)
                total += count
                print(f"{count:6d}  {os.path.relpath(path, root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
