"""Count the code lines of a Python source tree, per module and in total.

A code line is a physical line that holds at least one token of code.
Blank lines, comment lines and docstring lines are not counted; a
docstring is a string that forms a statement on its own.  Standard library
only.

Usage: python tools/code_lines.py [directory]   (default: src)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
