"""Count the code lines of a Python source tree, per module and in total.

A code line is a physical line that holds at least one token of code.
Blank lines, comment lines and docstring lines are not counted; a
docstring is a string that forms a statement on its own.  Standard library
only.

Usage: python tools/code_lines.py [directory [base]]   (default: src)

With a second tree, ``base``, each module (matched by its path under the
tree) is printed with its count in ``directory``, its count in ``base`` and
the difference; a module missing from one tree counts 0 there.
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


def tree_counts(root: Path) -> dict[Path, int]:
    """The code lines of each module under ``root``, by its path under it."""
    return {path.relative_to(root): code_lines(path) for path in root.rglob("*.py")}


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    trees = [tree_counts(root)] + [tree_counts(Path(base)) for base in argv[2:3]]
    if len(trees) > 1:
        print(f"{'lines':>6}  {'base':>6}  {'change':>6}")
    rows = [(root / rel, [tree.get(rel, 0) for tree in trees])
            for rel in sorted(set().union(*trees))]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    for name, (count, *base) in rows:
        against = f"  {base[0]:6d}  {count - base[0]:+6d}" if base else ""
        print(f"{count:6d}{against}  {name}")
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
