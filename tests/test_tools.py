"""Tests for the repository's stdlib tools."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blank_comment_and_docstring_lines(tmp_path, capsys):
    source = tmp_path / "pkg" / "mod.py"
    source.parent.mkdir()
    source.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "def f(x):\n"
        '    """One-line docstring."""\n'
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        'TEXT = """a string\n'
        'that is assigned"""\n'
    )
    tool = _code_lines()
    # import, def, the two lines of the return, the two of the assignment
    assert tool.code_lines(source) == 6
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["6", str(source)] and out[-1].split() == ["6", "total"]


def test_code_lines_of_two_trees_print_both_counts_and_the_change(tmp_path, capsys):
    tree, base = tmp_path / "tree", tmp_path / "base"
    for root, modules in ((tree, {"kept.py": "a = 1\nb = 2\n", "new.py": "c = 3\n"}),
                          (base, {"kept.py": "a = 1\n# b\n", "gone.py": "d = 4\ne = 5\n"})):
        (root / "pkg").mkdir(parents=True)
        for name, text in modules.items():
            (root / "pkg" / name).write_text(text)
    tool = _code_lines()
    assert tool.main(["code_lines.py", str(tree), str(base)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    # a module missing from one tree counts 0 there; modules are matched by
    # their path under each tree and named by the first tree's
    assert out == [["lines", "base", "change"],
                   ["0", "2", "-2", str(tree / "pkg" / "gone.py")],
                   ["2", "1", "+1", str(tree / "pkg" / "kept.py")],
                   ["1", "0", "+1", str(tree / "pkg" / "new.py")],
                   ["3", "3", "+0", "total"]]
