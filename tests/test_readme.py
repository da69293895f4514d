"""The README's library quick start must run and print what it says it prints.

The test runs the README's one ``python`` block in a temporary directory and
checks the figures its comments state: the federated and solo MSEs, to the
four places written there, and the batched run's tenfold bit saving.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} python blocks, expected 1"
    return blocks[0]


def test_readme_quick_start_prints_the_stated_figures(tmp_path, monkeypatch, capsys):
    code = _python_block()
    stated = re.search(r"print\(fed\.mse\(\), solo\.mse\(\)\)\s*# ([\d.]+) vs ([\d.]+)", code)
    assert stated, "README no longer states the federated and solo MSEs"
    assert "# 10x fewer bits than fed" in code
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    capsys.readouterr()
    fed, solo, batched = namespace["fed"], namespace["solo"], namespace["batched"]
    assert f"{fed.mse():.4f}" == stated.group(1)
    assert f"{solo.mse():.4f}" == stated.group(2)
    assert batched.total_downlink_bits * 10 == fed.total_downlink_bits
    assert (tmp_path / "trace.csv").is_file()
