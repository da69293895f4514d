"""The README's examples must run and do what it says they do.

One test runs the README's one ``python`` block in a temporary directory and
checks the figures its comments state: the federated and solo MSEs, to the
four places written there, and the batched run's tenfold bit saving.  The
other writes its one ``json`` block, the config example, to a file and runs
the command line's ``validate`` and ``run`` on it, as written and with
``"audit": true``.
"""

import json
import re
from pathlib import Path

from fedoms.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} {language} blocks, expected 1"
    return blocks[0]


def test_readme_quick_start_prints_the_stated_figures(tmp_path, monkeypatch, capsys):
    code = _block("python")
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


def test_readme_config_example_validates_runs_and_audits(tmp_path, capsys):
    block = _block("json")
    audited = json.dumps({**json.loads(block), "audit": True})
    for audit, text in ((False, block), (True, audited)):
        path = tmp_path / f"config-audit-{audit}.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0, capsys.readouterr().out
        out = tmp_path / f"run-audit-{audit}"
        assert main(["run", str(path), "--out", str(out)]) == 0, capsys.readouterr().out
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert ("audit_mismatches" in meta) is audit
        assert meta.get("audit_mismatches", []) == []
