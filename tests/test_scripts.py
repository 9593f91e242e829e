"""The figure script in scripts/ runs and agrees with the CLI."""

import importlib.util
import pathlib
import sys

from fuchsian.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_render_figures_writes_four_svgs(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "render_figures", ROOT / "scripts" / "render_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["render_figures.py", "--outdir", str(tmp_path)])
    assert script.main() == 0
    capsys.readouterr()
    names = {"polygon.svg", "omega_geo.svg", "omega.svg", "omega_dual.svg"}
    assert {p.name for p in tmp_path.iterdir()} == names
    assert cli_main(["render", "--what", "polygon", "--genus", "2"]) == 0
    assert (tmp_path / "polygon.svg").read_text() == capsys.readouterr().out
