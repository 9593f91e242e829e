"""The scripts in scripts/ run and agree with the CLI."""

import importlib.util
import pathlib
import sys

from fuchsian.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_render_figures_writes_four_svgs(tmp_path, monkeypatch, capsys):
    script = load_script("render_figures")
    monkeypatch.setattr(sys, "argv", ["render_figures.py", "--outdir", str(tmp_path)])
    assert script.main() == 0
    capsys.readouterr()
    names = {"polygon.svg", "omega_geo.svg", "omega.svg", "omega_dual.svg"}
    assert {p.name for p in tmp_path.iterdir()} == names
    assert cli_main(["render", "--what", "polygon", "--genus", "2"]) == 0
    assert (tmp_path / "polygon.svg").read_text() == capsys.readouterr().out


def test_cli_snapshot_records_what_the_cli_prints_and_writes(tmp_path, monkeypatch, capsys):
    script = load_script("cli_snapshot")
    entries = [
        ("surface", script.CLI + ["surface", "--genus", "2"]),
        ("markov", script.CLI + ["verify", "markov", "--genus", "2", "--params", "P" * 12, "--matrix-out", "m.txt"]),
    ]
    monkeypatch.setattr(script, "INVOCATIONS", entries)
    assert script.main(["--out", str(tmp_path / "snap")]) == 0
    capsys.readouterr()
    for name, args in entries:
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = cli_main(args[len(script.CLI):])
        out, err = capsys.readouterr()
        recorded = tmp_path / "snap" / name
        assert (recorded / "stdout").read_text() == out
        assert (recorded / "stderr").read_text() == err
        assert (recorded / "exit_code").read_text() == f"{code}\n"
        files = sorted(p.name for p in (recorded / "files").iterdir())
        assert files == sorted(p.name for p in cwd.iterdir())
        assert all((recorded / "files" / f).read_text() == (cwd / f).read_text() for f in files)
    assert files == ["m.txt"]
