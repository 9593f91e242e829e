"""SVG output and the command-line interface."""

import json
import time

import pytest

from fuchsian import cli
from fuchsian.cli import main
from fuchsian.duality import build_omega_dual
from fuchsian.sweep import SweepResult
from fuchsian.render import (
    omega_dual_spec,
    omega_geo_spec,
    omega_spec,
    polygon_spec,
    render_svg,
)

EXAMPLE_WORD = "PPPPQPQQPPQQ"


class TestRender:
    def test_omega_has_24_labeled_rectangles(self, solved_example, domain_example):
        svg = render_svg(omega_spec(solved_example, domain_example))
        for i in range(1, 13):
            assert f"<title>lower_{i}</title>" in svg
            assert f"<title>upper_{i}</title>" in svg
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_omega_deterministic(self, solved_example, domain_example):
        a = render_svg(omega_spec(solved_example, domain_example))
        b = render_svg(omega_spec(solved_example, domain_example))
        assert a == b

    def test_dual_chart_mirrors_domain(self, solved_example, domain_example):
        dual_domain = build_omega_dual(solved_example)
        svg = render_svg(omega_dual_spec(solved_example, dual_domain))
        assert "wide_1" in svg
        # Degenerate rectangles are not drawn.
        params = solved_example.params
        s = solved_example.surface
        for i in range(1, 13):
            if params.word[s.sigma(i) - 1] == "Q":
                assert f"<title>tail_{i}</title>" not in svg

    def test_geo_chart_has_boundary_curves(self, genus2):
        svg = render_svg(omega_geo_spec(genus2))
        assert svg.count("<polyline") >= 24  # two boundary families

    def test_polygon_chart_labels_sides(self, genus2):
        svg = render_svg(polygon_spec(genus2))
        for i in range(1, 13):
            assert f">{i}</text>" in svg
        assert svg.count("<path") == 12

    def test_unknown_chart_rejected(self):
        from fuchsian.render import RenderSpec

        with pytest.raises(ValueError):
            render_svg(RenderSpec(chart="sphere"))


class TestCli:
    def test_solve_emits_expected_words(self, capsys):
        assert main(["solve", "--genus", "2", "--params", EXAMPLE_WORD]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == EXAMPLE_WORD
        entry9 = doc["solution"][8]
        assert entry9["G"]["word"] == [6, 3] and entry9["G"]["base"] == "P1"
        assert entry9["D"]["word"] == [11] and entry9["D"]["base"] == "P1"

    def test_solve_rejects_malformed_word(self, capsys):
        assert main(["solve", "--genus", "2", "--params", "PPP"]) == 2
        assert main(["solve", "--genus", "2", "--params", "PPPPQPQQPPQX"]) == 2

    def test_solve_runtime_under_a_second(self, capsys):
        start = time.monotonic()
        assert main(["solve", "--genus", "2", "--params", EXAMPLE_WORD]) == 0
        assert time.monotonic() - start < 1.0
        capsys.readouterr()

    def test_surface_json(self, capsys):
        assert main(["surface", "--genus", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genus"] == 3
        assert len(doc["vertices"]) == 20
        assert len(doc["sigma"]) == 20

    def test_omega_json(self, capsys):
        assert main(["omega", "--genus", "2", "--params", EXAMPLE_WORD]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rectangles"]) == 24

    def test_dual_json(self, capsys):
        assert main(["dual", "--genus", "2", "--params", EXAMPLE_WORD]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source_params"] == EXAMPLE_WORD
        assert len(doc["rectangles"]) == 36

    @pytest.mark.parametrize("what", ["bijectivity", "conjugacy", "duality", "markov"])
    def test_verify_passes(self, capsys, what):
        code = main(
            [
                "verify", what, "--genus", "2", "--params", EXAMPLE_WORD,
                "--samples", "2000", "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert json.loads(out)["passed"] is True

    def test_verify_reports_are_deterministic(self, capsys):
        args = [
            "verify", "bijectivity", "--genus", "2", "--params", EXAMPLE_WORD,
            "--samples", "1000", "--seed", "9",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_code_roundtrip(self, capsys, genus2):
        assert (
            main(
                [
                    "code", "--genus", "2", "--params", "P" * 12,
                    "--u", str(genus2.p(1).angle), "--w", str(genus2.q(2).angle),
                    "--future", "5", "--past", "2",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["future"] == [genus2.sigma(2)] * 5
        assert doc["truncated"] is False

    def test_sweep_subset(self, capsys):
        code = main(
            ["sweep", "--genus", "3", "--random", "5", "--samples", "200", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.endswith("PASS") for line in lines[:-1])
        assert "failures=0" in lines[-1]

    def test_sweep_deterministic(self, capsys):
        args = ["sweep", "--genus", "3", "--random", "3", "--samples", "100", "--seed", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_sweep_genus2_attempts_every_word(self, capsys):
        assert main(["sweep", "--genus", "2", "--analytic-only"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4097  # one per word plus the summary
        assert lines[-1].startswith("sweep genus=2 words=4096 failures=0")
        assert len({line.split()[0] for line in lines[:-1]}) == 4096

    def test_verify_markov_writes_grid_and_graph(self, tmp_path, capsys):
        grid = tmp_path / "matrix.txt"
        sofic = tmp_path / "sofic.json"
        code = main(
            [
                "verify", "markov", "--genus", "2", "--params", EXAMPLE_WORD,
                "--matrix-out", str(grid), "--sofic-out", str(sofic),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = grid.read_text().strip().splitlines()
        assert len(rows) == 24 and all(len(r) == 24 and set(r) <= {"0", "1"} for r in rows)
        doc = json.loads(sofic.read_text())
        assert doc["vertices"] == list(range(1, 13))
        assert all({"from", "to", "label"} == set(e) for e in doc["edges"])

    def test_attractor_labeled_exploratory(self, capsys):
        code = main(
            [
                "attractor", "--genus", "2", "--params", EXAMPLE_WORD,
                "--iters", "10", "--samples", "500", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["exploratory"] is True
        assert doc["forward_invariant_ok"] is True

    def test_render_to_file(self, tmp_path, capsys):
        out = tmp_path / "omega.svg"
        assert (
            main(
                ["render", "--what", "omega", "--genus", "2", "--params", EXAMPLE_WORD,
                 "--out", str(out)]
            )
            == 0
        )
        text = out.read_text()
        assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")
        out2 = tmp_path / "omega2.svg"
        main(
            ["render", "--what", "omega", "--genus", "2", "--params", EXAMPLE_WORD,
             "--out", str(out2)]
        )
        assert out2.read_text() == text

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--genus", "2", "--params", EXAMPLE_WORD],
            ["sweep", "--genus", "2", "--random", "2"],
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, argv):
        code = main(argv)
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == code
        assert out.read_bytes() == stdout

    def test_sweep_writes_each_line_as_its_word_finishes(self, tmp_path, capsysbinary, monkeypatch):
        results = [
            SweepResult("P" * 12, "PASS", None),
            SweepResult("Q" * 12, "FAIL", None),
            SweepResult("PQ" * 6, "ERROR boom", None),
        ]
        written = []

        def fake_sweep(*args):
            for r in results:
                yield r
                written.append(capsysbinary.readouterr().out)  # what the CLI wrote for r

        monkeypatch.setattr(cli, "sweep", fake_sweep)
        argv = ["sweep", "--genus", "2", "--random", "3", "--seed", "4"]
        assert main(argv) == 1
        summary = capsysbinary.readouterr().out
        assert written == [f"{r.word} {r.verdict}\n".encode() for r in results]
        assert summary == b"sweep genus=2 words=3 failures=2 seed=4\n"
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == b"".join(written) + summary

    def test_render_requires_params_for_domains(self, capsys):
        assert main(["render", "--what", "omega", "--genus", "2"]) == 2

    def test_render_polygon_needs_no_params(self, tmp_path):
        out = tmp_path / "poly.svg"
        assert main(["render", "--what", "polygon", "--genus", "2", "--out", str(out)]) == 0
        assert "</svg>" in out.read_text()

    def test_tolerance_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FUCHSIAN_TOL", "1e-8")
        from fuchsian.cli import default_tol

        assert default_tol() == 1e-8
        monkeypatch.delenv("FUCHSIAN_TOL")
        assert default_tol() == 1e-9

    @pytest.mark.parametrize(
        "argv, env_tol",
        [
            (["surface", "--genus", "1"], None),
            (["verify", "bijectivity", "--params", EXAMPLE_WORD, "--tol", "-1"], None),
            (["attractor", "--params", EXAMPLE_WORD, "--iters", "-1"], None),
            (["verify", "conjugacy", "--params", EXAMPLE_WORD, "--samples", "0"], None),
            (["verify", "bijectivity", "--params", EXAMPLE_WORD, "--samples", "0"], None),
            (["sweep", "--random", "0"], None),
            (["solve", "--params", EXAMPLE_WORD], "0"),
            (["solve", "--params", EXAMPLE_WORD], "tight"),
            (["code", "--params", EXAMPLE_WORD, "--u", "0.3", "--w", "inf"], None),
            (["code", "--params", EXAMPLE_WORD, "--u", "nan", "--w", "2.9"], None),
            (["surface", "--offset", "nan"], None),
            (["solve", "--params", EXAMPLE_WORD, "--offset", "inf"], None),
            (["verify", "bijectivity", "--params", EXAMPLE_WORD, "--seed", "-1"], None),
            (["verify", "conjugacy", "--params", EXAMPLE_WORD, "--seed", "-1"], None),
            (["attractor", "--params", EXAMPLE_WORD, "--seed", "-1"], None),
            (["sweep", "--seed", "-1"], None),
            # A tol of 1e-3 or more can merge distinct named points, leaving
            # a domain of no area.
            (["omega", "--params", EXAMPLE_WORD, "--tol", "1"], None),
            (["verify", "markov", "--params", EXAMPLE_WORD, "--tol", "0.5"], None),
            (["verify", "bijectivity", "--params", EXAMPLE_WORD, "--tol", "0.5"], None),
            (["attractor", "--params", EXAMPLE_WORD, "--tol", "1"], None),
            (["sweep", "--random", "3", "--tol", "1"], None),
            (["solve", "--params", EXAMPLE_WORD, "--tol", "1e-3"], None),
            (["solve", "--params", EXAMPLE_WORD, "--tol", "inf"], None),
            (["solve", "--params", EXAMPLE_WORD], "0.001"),
        ],
    )
    def test_misuse_exits_2_with_one_line(self, monkeypatch, capsys, argv, env_tol):
        if env_tol is not None:
            monkeypatch.setenv("FUCHSIAN_TOL", env_tol)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--params", EXAMPLE_WORD, "--out"],
            ["verify", "markov", "--params", EXAMPLE_WORD, "--matrix-out"],
        ],
    )
    def test_unwritable_output_exits_2_with_one_line(self, tmp_path, capsys, argv):
        assert main(argv + [str(tmp_path / "missing" / "out.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
