#!/usr/bin/env python3
"""Record the command-line outputs of this checkout, for comparing two trees.

    python3 scripts/cli_snapshot.py --out DIR

Each invocation in INVOCATIONS runs as `python -m fuchsian.cli ...` (or as
the named script) with this checkout's `src` first on the path, in its own
directory DIR/NAME/files, so every output path it is given is relative.  The
invocation's stdout, stderr and exit code go to DIR/NAME/stdout, stderr and
exit_code, and the files it wrote stay under DIR/NAME/files.  Snapshots of
two trees taken with the same list compare with `diff -r`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI = ["-m", "fuchsian.cli"]
FIGURES = [str(ROOT / "scripts" / "render_figures.py")]
EXAMPLE = "PPPPQPQQPPQQ"


def _word_invocations() -> list[tuple[str, list[str]]]:
    out = []
    for g in (2, 3, 4):
        n = 8 * g - 4
        out += [(f"g{g}-surface", CLI + ["surface", "--genus", str(g)]),
                (f"g{g}-render-polygon", CLI + ["render", "--what", "polygon", "--genus", str(g)])]
        for word in ("P" * n, "Q" * n, "PQ" * (n // 2)):
            common = ["--genus", str(g), "--params", word]
            tag = f"g{g}-{word}"
            out += [(f"{tag}-{cmd}", CLI + [cmd] + common) for cmd in ("solve", "omega", "dual")]
            out += [(f"{tag}-render-{what}", CLI + ["render", "--what", what] + common)
                    for what in ("omega", "omega-dual", "omega-geo")]
            out += [
                (f"{tag}-verify-bijectivity", CLI + ["verify", "bijectivity"] + common),
                (f"{tag}-verify-conjugacy", CLI + ["verify", "conjugacy"] + common + ["--samples", "3000"]),
                (f"{tag}-verify-duality", CLI + ["verify", "duality"] + common),
                (f"{tag}-verify-markov",
                 CLI + ["verify", "markov"] + common + ["--matrix-out", "matrix.txt", "--sofic-out", "sofic.json"]),
                (f"{tag}-code", CLI + ["code"] + common + ["--u", "0.3", "--w", "2.9", "--future", "10", "--past", "5"]),
            ]
    return out


EXAMPLE_ARGS = ["--genus", "2", "--params", EXAMPLE]

INVOCATIONS: list[tuple[str, list[str]]] = _word_invocations() + [
    *((f"example-{cmd}", CLI + [cmd] + EXAMPLE_ARGS) for cmd in ("solve", "omega", "dual")),
    ("example-verify-markov",
     CLI + ["verify", "markov"] + EXAMPLE_ARGS + ["--matrix-out", "matrix.txt", "--sofic-out", "sofic.json"]),
    ("example-code", CLI + ["code"] + EXAMPLE_ARGS + ["--u", "0.3", "--w", "2.9", "--future", "10", "--past", "5"]),
    ("example-verify-conjugacy", CLI + ["verify", "conjugacy"] + EXAMPLE_ARGS + ["--samples", "10000"]),
    ("example-verify-duality", CLI + ["verify", "duality"] + EXAMPLE_ARGS + ["--seed", "7"]),
    ("example-attractor", CLI + ["attractor"] + EXAMPLE_ARGS + ["--iters", "50", "--samples", "10000"]),
    ("misuse-omega-tol", CLI + ["omega"] + EXAMPLE_ARGS + ["--tol", "1"]),
    ("misuse-markov-tol", CLI + ["verify", "markov"] + EXAMPLE_ARGS + ["--tol", "0.5"]),
    ("misuse-code-u-equals-w", CLI + ["code"] + EXAMPLE_ARGS + ["--u", "0.3", "--w", "0.3"]),
    ("misuse-short-word", CLI + ["solve", "--genus", "2", "--params", "PQ"]),
    ("sweep-g2", CLI + ["sweep", "--genus", "2"]),
    ("sweep-g3", CLI + ["sweep", "--genus", "3", "--random", "100", "--seed", "3"]),
    ("sweep-g4", CLI + ["sweep", "--genus", "4", "--random", "200", "--seed", "5", "--analytic-only"]),
    ("figures-g2", FIGURES + ["--genus", "2", "--outdir", "figures"]),
    ("figures-g3", FIGURES + ["--genus", "3", "--params", "PQ" * 10, "--outdir", "figures"]),
]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="directory to write the snapshot into")
    out = pathlib.Path(ap.parse_args(argv).out)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for name, args in INVOCATIONS:
        files = out / name / "files"
        files.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, *args], cwd=files, env=env, capture_output=True, text=True)
        (out / name / "stdout").write_text(proc.stdout)
        (out / name / "stderr").write_text(proc.stderr)
        (out / name / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
