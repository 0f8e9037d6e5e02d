"""Hash the output of a fixed corpus of 148 ``simulate --format json`` runs.

Usage: python3 tools/simulate_corpus.py CHECKOUT

Runs every invocation in process through ``nodeiso.cli.main`` of the
checkout at CHECKOUT (its ``src`` goes first on ``sys.path``) and prints one
line per invocation: the arguments, the exit code, and the sha256 of stdout
and of stderr. Diffing the output for two checkouts shows whether a change
to the simulator keeps every estimate bit for bit.

The corpus covers every regime of the pair search, each at seeds 5 and
20260809 with ``--jobs`` 1 and 2:

- the 12 cells of acceptance criterion 4 (100 m torus, lambda from
  ``invert`` at P_I = 0.6, 500 runs): short cutoffs, and at sigma = 2 a
  cutoff past half the side;
- the 2 dense cells (m = 2, sigma = 2, none and SC4; lambda 0.02 on a
  400 m torus, 6 runs);
- toroidal and bounded 100 m squares x none/MRC4/SC4 x sigma 0/2/3 at
  lambda 5e-3 and 200 runs;
- the first acceptance cell on a bounded square, and the fifth at 333
  runs, which ends both halves of a two-worker run in a partial batch of
  replications;
- sigma = 2 (a cutoff of 52.7 m) on 130 m and 180 m tori, where the cutoff
  lies between a third and half and between a quarter and a third of the
  side: two and three cells per axis.

The first acceptance cell also runs at seeds 0 and 2**64 - 1, with
``--jobs`` 1 and 2: the master seeds that enter the seeding as the single
word [0] and as two 32-bit words.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SEEDS = ("5", "20260809")
EDGE_SEEDS = ("0", "18446744073709551615")
JOBS = ("1", "2")

_NONE: list[str] = []
_MRC2 = ["--scheme", "mrc", "--M", "2"]
_MRC4 = ["--scheme", "mrc", "--M", "4"]
_SC2 = ["--scheme", "sc", "--M", "2"]
_SC4 = ["--scheme", "sc", "--M", "4"]

ACCEPTANCE_CELLS = [["--m", str(m)] + s for m in (1, 2, 4) for s in (_NONE, _MRC2, _SC2)] + [
    ["--m", "2"] + _SC4,
    ["--m", "2", "--sigma", "2"] + _NONE,
    ["--m", "2", "--sigma", "2"] + _MRC2,
]
DENSE_CELLS = [["--m", "2", "--sigma", "2"] + _NONE, ["--m", "2", "--sigma", "2"] + _SC4]


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``nodeiso <argv>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cells(cli) -> list[list[str]]:
    """Every simulated cell, without seed, jobs and output format."""
    result, lams = [], []
    for cell in ACCEPTANCE_CELLS:
        code, out, err = run(cli, ["invert", *cell, "--target-pi", "0.6", "--format", "json"])
        if code != 0:
            raise RuntimeError(f"invert {' '.join(cell)} exited {code}: {err.strip()}")
        lams.append(repr(json.loads(out)["lambda_min"]))
        result.append(cell + ["--lambda", lams[-1], "--area", "100", "--boundary", "toroidal",
                              "--runs", "500"])
    for cell in DENSE_CELLS:
        result.append(cell + ["--lambda", "0.02", "--area", "400", "--runs", "6"])
    for boundary in ("toroidal", "bounded"):
        for scheme in (_NONE, _MRC4, _SC4):
            for sigma in ("0", "2", "3"):
                result.append(["--m", "2", "--sigma", sigma, *scheme, "--lambda", "5e-3",
                               "--area", "100", "--boundary", boundary, "--runs", "200"])
    result.append(ACCEPTANCE_CELLS[0] + ["--lambda", lams[0], "--area", "100",
                                         "--boundary", "bounded", "--runs", "500"])
    result.append(ACCEPTANCE_CELLS[4] + ["--lambda", lams[4], "--area", "100",
                                         "--boundary", "toroidal", "--runs", "333"])
    for side in ("130", "180"):
        result.append(["--m", "2", "--sigma", "2", "--lambda", "5e-3", "--area", side,
                       "--boundary", "toroidal", "--runs", "200"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from nodeiso import cli

    corpus = cells(cli)
    seeded = [(cell, seed) for cell in corpus for seed in SEEDS]
    seeded += [(corpus[0], seed) for seed in EDGE_SEEDS]
    for cell, seed in seeded:
        for jobs in JOBS:
            args = ["simulate", *cell, "--seed", seed, "--jobs", jobs, "--format", "json"]
            code, out, err = run(cli, args)
            digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
            print(" ".join(args), code, *digests, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
