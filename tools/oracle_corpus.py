"""Hash the output of a fixed corpus of 118 closed-form and quadrature runs.

Usage: python3 tools/oracle_corpus.py CHECKOUT

Runs every invocation in process through ``nodeiso.cli.main`` of the
checkout at CHECKOUT (its ``src`` goes first on ``sys.path``) and prints one
line per invocation in the format of ``tools/simulate_corpus.py``: the
arguments, the exit code, and the sha256 of stdout and of stderr. Diffing
the output for two checkouts shows whether a change to ``quadrature`` or
``analytic`` keeps every number bit for bit.

The corpus:

- the 6 figure sweeps, figures 2, 3, 5, 6 and 7 with
  ``--outputs analytic,quadrature`` and the figure-4 inversion;
- ``eval --m 2 --outputs analytic,quadrature`` over alpha in {2, 3, 4, 6},
  sigma in {0, 0.5, 2, 4, 8, 12, 16} and no diversity, MRC4 and SC4;
- the same grid for ``eval --m-real 1.5``, which takes single-branch
  reception only and so contributes the no-diversity column.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from simulate_corpus import run

ALPHAS = ("2", "3", "4", "6")
SIGMAS = ("0", "0.5", "2", "4", "8", "12", "16")
SCHEMES = ([], ["--scheme", "mrc", "--M", "4"], ["--scheme", "sc", "--M", "4"])
BOTH = ["--outputs", "analytic,quadrature"]


def invocations() -> list[list[str]]:
    """Every argument list of the corpus, in a fixed order."""
    result = [["sweep", "--figure", str(f), *BOTH, "--format", "json"] for f in (2, 3, 5, 6, 7)]
    result.append(["sweep", "--figure", "4", "--format", "json"])
    for severity, schemes in ((["--m", "2"], SCHEMES), (["--m-real", "1.5"], SCHEMES[:1])):
        for alpha in ALPHAS:
            for sigma in SIGMAS:
                for scheme in schemes:
                    result.append(["eval", *severity, "--alpha", alpha, "--sigma", sigma, *scheme,
                                   "--lambda", "1e-4", *BOTH, "--format", "json"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from nodeiso import cli

    for args in invocations():
        code, out, err = run(cli, args)
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        print(" ".join(args), code, *digests, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
