"""Hash the output of a fixed corpus of CLI usage runs.

Usage: python3 tools/cli_corpus.py CHECKOUT

Runs every invocation in process through ``nodeiso.cli.main`` of the
checkout at CHECKOUT (its ``src`` goes first on ``sys.path``) and prints one
line per invocation in the format of ``tools/simulate_corpus.py``: the
arguments, the exit code, and the sha256 of stdout and of stderr. Diffing
the output for two checkouts shows whether a change to the command line
keeps every report, message and exit code.

The config files of the corpus are written to a temporary directory, which
is also the working directory of the runs, so that their names in messages
are the same on every run. The corpus covers:

- config files: a good one for each subcommand, one setting every key a
  simulation reads, an unknown key (including each long flag that is not a
  key), a bad value behind a flag, bad choices, a line without '=' and a
  missing file;
- every figure preset in every format, and the preset usage errors,
  flags and config values that a preset sets among them;
- custom sweeps over m, M, sigma, alpha and lambda, with bad, non-integer
  and huge grids, a sweep without --lambda, and the target-pi paths, one
  with outputs that the inversion does not compute;
- invert, eval with --m-real, the dB flags and their exclusivity;
- short simulate runs, bounded and toroidal.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

from simulate_corpus import run

FORMATS = ("text", "csv", "json")
LAM = ["--lambda", "1e-4"]
SHORT_SIM = ["--runs", "40", "--seed", "3"]

CONFIG_FILES = {
    "good.cfg": "m=2\nlambda=1e-4\npsi-db=10\n# comment\n\nformat=json\n",
    "every_key.cfg": (
        "ptx=1\nw=0.01\nk-db=10\npsi=10\nalpha=4\nsigma-db=3\nm=2\nscheme=mrc\nM=2\n"
        "lambda=5e-3\narea=100\nboundary=bounded\nruns=40\nseed=3\njobs=1\noutputs=analytic\n"
        "format=csv\n"
    ),
    "linear_k.cfg": "k=10\n",
    "real_m.cfg": "m-real=1.5\nlambda=1e-4\n",
    "target.cfg": "target-pi=0.5\nm=2\n",
    "bad_key.cfg": "m=2\nnonsense=1\n",
    "bad_value_behind_flag.cfg": "format=xml\nm=abc\n",
    "bad_int.cfg": "m=2.5\n",
    "bad_float.cfg": "lambda=lots\n",
    "bad_scheme.cfg": "scheme=bogus\n",
    "bad_boundary.cfg": "boundary=weird\n",
    "bad_format.cfg": "m=2\nformat=xml\n",
    "no_equals.cfg": "m 2\n",
    "skipped_keys.cfg": "runs=abc\ntarget-pi=x\n",
}
CONFIG_FILES.update({f"flag_{key}.cfg": f"{key}=x\n"
                     for key in ("config", "out", "export-topology", "figure", "variable", "grid")})


def invocations() -> list[list[str]]:
    """Every argument list of the corpus, in a fixed order."""
    result = []
    # Config files.
    result += [
        ["eval", "--config", "good.cfg"],
        ["eval", "--config", "good.cfg", "--m", "4", "--format", "text"],
        ["sweep", "--config", "good.cfg", "--variable", "sigma", "--grid", "0,1"],
        ["simulate", "--config", "good.cfg", "--lambda", "5e-3", *SHORT_SIM],
        ["invert", "--config", "good.cfg", "--target-pi", "0.5"],
        ["invert", "--config", "target.cfg"],
        ["simulate", "--config", "every_key.cfg"],
        ["sweep", "--config", "every_key.cfg", "--variable", "m", "--grid", "1,2"],
        ["eval", "--config", "linear_k.cfg", "--k-db", "10", *LAM],
        ["eval", "--config", "real_m.cfg"],
        ["sweep", "--config", "real_m.cfg", "--variable", "sigma", "--grid", "0,1"],
        ["eval", "--config", "skipped_keys.cfg", *LAM],
        ["eval", "--config", "missing.cfg", *LAM],
    ]
    for name in sorted(CONFIG_FILES):
        if name.startswith(("bad_", "flag_", "no_equals")):
            result.append(["eval", "--config", name, "--format", "csv", "--m", "2", *LAM])
    result.append(["simulate", "--config", "bad_boundary.cfg", "--boundary", "bounded",
                   "--lambda", "5e-3", *SHORT_SIM])
    result.append(["sweep", "--config", "bad_scheme.cfg", "--scheme", "mrc", "--M", "2",
                   "--variable", "m", "--grid", "1,2", *LAM])
    # Figure presets.
    for figure in range(2, 8):
        for out_format in FORMATS:
            result.append(["sweep", "--figure", str(figure), "--format", out_format])
    result += [
        ["sweep", "--figure", "4", "--target-pi", "0.5", "--format", "csv"],
        ["sweep", "--figure", "2", "--target-pi", "0.5"],
        ["sweep", "--figure", "2", "--variable", "sigma"],
        ["sweep", "--figure", "5", "--ptx", "inf", "--format", "json"],
        ["sweep", "--figure", "5", "--lambda", "1e-3", "--m", "1", "--format", "csv"],
        ["sweep", "--figure", "2", "--sigma-db", "3"],
        ["sweep", "--config", "good.cfg", "--figure", "3"],
        ["sweep", "--figure", "4", "--outputs", "analytic,quadrature"],
    ]
    # Custom sweeps.
    m_sweep = ["sweep", "--variable", "m"]
    big_m_sweep = ["sweep", "--variable", "M"]
    sigma_sweep = ["sweep", "--variable", "sigma"]
    result += [
        [*m_sweep, "--grid", "1,2,4", "--scheme", "mrc", "--M", "2", *LAM, "--format", "json"],
        [*m_sweep, "--grid", "1,2.5,4", *LAM],
        [*m_sweep, "--grid", "1,2.5,4", *LAM, "--format", "json"],
        [*m_sweep, "--grid", "1e300", *LAM],
        [*m_sweep, "--grid", "1,inf", *LAM, "--format", "csv"],
        [*m_sweep, "--grid", "4096,4097", *LAM],
        [*big_m_sweep, "--grid", "1,2,3,4,5", "--scheme", "sc", "--m", "2", *LAM, "--format", "csv"],
        [*big_m_sweep, "--grid", "1.5,2", "--scheme", "mrc", *LAM, "--format", "json"],
        [*big_m_sweep, "--grid", "17,18", "--scheme", "sc", "--m", "2", *LAM],
        [*big_m_sweep, "--grid", "1,2", *LAM],
        [*sigma_sweep, "--grid", "0,1,2", "--m", "2", *LAM, "--outputs", "analytic,quadrature",
         "--format", "json"],
        [*sigma_sweep, "--grid", "0,1,2", "--scheme", "sc", "--M", "4", "--m", "2",
         "--target-pi", "0.9"],
        [*sigma_sweep, "--grid", "2,1", *LAM],
        [*sigma_sweep, "--grid", "0,x", *LAM],
        [*sigma_sweep, "--grid", "0,1"],
        [*sigma_sweep, "--grid", "0,1", "--target-pi", "1.5"],
        [*sigma_sweep, "--grid", "0,1", "--target-pi", "0.9", "--outputs", "analytic,simulation",
         "--runs", "10"],
        [*sigma_sweep, "--grid", "1,100", "--m", "2", *LAM, "--format", "json"],
        [*sigma_sweep, "--grid", "0,1", "--m", "2", "--lambda", "-1", "--format", "json"],
        [*sigma_sweep, "--grid", "1,1.75", "--alpha", "0.1", *LAM],
        ["sweep", "--variable", "alpha", "--grid", "2,3,4", "--m", "2", *LAM, "--format", "csv"],
        ["sweep", "--variable", "lambda", "--grid", "5e-4,2e-3", "--m", "1",
         "--outputs", "analytic,simulation", *SHORT_SIM, "--format", "csv"],
        ["sweep", "--variable", "lambda", "--grid", "5e-3", "--m", "2", "--sigma", "4",
         "--outputs", "simulation", *SHORT_SIM],
        ["sweep", "--variable", "lambda", "--grid", "1e-4", "--target-pi", "0.5"],
        ["sweep", "--variable", "sigma", "--grid", "0,1", *LAM, "--outputs", "bogus"],
        ["sweep", "--variable", "sigma", "--grid", "0,1", "--m-real", "1.5", *LAM],
        ["sweep", "--variable", "sigma", *LAM],
    ]
    # invert, eval and the dB flags.
    for out_format in FORMATS:
        result.append(["invert", "--m", "2", "--target-pi", "0.01", "--format", out_format])
        result.append(["eval", "--m", "2", *LAM, "--outputs", "analytic,quadrature",
                       "--format", out_format])
    result += [
        ["invert", "--m", "2", "--scheme", "sc", "--M", "4", "--sigma", "2", "--target-pi", "0.6"],
        ["invert", "--m", "2", "--scheme", "mrc", "--M", "2", "--target-pi", "0.6",
         "--format", "json"],
        ["invert", "--target-pi", "1.5"],
        ["invert"],
        ["invert", "--sigma", "100", "--target-pi", "0.5"],
        ["invert", "--psi", "1e300", "--alpha", "0.5", "--target-pi", "0.5"],
        ["invert", "--m-real", "1.5", "--target-pi", "0.5"],
        ["eval", "--m-real", "1.5", *LAM],
        ["eval", "--m-real", "1.5", "--sigma", "1", *LAM, "--outputs", "analytic,quadrature",
         "--format", "json"],
        ["eval", "--m-real", "1.5", "--scheme", "mrc", "--M", "2", *LAM],
        ["eval", "--m-real", "1.5", *LAM, "--outputs", "bogus"],
        ["eval", "--m", "2"],
        ["eval", "--m", "4097", *LAM],
        ["eval", "--k-db", "10", "--psi-db", "10", "--sigma-db", "5", "--m", "2", *LAM,
         "--format", "json"],
        ["invert", "--k-db", "12", "--psi-db", "8", "--m", "2", "--target-pi", "0.5"],
        ["eval", "--k", "10", "--k-db", "10", *LAM],
        ["eval", "--psi-db", "4000", *LAM],
    ]
    # Short simulations.
    result += [
        ["simulate", "--m", "2", "--lambda", "5e-3", *SHORT_SIM],
        ["simulate", "--m", "2", "--sigma", "2", "--lambda", "5e-3", "--boundary", "bounded",
         *SHORT_SIM, "--format", "json"],
        ["simulate", "--m", "2", "--sigma", "4", "--lambda", "5e-3", *SHORT_SIM, "--format", "csv"],
        ["simulate", "--scheme", "sc", "--M", "2", "--lambda", "5e-3", *SHORT_SIM, "--jobs", "2"],
        ["simulate", "--lambda", "1e-6", "--runs", "5"],
        ["simulate", "--m-real", "1.5", "--lambda", "5e-3"],
        ["simulate", "--m", "2"],
    ]
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from nodeiso import cli

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in CONFIG_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            for args in invocations():
                code, out, err = run(cli, args)
                digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
                print(" ".join(args), code, *digests, flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
