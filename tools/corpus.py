"""Hash the output of the command line over a fixed corpus of invocations.

Usage: PYTHONPATH=src python3 tools/corpus.py {cli,oracle,simulate}

Runs every invocation of the suite in process through ``nodeiso.cli.main``
of the ``nodeiso`` on the path and prints a header line with the Python,
numpy and scipy versions, then one line per invocation: the arguments, the
exit code, the sha256 of stdout and of stderr, and the sha256 of each file
that the run wrote. ``tests/golden/corpus_<suite>.txt`` holds the committed
output and ``tests/test_corpus.py`` checks every suite against it: this is
the project's one check of exact output bytes, and no test keeps a second
copy of an output. A change that means to move output re-captures the file
in the same change,

    PYTHONPATH=src python3 tools/corpus.py SUITE > tests/golden/corpus_SUITE.txt

and lists every moved line. The runs take place in a temporary working
directory that holds the config files of the ``cli`` suite, so that file
names in messages are the same on every run; a file that a run writes there
is hashed and removed. Each run sees ``COLUMNS=80``, so that argparse wraps
its usage text the same way in any terminal.

``cli`` (134 invocations) covers:

- config files: a good one for each subcommand, one setting every key a
  simulation reads, an unknown key (including each long flag that is not a
  key), a bad value behind a flag, bad choices, a line without '=' and a
  missing file;
- every figure preset in every format, and the preset usage errors,
  flags and config values that a preset sets among them;
- custom sweeps over m, M, sigma, alpha and lambda, with bad, non-integer
  and huge grids, a sweep without --lambda, and the target-pi paths, one
  with outputs that the inversion does not compute;
- invert, eval with --m-real, the dB flags and their exclusivity, --M
  without a diversity scheme, and a report written with --out or to a
  missing directory;
- theta^(-2/alpha) past the float range with theta a float 0, and an
  alpha whose 2/alpha overflows in eval, invert, simulate and an alpha
  sweep;
- k ptx as a float product 0, in eval on both routes and in simulate;
- argparse's own rejections: no subcommand, an unknown flag, and bad
  --format and --scheme choices;
- short simulate runs, bounded and toroidal, one exporting its topology,
  one with no node at all (JSON nulls) and one with --jobs 0, and one
  whose unwritable --out is reported before its E[R^2] overflow;
- three JSON simulate runs of 100 and 200 replications: SC4 at sigma = 2
  on a bounded square, m = 2 on the torus, and about 180 nodes with a
  5.9 m cutoff on a bounded square, which takes the cell grid.

``oracle`` (133) checks the closed forms and the quadrature bit for bit:

- the figure sweeps 2, 3, 5, 6 and 7 with ``--outputs analytic,quadrature``
  (``cli`` holds the figure-4 inversion in JSON);
- a sigma sweep over {0, 1, 2} with SC4 and ``--outputs
  analytic,quadrature``;
- ``eval --m 2 --outputs analytic,quadrature`` over alpha in {2, 3, 4, 6},
  sigma in {0, 0.5, 2, 4, 8, 12, 16} and no diversity, MRC4 and SC4;
- the same grid for ``eval --m-real 1.5``, which takes single-branch
  reception only and so contributes the no-diversity column;
- selection combining with long rows, M(m - 1) from 176 to 4080: m = 12,
  100 and 256 with SC16 and m = 200 with SC16 and SC2 at alpha = 4;
  m = 64 with SC4, m = 100 with SC8 and m = 171 with SC2 at alpha = 2;
  and m = 64 with SC8 at alpha = 8;
- ``eval`` where theta = m psi w/(k ptx) as a float product is 0,
  subnormal and inf, so that the closed form takes it in log space.
- the shadowed law past the float range, with no numpy warning: m psi/y
  at psi = 1e300 (both routes, in JSON, and ``--m-real`` in JSON), and
  sigma = 1e308 with ``--m-real``, which exits 3.

``simulate`` (150) checks every estimate bit for bit over every regime of
the pair search, each at seeds 5 and 20260809 with ``--jobs`` 1 and 2:

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
word [0] and as two 32-bit words. SC8 at m = 100 and alpha = 2 (lambda
5e-3, 300 runs) runs at seed 1 with ``--jobs`` 1 and 2, against a closed
form that sums rows of 793 terms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from unittest import mock

from nodeiso import cli


def run(argv: list[str]) -> subprocess.CompletedProcess:
    """``nodeiso <argv>`` run in process, reported as a subprocess reports it.

    argparse wraps its usage text to the terminal width that it reads from
    ``COLUMNS``, so the run sets that to 80 and then restores the caller's
    environment.
    """
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return subprocess.CompletedProcess(list(argv), code, out.getvalue(), err.getvalue())


# ============================================================================
#  cli
# ============================================================================

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


def cli_suite() -> list[list[str]]:
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
        ["sweep", "--variable", "alpha", "--grid", "1e-320,4", *LAM],
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
        ["eval", "--m", "2", "--sigma", "2", *LAM, "--format", "json", "--out", "report.json"],
        ["eval", "--m", "2", *LAM, "--out", "missing_dir/report.json"],
        ["eval", "--M", "2", *LAM],
        # theta underflows to 0 and theta^(-1/2) overflows; alpha^2 underflows to 0.
        ["eval", "--ptx", "1e308", "--k", "1e308", *LAM],
        ["eval", "--alpha", "1e-320", *LAM],
        ["eval", "--alpha", "1e-320", "--sigma", "1", *LAM],
        ["invert", "--alpha", "1e-320", "--target-pi", "0.5"],
        # k ptx as a float product is 0: ln(k ptx/w) is a sum of logs.
        ["eval", "--k", "1e-200", "--ptx", "1e-200", *LAM, "--outputs", "analytic,quadrature"],
        ["simulate", "--k", "1e-200", "--ptx", "1e-200", *LAM, "--runs", "5"],
    ]
    # argparse's own rejections.
    result += [[], ["eval", "--bogus"], ["eval", "--format", "xml"], ["eval", "--scheme", "bogus"]]
    # Short simulations.
    result += [
        ["simulate", "--m", "2", "--lambda", "5e-3", *SHORT_SIM],
        ["simulate", "--m", "2", "--sigma", "2", "--lambda", "5e-3", "--boundary", "bounded",
         *SHORT_SIM, "--format", "json"],
        ["simulate", "--m", "2", "--sigma", "4", "--lambda", "5e-3", *SHORT_SIM, "--format", "csv"],
        ["simulate", "--scheme", "sc", "--M", "2", "--lambda", "5e-3", *SHORT_SIM, "--jobs", "2"],
        ["simulate", "--lambda", "1e-6", "--runs", "5"],
        ["simulate", "--lambda", "1e-6", "--runs", "5", "--format", "json"],
        ["simulate", "--m", "2", "--lambda", "5e-3", *SHORT_SIM, "--jobs", "0"],
        ["simulate", "--m-real", "1.5", "--lambda", "5e-3"],
        ["simulate", "--m", "2"],
        ["simulate", "--alpha", "1e-320", *LAM],
        # Two faults: the unwritable path is reported before the E[R^2] overflow.
        ["simulate", "--alpha", "0.001", "--lambda", "1e-3", "--out", "missing_dir/report.txt"],
        ["simulate", "--m", "2", "--lambda", "5e-3", *SHORT_SIM, "--export-topology",
         "topology.csv"],
        ["simulate", "--m", "2", "--sigma", "2", "--scheme", "sc", "--M", "4", "--lambda", "5e-3",
         "--boundary", "bounded", "--runs", "200", "--seed", "7", "--format", "json"],
        ["simulate", "--m", "2", "--lambda", "1e-2", "--runs", "100", "--seed", "7",
         "--format", "json"],
        # About 180 nodes with a 5.9 m cutoff on the 100 m square: the cell grid.
        ["simulate", "--m", "1", "--lambda", "0.018", "--boundary", "bounded", "--runs", "100",
         "--seed", "5", "--format", "json"],
    ]
    return result


# ============================================================================
#  oracle
# ============================================================================

ALPHAS = ("2", "3", "4", "6")
SIGMAS = ("0", "0.5", "2", "4", "8", "12", "16")
_NONE: list[str] = []
_MRC2 = ["--scheme", "mrc", "--M", "2"]
_MRC4 = ["--scheme", "mrc", "--M", "4"]
_SC2 = ["--scheme", "sc", "--M", "2"]
_SC4 = ["--scheme", "sc", "--M", "4"]
BOTH = ["--outputs", "analytic,quadrature"]


def oracle_suite() -> list[list[str]]:
    result = [["sweep", "--figure", str(f), *BOTH, "--format", "json"] for f in (2, 3, 5, 6, 7)]
    result.append(["sweep", "--variable", "sigma", "--grid", "0,1,2", *_SC4, "--m", "2",
                   "--lambda", "1e-4", *BOTH, "--format", "json"])
    for severity, schemes in ((["--m", "2"], (_NONE, _MRC4, _SC4)), (["--m-real", "1.5"], [_NONE])):
        for alpha in ALPHAS:
            for sigma in SIGMAS:
                for scheme in schemes:
                    result.append(["eval", *severity, "--alpha", alpha, "--sigma", sigma, *scheme,
                                   "--lambda", "1e-4", *BOTH, "--format", "json"])
    # Selection combining with long rows, M(m - 1) from 176 to 4080.
    for alpha, m, branches in (("4", "12", "16"), ("2", "64", "4"), ("2", "100", "8"),
                               ("2", "171", "2"), ("4", "100", "16"), ("4", "256", "16"),
                               ("8", "64", "8"), ("4", "200", "16"), ("4", "200", "2")):
        result.append(["eval", "--m", m, *_SC4[:2], "--M", branches, "--alpha", alpha,
                       "--sigma", "0", "--lambda", "1e-4", *BOTH, "--format", "json"])
    # theta = m psi w / (k ptx) as a float product is 0, subnormal and inf.
    for channel in (["--psi", "1e-200", "--w", "1e-200"], ["--psi", "1e-160", "--w", "1e-160"],
                    ["--psi-db", "3000", "--w", "1e10"]):
        result.append(["eval", *channel, "--lambda", "1e-4", *BOTH, "--format", "json"])
    # Overflow inside the shadowed law, which must print no numpy warning: m psi/y
    # past the float range at psi = 1e300, and ln_budget + sigma g at sigma = 1e308.
    result.append(["eval", "--psi-db", "3000", "--m", "2", "--sigma", "1", "--lambda", "1e-4",
                   *BOTH, "--format", "json"])
    result.append(["eval", "--m-real", "1.5", "--sigma", "1e308", "--lambda", "1e-4"])
    result.append(["eval", "--psi-db", "3000", "--m-real", "1.5", "--sigma", "1", "--lambda",
                   "1e-4", "--format", "json"])
    return result


# ============================================================================
#  simulate
# ============================================================================

SEEDS = ("5", "20260809")
EDGE_SEEDS = ("0", "18446744073709551615")
ACCEPTANCE_CELLS = [["--m", str(m)] + s for m in (1, 2, 4) for s in (_NONE, _MRC2, _SC2)] + [
    ["--m", "2"] + _SC4,
    ["--m", "2", "--sigma", "2"] + _NONE,
    ["--m", "2", "--sigma", "2"] + _MRC2,
]
DENSE_CELLS = [["--m", "2", "--sigma", "2"] + _NONE, ["--m", "2", "--sigma", "2"] + _SC4]


def _simulated_cells() -> list[list[str]]:
    """Every simulated cell, without seed, jobs and output format."""
    result, lams = [], []
    for cell in ACCEPTANCE_CELLS:
        proc = run(["invert", *cell, "--target-pi", "0.6", "--format", "json"])
        if proc.returncode != 0:
            raise RuntimeError(f"invert {' '.join(cell)} exited {proc.returncode}: {proc.stderr}")
        lams.append(repr(json.loads(proc.stdout)["lambda_min"]))
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


def simulate_suite() -> list[list[str]]:
    cells = _simulated_cells()
    seeded = [(cell, seed) for cell in cells for seed in SEEDS]
    seeded += [(cells[0], seed) for seed in EDGE_SEEDS]
    # Selection combining over 8 branches at m = 100, whose closed form sums long rows.
    seeded.append((["--alpha", "2", "--m", "100", *_SC4[:2], "--M", "8", "--lambda", "5e-3",
                    "--runs", "300"], "1"))
    return [["simulate", *cell, "--seed", seed, "--jobs", jobs, "--format", "json"]
            for cell, seed in seeded for jobs in ("1", "2")]


# ============================================================================
#  Lines
# ============================================================================

SUITES = {"cli": cli_suite, "oracle": oracle_suite, "simulate": simulate_suite}


def lines(suite: str) -> list[str]:
    """The header line and one line per invocation of the suite."""
    result = [f"# python {platform.python_version()} numpy {metadata.version('numpy')} "
              f"scipy {metadata.version('scipy')}"]
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in CONFIG_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            for args in SUITES[suite]():
                proc = run(args)
                digests = [hashlib.sha256(text.encode()).hexdigest()
                           for text in (proc.stdout, proc.stderr)]
                for written in sorted(set(os.listdir()) - set(CONFIG_FILES)):
                    digests.append(hashlib.sha256(Path(written).read_bytes()).hexdigest())
                    os.remove(written)
                result.append(" ".join([*args, str(proc.returncode), *digests]))
        finally:
            os.chdir(start)
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in SUITES:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    print("\n".join(lines(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
