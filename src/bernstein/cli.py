"""Command line: config resolution and artifact persistence.

Usage:
    bernstein run <config.json> [--out DIR] [--seed N]
    bernstein check [--criteria N [N ...]]

``run`` resolves the config, seed and output directory, rejects any config
key that neither it nor the named experiment reads, runs the experiment
from ``experiments`` (which builds, solves and judges it and returns every
artifact it emits), and writes what it returned: every field
through ``field_to_csv``, every report as JSON with sorted keys, every table
through ``_csv_rows``, and a manifest listing each written file with its
sha256 hash, the effective config, the pass/fail status of the
experiment's checks and, apart from those, its ``timings``: the compute
time, each file's write time and the usable CPU count. A large CSV is
written in row blocks, one per usable CPU, through ``core.fork_blocks``,
with the same bytes as one writer. The exit
status is 1 if any check fails, and 2 on a config error, which prints one
line and no traceback. The output directory resolves as --out, then
$BERNSTEIN_OUT, then the config's "out" field, then ./out. ``check`` runs
the acceptance criteria, which run the same experiments and write nothing.
This is the only module of the package that writes a file, so the artifact
formats are decided here alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
import time

import numpy as np

from . import __version__, acceptance, core, experiments
from .core import ScalarField


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(doc, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


#: a row block of fewer cells is not given a process of its own. On 2 CPUs
#: two forked blocks first beat one writer at 40 000 to 50 000 cells (about
#: 0.7 us a cell); below 100 000 the gain is under 25 ms, and a fork costs
#: more in a parent holding large fields, so tables split from there
_MIN_BLOCK_CELLS = 50_000


def _write_rows(fh, first, rows) -> None:
    """One line per entry of the array ``first`` (a time, a node or a
    threshold): the entry, then its row's floats, each written as its repr,
    as ``csv.writer`` writes them. No cell needs quoting, and lines end in
    csv's "\\r\\n"."""
    fh.writelines(
        ",".join([repr(v), *map(repr, np.asarray(row, dtype=float).tolist())])
        + "\r\n"
        for v, row in zip(first.tolist(), rows))


def _csv_rows(path: str, header: str, first, rows) -> str:
    """CSV of the line ``header``, then ``_write_rows`` of ``first`` and
    ``rows``.

    A rectangular table is cut by ``core.block_bounds`` into contiguous row
    blocks of at least ``_MIN_BLOCK_CELLS`` cells, one per usable CPU, and
    written by ``core.fork_blocks``: this process writes the header and
    block 0 to ``path``, a forked child each later block to
    ``<path>.part<lo>`` (``lo`` its first row); the parts are then appended
    in order and removed. Every block goes through ``_write_rows``, so the
    bytes do not depend on the number of blocks. If a block fails, every
    part and ``path`` itself are removed before the error propagates. A
    child only reprs floats and writes its own file.
    """
    rectangular = isinstance(rows, np.ndarray) and rows.ndim == 2
    min_block = (-(-_MIN_BLOCK_CELLS // max(rows.shape[1], 1)) if rectangular
                 else len(rows) + 1)

    def write_block(lo, hi):
        with open(path if lo == 0 else f"{path}.part{lo}", "w",
                  newline="") as fh:
            if lo == 0:
                fh.write(header + "\r\n")
            _write_rows(fh, first[lo:hi], rows[lo:hi])

    bounds = core.block_bounds(len(rows), min_block)
    parts = [f"{path}.part{lo}" for lo in bounds[1:-1]]
    try:
        core.fork_blocks(bounds, write_block)
        with open(path, "ab") as fh:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
                os.remove(part)
    except BaseException:
        for leftover in (*parts, path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(leftover)
        raise
    return path


def field_to_csv(fld: ScalarField, path: str) -> str:
    """Matrix CSV: first row is x nodes, first column is t nodes."""
    header = ",".join(["t\\x", *map(repr, fld.grid.xs.tolist())])
    return _csv_rows(path, header, fld.grid.ts, fld.values)


EXPERIMENTS = tuple(experiments.RUNNERS)
#: config keys of every experiment, read here
TOP_KEYS = {"experiment", "out", "seed"}


def run_experiment(cfg: dict, out_dir: str, seed: int) -> dict:
    """Run one named experiment; returns the manifest document. An unknown
    experiment, or a config key that neither this module nor the experiment
    reads, raises ``ConfigError`` before the run."""
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise experiments.ConfigError(
            f"unknown experiment {name!r}; valid choices: {', '.join(EXPERIMENTS)}"
        )
    valid = TOP_KEYS | experiments.CONFIG_KEYS[name]
    unknown = sorted(set(cfg) - valid)
    if unknown:
        raise experiments.ConfigError(
            f"unknown config keys {unknown} for {name}; "
            f"valid keys: {', '.join(sorted(valid))}")
    t0 = time.perf_counter()
    result = experiments.RUNNERS[name](cfg, seed)
    compute_s = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    write_s = {}

    def timed(fname, write):
        t0 = time.perf_counter()
        path = write(os.path.join(out_dir, fname))
        write_s[fname] = time.perf_counter() - t0
        return path

    files = [timed(f, lambda p: field_to_csv(fld, p))
             for f, fld in result.fields.items()]
    files += [timed(f, lambda p: _write_json(doc, p))
              for f, doc in result.reports.items()]
    files += [timed(f, lambda p: _csv_rows(p, *table))
              for f, table in result.tables.items()]

    import scipy  # here, not at the top: importing this module loads no scipy
    manifest = {
        "experiment": name,
        "config": cfg,
        "seed": seed,
        "versions": {
            "bernstein": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "files": {os.path.basename(p): _sha256(p) for p in files},
        "checks": {k: bool(v) for k, v in result.checks.items()},
        "all_checks_passed": all(result.checks.values()),
        "timings": {"compute_s": compute_s, "write_s": write_s,
                    "cpus": core.usable_cpus()},
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bernstein",
        description="Free-boundary diffusion solvers, endpoint pinning, "
                    "stopping-time distributions, and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a named experiment from a JSON config")
    runp.add_argument("config", help="path to the experiment config JSON")
    runp.add_argument("--out", help="output directory (overrides $BERNSTEIN_OUT "
                                    "and the config)")
    runp.add_argument("--seed", type=int, help="override the simulation seed")
    chk = sub.add_parser("check", help="run the acceptance suite")
    chk.add_argument("--criteria", type=int, nargs="+",
                     help="subset of criterion numbers to run")
    args = parser.parse_args(argv)

    if args.command == "check":
        results = acceptance.run_all(args.criteria)
        print("\n".join(r.line() for r in results))
        failed = [r.number for r in results if not r.passed]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
        print("all criteria passed")
        return 0

    with open(args.config) as fh:
        cfg = json.load(fh)
    out_dir = (args.out or os.environ.get("BERNSTEIN_OUT")
               or cfg.get("out") or "out")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    try:
        manifest = run_experiment(cfg, out_dir, seed)
    except experiments.ConfigError as exc:
        print(f"bernstein: error: {exc}", file=sys.stderr)
        return 2
    for name, ok in manifest["checks"].items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    return 0 if manifest["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
