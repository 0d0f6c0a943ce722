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
sha256 hash, the effective config, and the pass/fail status of the
experiment's checks. The exit status is nonzero iff any check fails. The
output directory resolves as --out, then $BERNSTEIN_OUT, then the config's
"out" field, then ./out. ``check`` runs the acceptance criteria, which run
the same experiments and write nothing. This is the only module of the
package that writes a file, so the artifact formats are decided here alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, acceptance, experiments
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


def _csv_rows(path: str, header: str, first, rows) -> str:
    """CSV of one line per entry of the array ``first`` (a time, a node or
    a threshold): the entry, then its row's floats, each written as its
    repr, as ``csv.writer`` writes them. No cell needs quoting, and lines
    end in csv's "\\r\\n"."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(
            ",".join([repr(v), *map(repr, np.asarray(row, dtype=float).tolist())])
            + "\r\n"
            for v, row in zip(first.tolist(), rows))
    return path


def field_to_csv(fld: ScalarField, path: str) -> str:
    """Matrix CSV: first row is x nodes, first column is t nodes."""
    header = ",".join(["t\\x", *map(repr, fld.grid.xs.tolist())])
    return _csv_rows(path, header, fld.grid.ts, fld.values)


EXPERIMENTS = tuple(experiments.RUNNERS)
#: config keys of every experiment, read here
TOP_KEYS = {"experiment", "out", "seed"}


def run_experiment(cfg: dict, out_dir: str, seed: int) -> dict:
    """Run one named experiment; returns the manifest document. A config key
    that neither this module nor the experiment reads raises before the
    run."""
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; valid choices: {', '.join(EXPERIMENTS)}"
        )
    valid = TOP_KEYS | experiments.CONFIG_KEYS[name]
    unknown = sorted(set(cfg) - valid)
    if unknown:
        raise ValueError(f"unknown config keys {unknown} for {name}; "
                         f"valid keys: {', '.join(sorted(valid))}")
    result = experiments.RUNNERS[name](cfg, seed)
    os.makedirs(out_dir, exist_ok=True)
    files = [field_to_csv(fld, os.path.join(out_dir, fname))
             for fname, fld in result.fields.items()]
    files += [_write_json(doc, os.path.join(out_dir, fname))
              for fname, doc in result.reports.items()]
    files += [_csv_rows(os.path.join(out_dir, fname), *table)
              for fname, table in result.tables.items()]

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
        for r in results:
            print(r.line())
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
    manifest = run_experiment(cfg, out_dir, seed)
    for name, ok in manifest["checks"].items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    return 0 if manifest["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
