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
experiment's checks. A large CSV is written in row blocks by forked
writers, one per usable CPU, with the same bytes as one writer. The exit
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
import signal
import sys
import traceback

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


#: a table of fewer cells is written by one process: one fork costs
#: milliseconds, formatting one cell about half a microsecond
_SPLIT_CELLS = 100_000


def _write_rows(fh, first, rows) -> None:
    """One line per entry of the array ``first`` (a time, a node or a
    threshold): the entry, then its row's floats, each written as its repr,
    as ``csv.writer`` writes them. No cell needs quoting, and lines end in
    csv's "\\r\\n"."""
    fh.writelines(
        ",".join([repr(v), *map(repr, np.asarray(row, dtype=float).tolist())])
        + "\r\n"
        for v, row in zip(first.tolist(), rows))


def _row_blocks(rows) -> list:
    """The first row of each block of ``rows``, then the row count: one
    block per usable CPU for a large rectangular table, else one block."""
    n = len(rows)
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or not isinstance(rows, np.ndarray) or rows.ndim != 2
            or rows.size < _SPLIT_CELLS):
        return [0, n]
    k = min(len(os.sched_getaffinity(0)), n)
    return [n * i // k for i in range(k + 1)]


def _write_part(part: str, first, rows) -> None:
    """Body of a forked block writer: writes ``part`` and never returns."""
    code = 1
    try:
        try:
            with open(part, "w", newline="") as fh:
                _write_rows(fh, first, rows)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
    finally:
        os._exit(code)


def _csv_rows(path: str, header: str, first, rows) -> str:
    """CSV of the line ``header``, then ``_write_rows`` of ``first`` and
    ``rows``.

    A large rectangular table is cut into contiguous row blocks, one per
    usable CPU. A forked child writes each block after the first to
    ``<path>.part<i>`` while this process writes the header and the first
    block; the parts are then appended in order and removed. Every block
    goes through ``_write_rows``, so the bytes do not depend on the number
    of blocks. If a child fails, or this process raises while children
    run, every child is reaped and every part and ``path`` itself are
    removed before the error propagates.

    The fork is safe although the process may hold BLAS threads: a child
    calls no BLAS and takes no library lock, it only reprs floats and
    writes its own file, and it leaves through ``os._exit``, so it runs no
    exit handler and flushes no inherited buffer. From Python 3.12 on,
    ``os.fork`` warns in a process with threads; that warning is left to
    the caller's filters.
    """
    bounds = _row_blocks(rows)
    parts = [f"{path}.part{i}" for i in range(1, len(bounds) - 1)]
    children = []  # (pid, part) of each child not yet reaped
    try:
        for i, part in enumerate(parts, start=1):
            pid = os.fork()
            if pid == 0:
                _write_part(part, first[bounds[i]:bounds[i + 1]],
                            rows[bounds[i]:bounds[i + 1]])
            children.append((pid, part))
        with open(path, "w", newline="") as fh:
            fh.write(header + "\r\n")
            _write_rows(fh, first[:bounds[1]], rows[:bounds[1]])
        with open(path, "ab") as fh:
            while children:
                pid, part = children.pop(0)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0:
                    raise OSError(f"writing {path}: the writer of {part} "
                                  f"exited with status {code}")
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
                os.remove(part)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
