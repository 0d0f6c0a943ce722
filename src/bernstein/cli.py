"""Command line: config resolution and artifact persistence.

Usage:
    bernstein run <config.json> [--out DIR] [--seed N]
    bernstein check [--criteria N [N ...]]

``run`` resolves the config, seed and output directory, rejects any config
key that neither it nor the named experiment reads, runs the experiment
from ``experiments`` (which builds, solves and judges it and returns every
artifact it emits), and writes what it returned: every t x x field
through ``field_to_csv``, its one report as JSON with sorted keys, and a
manifest listing each written file with the sha256 of the bytes written
to it, the effective config, the pass/fail status of the experiment's
checks and, apart from those, its ``timings``: the compute time, each
file's write time and the usable CPU count. Every CSV float is written as
its repr; ``_csv_blocks`` formats each line by one orjson call, which
gives the same bytes faster, and says where the two differ. Every field
is written and hashed by one worker thread while the main thread formats
its next lines, so no file is read back to hash it. The exit
status is 1 if any check fails, and 2 on a config error, which prints one
line and no traceback: a config file that cannot be read, is not JSON or
is not a JSON object is one. The output directory is --out, else ./out.
``check`` runs the acceptance criteria, which run the same experiments and
write nothing.
This is the only module of the package that writes a file, so the artifact
formats are decided here alone.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import inspect
import itertools
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__, acceptance, core, experiments
from .core import ScalarField


def _write_json(doc, path: str) -> str:
    """``doc`` as indented JSON with sorted keys; returns the sha256 of the
    bytes written."""
    data = json.dumps(doc, indent=2, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


#: cells of one block that ``_csv_blocks`` formats. A 601x2001 field
#: formatted at once raised the obstacle benchmark's peak RSS from 170 to
#: 237 MB. Writing one such field in blocks of 16 384 cells raised a
#: process's peak by 1.0 MB, of 8192 by 0.2 MB, in the same time (measured
#: with one orjson call per block)
_BLOCK_CELLS = 8192
#: blocks ``field_to_csv`` hands its writer thread at a time. Every
#: hand-over costs the two threads switches of the interpreter lock: one
#: block at a time, writing on the thread was slower than writing inline
_HAND_OVER = 4
#: hand-overs not yet written, at most, while the next ones are formatted
_IN_FLIGHT = 2


def _repr_line(cells) -> bytes:
    """The floats ``cells`` as one CSV line of their reprs, unended."""
    return ",".join(map(repr, cells)).encode()


def _csv_blocks(first, rows):
    """One line per entry of the float array ``first`` (a time): the entry,
    then its row of the 2-d float array ``rows``, each written as its repr,
    as ``csv.writer`` writes them. No cell needs quoting, and lines end
    in csv's "\\r\\n". Yields the lines as bytes, one block of whole lines
    of about ``_BLOCK_CELLS`` cells at a time.

    Each line is formatted, its ``first`` entry as cell 0, by one
    ``orjson.dumps`` of the row. orjson writes the shortest round-trip
    digits, as repr does, and, measured from 5e-324 to 1e308 (orjson
    3.8.3), the same string but for 1e-9 <= |x| < 1e-4 (0.00001 for
    1e-05), |x| >= 1e16 (1e16 for 1e+16), NaN and +-inf (null). Each line
    holding such a cell is formatted by ``_repr_line`` instead.
    """
    import orjson  # here, not at the top: importing this module loads no orjson
    dumps, option = orjson.dumps, orjson.OPT_SERIALIZE_NUMPY
    step = -(-_BLOCK_CELLS // (rows.shape[1] + 1))
    for lo in range(0, len(rows), step):
        block = np.column_stack((first[lo:lo + step], rows[lo:lo + step]))
        mag = np.abs(block)
        by_repr = ((mag >= 1e-9) & (mag < 1e-4) | ~(mag < 1e16)).any(axis=1)
        lines = [_repr_line(row.tolist()) if rep else dumps(row, option=option)[1:-1]
                 for row, rep in zip(block, by_repr)]
        lines.append(b"")
        yield b"\r\n".join(lines)


def field_to_csv(fld: ScalarField, path: str) -> str:
    """Matrix CSV: first row is x nodes, first column is t nodes, then
    ``_csv_blocks`` of the values. Returns the sha256 of the bytes written.

    The calling thread writes the header and formats the blocks; one
    worker thread writes and hashes them, ``_HAND_OVER`` blocks at a time,
    at most ``_IN_FLIGHT`` hand-overs behind. An error the worker meets is
    raised here, after it has stopped."""
    # here, not at the top: ``check`` writes no field, and the import takes 7 ms
    from concurrent.futures import ThreadPoolExecutor
    header = ",".join(["t\\x", *map(repr, fld.grid.xs.tolist())]).encode()
    blocks = _csv_blocks(fld.grid.ts, fld.values)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data):
            fh.write(data)
            digest.update(data)

        put(header + b"\r\n")
        pool, pending = ThreadPoolExecutor(max_workers=1), collections.deque()
        try:
            while data := b"".join(itertools.islice(blocks, _HAND_OVER)):
                if len(pending) == _IN_FLIGHT:
                    pending.popleft().result()
                pending.append(pool.submit(put, data))
            while pending:
                pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)
    return digest.hexdigest()


EXPERIMENTS = tuple(experiments.RUNNERS)
#: config keys of every experiment, read here
TOP_KEYS = {"experiment", "seed"}


def run_experiment(cfg: dict, out_dir: str, seed: int) -> dict:
    """Run one named experiment; returns the manifest document. An unknown
    experiment, or a config key that is neither in ``TOP_KEYS`` nor a keyword
    parameter of the experiment, raises ``ConfigError`` before the run."""
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise experiments.ConfigError(
            f"unknown experiment {name!r}; valid choices: {', '.join(EXPERIMENTS)}"
        )
    runner = experiments.RUNNERS[name]
    valid = TOP_KEYS | set(inspect.signature(runner).parameters) - {"seed"}
    unknown = sorted(set(cfg) - valid)
    if unknown:
        raise experiments.ConfigError(
            f"unknown config keys {unknown} for {name}; "
            f"valid keys: {', '.join(sorted(valid))}")
    t0 = time.perf_counter()
    result = runner(seed, **{k: v for k, v in cfg.items() if k not in TOP_KEYS})
    compute_s = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    files, write_s = {}, {}  # file name -> its sha256, its write time
    jobs = [(f, field_to_csv, fld) for f, fld in result.fields.items()]
    jobs += [(f, _write_json, doc) for f, doc in result.reports.items()]
    for fname, write, item in jobs:
        t0 = time.perf_counter()
        files[fname] = write(item, os.path.join(out_dir, fname))
        write_s[fname] = time.perf_counter() - t0

    # here, not at the top: importing this module loads neither
    import orjson
    import scipy
    manifest = {
        "experiment": name,
        "config": cfg,
        "seed": seed,
        "versions": {
            "bernstein": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "orjson": orjson.__version__,
            "python": platform.python_version(),
        },
        "files": files,
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
    runp.add_argument("--out", default="out", help="output directory "
                                                   "(default: ./out)")
    runp.add_argument("--seed", type=int, help="override the simulation seed")
    chk = sub.add_parser("check", help="run the acceptance suite")
    chk.add_argument("--criteria", type=int, nargs="+",
                     choices=sorted(acceptance.CRITERIA),
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

    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise experiments.ConfigError(
                f"cannot read the config {args.config}: {exc.strerror}") from None
        except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
            raise experiments.ConfigError(
                f"the config {args.config} is not JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise experiments.ConfigError(
                f"a config is a JSON object of settings, not {cfg!r}")
        key, value = (("--seed", args.seed) if args.seed is not None
                      else ("seed", cfg.get("seed", 0)))
        seed = experiments._read(key, experiments._seed, value)
        manifest = run_experiment(cfg, args.out, seed)
    except experiments.ConfigError as exc:
        print(f"bernstein: error: {exc}", file=sys.stderr)
        return 2
    for name, ok in manifest["checks"].items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"manifest: {os.path.join(args.out, 'manifest.json')}")
    return 0 if manifest["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
