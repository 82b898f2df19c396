#!/usr/bin/env python
"""The benchmark runner: one entrypoint for every registered case.

Usage::

    python benchmarks/run.py --list
    python benchmarks/run.py --case pipeline --scale tiny
    python benchmarks/run.py --case backends --case sampling --workers 4
    python benchmarks/run.py --all --scale small
    python benchmarks/run.py --case pipeline --compare
    python benchmarks/run.py --case pipeline --compare --update-baseline

Each selected case runs against one shared :class:`BenchContext` — the
scenario is built once per scale and every parallel case reuses a single
warm worker pool — asserts its documented parity contract *before*
timing, and writes a machine-readable envelope to
``benchmarks/results/BENCH_<case>.json`` (alongside whatever text report
the case itself persists, e.g. ``results/backends.txt`` or the per-figure
``results/<id>.txt`` artifacts).  The envelope carries both the cold
single-pass ``elapsed_seconds`` and the per-stage best-of-N
``best_of_seconds`` the stage cases measure, plus the environment
fingerprint and git commit the perf trajectory needs.

``--compare`` diffs every fresh envelope against its committed baseline
(``benchmarks/baselines/BASELINE_<case>.json``) via
:mod:`benchmarks.compare`, writes the human-readable diff to
``results/COMPARE_<case>.txt``, and exits non-zero on structural drift
or a wall-clock regression beyond tolerance; ``--update-baseline``
blesses the fresh run instead.

A case that fails — assertion or any other exception — is recorded and
reported, and the remaining selected cases still run; the exit code is
non-zero if anything failed.

The script is self-bootstrapping: it runs from a plain checkout (no
``PYTHONPATH`` needed) and from an installed package alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.compare import (  # noqa: E402
    BASELINES_DIR,
    compare_envelope,
    load_baseline,
    stem_of,
    update_baseline,
)
from benchmarks.registry import (  # noqa: E402
    REGISTRY,
    RESULTS_DIR,
    SCALES,
    TIMING_ROUNDS,
    BenchContext,
)


def _list_cases() -> None:
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY, key=lambda n: (REGISTRY[n].kind, n)):
        case = REGISTRY[name]
        print(f"{name:<{width}}  [{case.kind}]  {case.description}")


def _git_commit() -> str | None:
    """Trajectory provenance: which tree produced this envelope."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(_REPO_ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run registered benchmark cases -> results/BENCH_<case>.json"
    )
    parser.add_argument(
        "--case",
        action="append",
        default=None,
        choices=sorted(REGISTRY),
        metavar="NAME",
        help="case to run (repeatable; see --list)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered case"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered cases and exit"
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="scenario preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the shared parallel executor (default: CPU count)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=RESULTS_DIR,
        help="where BENCH_<case>.json and text reports land",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="scenario artifact cache directory (repro.artifacts): warm "
        "runs skip worldgen, bit-identically (default: no on-disk cache)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="diff each envelope against benchmarks/baselines/"
        "BASELINE_<case>.json; non-zero exit on structural drift or "
        "wall-clock regression beyond tolerance",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="with --compare: bless the fresh run as the baseline for "
        "this environment fingerprint instead of gating",
    )
    parser.add_argument(
        "--baselines-dir", type=Path, default=BASELINES_DIR,
        help="baseline directory (default: benchmarks/baselines)",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_cases()
        return 0
    if args.case and args.all:
        parser.error(
            "--case and --all are mutually exclusive: --all already runs "
            "every registered case"
        )
    if args.update_baseline and not args.compare:
        parser.error("--update-baseline requires --compare")
    names = args.case or (sorted(REGISTRY) if args.all else None)
    if not names:
        parser.error("select cases with --case NAME (repeatable) or --all")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    ctx = BenchContext(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        results_dir=args.out_dir,
        cache_dir=args.cache_dir,
    )
    git_commit = _git_commit()
    failures: list[str] = []
    envelopes: dict[str, dict] = {}
    try:
        for name in names:
            case = REGISTRY[name]
            start = time.perf_counter()
            try:
                report = case.run(ctx)
            except AssertionError as error:
                failures.append(name)
                print(f"{name}: FAILED — {error}", file=sys.stderr)
                continue
            except Exception as error:
                # Any other exception (registry KeyError,
                # FileNotFoundError, ...) must not abort the whole run:
                # record it, keep going, exit non-zero at the end.
                failures.append(name)
                print(
                    f"{name}: ERROR — {type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            envelope = {
                "case": name,
                "kind": case.kind,
                "scale": ctx.scale,
                "seed": ctx.seed,
                **ctx.environment(),
                "git_commit": git_commit,
                # Cold single-pass wall-clock of the whole case body —
                # setup, parity assertions and all.  Never compared
                # against baselines; the per-stage best-of-N below is.
                "elapsed_seconds": round(elapsed, 3),
                # A case may override the invocation-wide rounds (the
                # streaming web branch is a single measured pass).
                "timing_rounds": report.get("timing_rounds", TIMING_ROUNDS),
                "best_of_seconds": report.get("best_of", {}),
                "report": report,
            }
            stem = stem_of(name, ctx.scale)
            out = args.out_dir / f"BENCH_{stem}.json"
            out.write_text(json.dumps(envelope, indent=2) + "\n")
            envelopes[stem] = envelope
            print(f"{name}: {elapsed:.2f}s -> {out}")
    finally:
        ctx.close()

    regressions: list[str] = []
    if args.compare:
        for stem, envelope in envelopes.items():
            if args.update_baseline:
                path = update_baseline(envelope, args.baselines_dir)
                print(f"{stem}: baseline blessed -> {path}")
                continue
            baseline = load_baseline(stem, args.baselines_dir)
            result = compare_envelope(envelope, baseline)
            diff_path = args.out_dir / f"COMPARE_{stem}.txt"
            diff_path.write_text(result.render())
            if result.ok:
                print(f"{stem}: compare OK -> {diff_path}")
            else:
                regressions.append(stem)
                print(f"{stem}: compare REGRESSION -> {diff_path}",
                      file=sys.stderr)
                sys.stderr.write(result.render())

    if failures:
        print(f"{len(failures)} case(s) failed: {', '.join(failures)}",
              file=sys.stderr)
    if regressions:
        print(
            f"{len(regressions)} case(s) regressed against baseline: "
            f"{', '.join(regressions)}",
            file=sys.stderr,
        )
    return 1 if failures or regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
