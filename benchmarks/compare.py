"""Perf trajectory: committed baselines and the regression comparator.

Every registered stage case emits best-of-N per-stage wall-clock in its
``BENCH_<case>.json`` envelope (``best_of_seconds``, stable stage keys).
This module turns those envelopes into a durable contract:

- ``benchmarks/baselines/BASELINE_<case>.json`` holds the blessed
  numbers — per-stage best-of-N seconds keyed by an **environment
  fingerprint** (python major.minor + machine + cpu count + workers),
  plus the structural facts the case must keep reproducing (the stage
  key set and the contract keys: parity, sampling, workload shape).
- :func:`compare_envelope` diffs a fresh envelope against the baseline.
  **Structural drift is always an error**: a missing or new stage key, a
  changed parity/sampling contract, a changed scale/seed/workload.
  **Timing drift is an error only beyond tolerance** — and only when the
  run's environment fingerprint has a blessed entry: wall-clock from a
  1-core dev container is not comparable to the 4-vCPU CI runner class,
  so fingerprints that were never blessed get the structural gate plus a
  loud "timing gate skipped" note instead of noise-driven failures.
- Tolerance is deliberately generous: ``fresh <= max(multiplier x base,
  base + floor)`` with a 3x multiplier and a 0.25s absolute floor, since
  best-of-N on a shared CI runner still jitters and sub-100ms stages are
  scheduler-noise-dominated.

The runner wires this in as ``benchmarks/run.py --compare
[--update-baseline]``; this module is also its own CLI for gating or
blessing an *existing* envelope without re-running the case (CI uses it
to regenerate runner-class baseline candidates as artifacts)::

    python benchmarks/compare.py benchmarks/results/BENCH_pipeline.json
    python benchmarks/compare.py benchmarks/results/BENCH_pipeline.json \
        --update-baseline --baselines-dir bench-candidates
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Where the blessed baselines live (committed to the repo).
BASELINES_DIR = BENCH_DIR / "baselines"

#: Bumped when the baseline schema changes incompatibly; a mismatched
#: format is structural drift (re-bless, don't guess).
BASELINE_FORMAT = 1

#: Timing budget = max(multiplier x base, base + floor).  Generous on
#: purpose: the gate exists to catch 3x regressions that would otherwise
#: rot silently, not 20% wobble on a noisy shared runner.
TOLERANCE_MULTIPLIER = 3.0
TOLERANCE_FLOOR_SECONDS = 0.25

#: Report keys that form the structural contract when present.  These
#: are facts a case must keep reproducing exactly — parity/sampling
#: contracts and the deterministic workload shape — never timings
#: (``vectorized_speedup`` et al. stay out).
CONTRACT_KEYS = (
    "bit_identical",
    "hybrid_parity",
    "sampling",
    "backend_used",
    "sample_limit",
    "n_pages",
    "n_records",
    "changed_on_first_pass",
)


def fingerprint_of(envelope: dict) -> str:
    """The timing-comparability key for an envelope's environment.

    Wall-clock only compares within a runner class: same interpreter
    line, same architecture, same core count, same worker count.
    """
    python = ".".join(str(envelope.get("python", "?")).split(".")[:2])
    return (
        f"py{python}-{envelope.get('machine', '?')}"
        f"-cpu{envelope.get('cpu_count', '?')}-w{envelope.get('workers', '?')}"
    )


def stem_of(case: str, scale: str | None = None) -> str:
    """The file stem for a case at a scale.

    The default ``small`` scale keeps the bare historical stem
    (``BENCH_pipeline.json`` / ``BASELINE_pipeline.json``); any other
    scale qualifies it (``pipeline--web``) so one case can hold an
    independent baseline per scale tier without the tiers gating each
    other's structure or timings.
    """
    if scale in (None, "small"):
        return case
    return f"{case}--{scale}"


def baseline_path(stem: str, baselines_dir: Path = BASELINES_DIR) -> Path:
    return Path(baselines_dir) / f"BASELINE_{stem}.json"


def load_baseline(stem: str, baselines_dir: Path = BASELINES_DIR) -> dict | None:
    path = baseline_path(stem, baselines_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _contracts_of(envelope: dict) -> dict:
    report = envelope.get("report") or {}
    return {key: report[key] for key in CONTRACT_KEYS if key in report}


def _environment_entry(envelope: dict) -> dict:
    return {
        "python": envelope.get("python"),
        "machine": envelope.get("machine"),
        "cpu_count": envelope.get("cpu_count"),
        "workers": envelope.get("workers"),
        "git_commit": envelope.get("git_commit"),
        "best_of_seconds": {
            stage: round(float(seconds), 4)
            for stage, seconds in (envelope.get("best_of_seconds") or {}).items()
        },
    }


def baseline_from_envelope(envelope: dict) -> dict:
    """A fresh baseline blessing exactly one environment fingerprint."""
    return {
        "format": BASELINE_FORMAT,
        "case": envelope["case"],
        "kind": envelope.get("kind"),
        "scale": envelope.get("scale"),
        "seed": envelope.get("seed"),
        "timing_rounds": envelope.get("timing_rounds"),
        "stages": sorted(envelope.get("best_of_seconds") or {}),
        "contracts": _contracts_of(envelope),
        "environments": {fingerprint_of(envelope): _environment_entry(envelope)},
    }


def _atomic_write_json(path: Path, payload: dict) -> None:
    """tmp + rename in the destination directory: readers never see a
    torn baseline, and a crash leaves the old blessing intact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def update_baseline(
    envelope: dict, baselines_dir: Path = BASELINES_DIR
) -> Path:
    """Bless ``envelope`` as the baseline for its fingerprint.

    Other fingerprints' entries survive as long as the structural facts
    (scale/seed, stage key set, contracts) are unchanged; a structural
    change invalidates every blessed timing, so the baseline is rebuilt
    around the fresh run alone.  The write is atomic.
    """
    fresh = baseline_from_envelope(envelope)
    stem = stem_of(envelope["case"], envelope.get("scale"))
    existing = load_baseline(stem, baselines_dir)
    if existing is not None:
        structural = ("format", "case", "kind", "scale", "seed", "stages", "contracts")
        if all(existing.get(key) == fresh[key] for key in structural):
            environments = dict(existing.get("environments") or {})
            environments.update(fresh["environments"])
            fresh["environments"] = environments
    path = baseline_path(stem, baselines_dir)
    _atomic_write_json(path, fresh)
    return path


@dataclass
class CompareResult:
    """The verdict of one envelope-vs-baseline diff."""

    case: str
    fingerprint: str
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Per-stage rows for the human-readable report:
    #: (stage, base_seconds, fresh_seconds, budget_seconds, verdict).
    stage_rows: list[tuple] = field(default_factory=list)
    timing_gated: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        lines = [
            f"perf compare: case={self.case} fingerprint={self.fingerprint}",
            f"verdict: {'OK' if self.ok else 'REGRESSION'}"
            + ("" if self.timing_gated else " (timing gate skipped)"),
        ]
        if self.stage_rows:
            width = max(len(stage) for stage, *_ in self.stage_rows)
            lines.append(
                f"{'stage':<{width}}  {'base':>8}  {'fresh':>8}  "
                f"{'budget':>8}  verdict"
            )
            for stage, base, fresh, budget, verdict in self.stage_rows:
                lines.append(
                    f"{stage:<{width}}  {base:8.3f}  {fresh:8.3f}  "
                    f"{budget:8.3f}  {verdict}"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        for error in self.errors:
            lines.append(f"error: {error}")
        return "\n".join(lines) + "\n"


def compare_envelope(
    envelope: dict,
    baseline: dict | None,
    multiplier: float = TOLERANCE_MULTIPLIER,
    floor_seconds: float = TOLERANCE_FLOOR_SECONDS,
) -> CompareResult:
    """Diff a fresh envelope against its blessed baseline."""
    result = CompareResult(
        case=envelope.get("case", "?"), fingerprint=fingerprint_of(envelope)
    )
    if baseline is None:
        result.errors.append(
            "no committed baseline for this case — bless one with "
            "--compare --update-baseline"
        )
        return result
    if baseline.get("format") != BASELINE_FORMAT:
        result.errors.append(
            f"baseline format {baseline.get('format')!r} != "
            f"{BASELINE_FORMAT} (re-bless with --update-baseline)"
        )
        return result

    # Structural identity: the run must be the workload the baseline
    # pinned.  A changed scale/seed/kind is never "a bit slower".
    for key in ("case", "kind", "scale", "seed"):
        if envelope.get(key) != baseline.get(key):
            result.errors.append(
                f"structural drift: {key} changed "
                f"{baseline.get(key)!r} -> {envelope.get(key)!r}"
            )

    # Contract keys: parity/sampling/workload facts.
    contracts = _contracts_of(envelope)
    base_contracts = baseline.get("contracts") or {}
    for key, base_value in sorted(base_contracts.items()):
        if key not in contracts:
            result.errors.append(
                f"structural drift: contract key {key!r} disappeared "
                f"(baseline pinned {base_value!r})"
            )
        elif contracts[key] != base_value:
            result.errors.append(
                f"structural drift: contract {key!r} changed "
                f"{base_value!r} -> {contracts[key]!r}"
            )
    for key in sorted(set(contracts) - set(base_contracts)):
        result.errors.append(
            f"structural drift: new contract key {key!r} not in baseline "
            "(bless it with --update-baseline)"
        )

    # Stage key set: environment-independent, enforced even when the
    # timing gate is skipped.
    fresh_stages = set(envelope.get("best_of_seconds") or {})
    base_stages = set(baseline.get("stages") or [])
    for stage in sorted(base_stages - fresh_stages):
        result.errors.append(f"structural drift: stage {stage!r} disappeared")
    for stage in sorted(fresh_stages - base_stages):
        result.errors.append(
            f"structural drift: new stage {stage!r} not in baseline "
            "(bless it with --update-baseline)"
        )

    if envelope.get("timing_rounds") != baseline.get("timing_rounds"):
        result.notes.append(
            f"timing_rounds changed {baseline.get('timing_rounds')!r} -> "
            f"{envelope.get('timing_rounds')!r}; best-of semantics shifted"
        )

    # Timing gate: only a blessed entry for this exact runner class is
    # comparable wall-clock.
    entry = (baseline.get("environments") or {}).get(result.fingerprint)
    if entry is None:
        blessed = ", ".join(sorted(baseline.get("environments") or {})) or "none"
        result.notes.append(
            f"no blessed timings for fingerprint {result.fingerprint} "
            f"(blessed: {blessed}); timing gate skipped, structural "
            "checks still enforced — bless this runner class with "
            "--update-baseline"
        )
        return result

    result.timing_gated = True
    fresh_timings = envelope.get("best_of_seconds") or {}
    for stage, base_seconds in sorted((entry.get("best_of_seconds") or {}).items()):
        if stage not in fresh_timings:
            continue  # already reported as structural drift above
        fresh_seconds = float(fresh_timings[stage])
        budget = max(base_seconds * multiplier, base_seconds + floor_seconds)
        if fresh_seconds > budget:
            verdict = "REGRESSION"
            result.errors.append(
                f"timing regression: stage {stage!r} took "
                f"{fresh_seconds:.3f}s, budget {budget:.3f}s "
                f"(best-of-N baseline {base_seconds:.3f}s x {multiplier:g} "
                f"multiplier, {floor_seconds:g}s floor)"
            )
        elif base_seconds > floor_seconds and fresh_seconds * multiplier < base_seconds:
            verdict = "improved"
            result.notes.append(
                f"stage {stage!r} improved {base_seconds:.3f}s -> "
                f"{fresh_seconds:.3f}s; consider re-blessing so the gate "
                "protects the win"
            )
        else:
            verdict = "ok"
        result.stage_rows.append(
            (stage, base_seconds, fresh_seconds, budget, verdict)
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "diff BENCH_<case>.json envelopes against committed baselines "
            "(or bless them with --update-baseline)"
        )
    )
    parser.add_argument(
        "envelopes", nargs="+", type=Path, metavar="BENCH_JSON",
        help="envelope file(s) written by benchmarks/run.py",
    )
    parser.add_argument(
        "--baselines-dir", type=Path, default=BASELINES_DIR,
        help="baseline directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="bless the envelope(s) instead of gating against them",
    )
    parser.add_argument(
        "--multiplier", type=float, default=TOLERANCE_MULTIPLIER,
        help="timing tolerance multiplier (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    failed = 0
    for envelope_path in args.envelopes:
        envelope = json.loads(envelope_path.read_text())
        if args.update_baseline:
            path = update_baseline(envelope, args.baselines_dir)
            print(f"{envelope['case']}: blessed -> {path}")
            continue
        baseline = load_baseline(
            stem_of(envelope["case"], envelope.get("scale")), args.baselines_dir
        )
        result = compare_envelope(envelope, baseline, multiplier=args.multiplier)
        sys.stdout.write(result.render())
        failed += not result.ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
