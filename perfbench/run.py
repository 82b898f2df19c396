"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload small-pipeline --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run sets up the workload several times, repeats
the untraced op for ``--seconds`` and reports the end-to-end metrics
named in ``BENCHMARK.json``, with times put on a steady scale by the
speed probe of ``perfbench/speed.py``.  With ``--trace 1`` it sets up
once under spans and alternates untraced and traced ops, reporting the
per-layer metrics.  Every op is checked against the workload's scalar oracle;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and run
metadata are written to ``perfbench/out/`` when the run ends.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import probe, scale  # noqa: E402
from tracer import Tracer, cpu_seconds, layer_metrics, peak_rss_mb, span_records  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Setups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Ops (traced and untraced together) a run makes even when they
#: outlast ``--seconds``.
MIN_OPS = 3

END_TO_END = ("setup_s", "op_p50_s", "records_per_s", "cpu_s_per_op", "peak_rss_mb", "success_rate")
LAYERS = ("world", "artifacts", "extract", "datasets", "matrix", "fusion", "eval")
PER_LAYER = (
    "world.worldgen_s", "world.freebase_s", "world.pagegen_s", "world.pages", "world.pages_per_s",
    "artifacts.load_s", "artifacts.save_s", "artifacts.hits", "artifacts.misses",
    "extract.fleet_s", "extract.coverage_s", "extract.synthesis_s", "extract.classify_s",
    "extract.records", "extract.synthesis_fallbacks",
    "datasets.labeling_s", "datasets.unique_triples", "datasets.labelled",
    "matrix.build_s", "matrix.columnar_s", "matrix.claims", "matrix.provenances", "matrix.items",
    "fusion.fuse_s", "fusion.calls", "fusion.rounds", "fusion.n_active_final",
    "eval.metrics_s",
) + tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("cpu_s", "rss_hwm_mb")) + (
    "trace.setup_s", "trace.op_s", "trace.overhead_s", "trace.unaccounted_s",
)


class Refused(Exception):
    """The run cannot produce a trustworthy result; nothing is reported."""


@dataclass
class OpRecord:
    traced: bool
    wall: float | None = None
    cpu: float | None = None
    scale: float = 1.0
    summary: object = None
    trace: object = None
    errors: list | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_units() -> dict[str, str]:
    """Metric units from ``BENCHMARK.json``, whose metric names must be ours."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Refused(f"{path.name} not found next to {HERE.name}/")
    spec = json.loads(path.read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    declared = ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])
    if declared != (list(END_TO_END), list(PER_LAYER)):
        raise Refused("BENCHMARK.json metric names differ from perfbench/run.py")
    return units


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def check_fingerprint(env: dict, workload: str, seed: int, fingerprint: dict) -> None:
    """Refuse when the same code gives one seed two inputs, or two seeds one.

    Fingerprints persist across runs in ``perfbench/out/fingerprints.json``
    keyed by the source digest, so the check spans separate processes.
    """
    path = OUT / "fingerprints.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.setdefault(env["source_sha256"], {}).setdefault(workload, {})
    previous = seen.get(str(seed))
    if previous is not None and previous != fingerprint:
        raise Refused(f"seed {seed} gave input {fingerprint}, earlier {previous}")
    for other, other_fp in seen.items():
        if other != str(seed) and other_fp["content"] == fingerprint["content"]:
            raise Refused(f"seeds {seed} and {other} gave identical inputs")
    seen[str(seed)] = fingerprint
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)


def describe(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)]


def run_op(workload, aligner, tracer: Tracer | None, records: list[OpRecord]) -> None:
    """Run one op and append its record; an op that raises is recorded
    and the run goes on.  With a tracer, ops alternate untraced and
    traced, and each traced op runs on the same input as the untraced op
    before it and must reproduce it."""
    from workloads import compare

    traced = tracer is not None and bool(records) and not records[-1].traced
    record = OpRecord(traced=traced)
    untraced = sum(1 for earlier in records if not earlier.traced)
    prepared = workload.prepare(untraced - 1 if traced else untraced)
    gc.collect()
    try:
        cpu_start, wall_start = cpu_seconds(), time.perf_counter()
        if traced:
            with tracer.root("op") as trace:
                outcome = workload.traced_op(prepared, tracer)
            record.trace = trace
        else:
            outcome = workload.op(prepared)
        record.wall = time.perf_counter() - wall_start
        record.cpu = cpu_seconds() - cpu_start
        record.summary = aligner.summarize(outcome)
    except Exception as exc:  # an op failure is measured, not fatal
        record.errors = describe(exc)
    if traced and record.summary is not None and records[-1].summary is not None:
        mismatch = compare(record.summary, records[-1].summary, 0.0)
        if mismatch:
            record.errors = ["traced op differs from untraced op"] + mismatch
    records.append(record)


def timed_setup(workload, rep: int) -> float:
    gc.collect()
    started = time.perf_counter()
    workload.setup(rep)
    return time.perf_counter() - started


@dataclass
class Measurement:
    records: list[OpRecord]
    setup_times: list[float]
    setup_scales: list[float]
    peak_mb: float
    setup_trace: object = None


def measure(workload, aligner, seconds: float, tracer: Tracer | None) -> Measurement:
    """Set-ups and ops; in untraced runs each is followed by a speed probe.

    The first set-up and the first op run before any probe and the RSS
    high-water mark is read right after them, so the probe's own
    allocations never reach ``peak_rss_mb``.  Further set-ups and ops
    are scaled by the probes on both sides.  Traced runs take no probes:
    their per-layer metrics are unscaled.
    """
    records: list[OpRecord] = []
    if tracer is not None:
        with tracer.root("setup") as setup_trace:
            workload.traced_setup(tracer)
        for rep in range(1, workload.worlds):
            workload.setup(rep)
        start = time.perf_counter()
        while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
            run_op(workload, aligner, tracer, records)
        return Measurement(records, [], [], peak_rss_mb(), setup_trace)

    setup_times = [timed_setup(workload, 0)]
    run_op(workload, aligner, None, records)
    peak_mb = peak_rss_mb()
    probes = [probe()]
    records[0].scale = scale(probes[0])
    setup_scales = [scale(probes[0])]
    for rep in range(1, SETUP_REPEATS):
        setup_times.append(timed_setup(workload, rep))
        probes.append(probe())
        setup_scales.append(scale(*probes[-2:]))
    start = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
        run_op(workload, aligner, None, records)
        probes.append(probe())
        records[-1].scale = scale(*probes[-2:])
    return Measurement(records, setup_times, setup_scales, peak_mb)


def check_ops(workload, aligner, records: list[OpRecord]) -> tuple[dict | None, float | None]:
    """Compare every op with the scalar oracle of its scenario (computed
    here, untimed).

    Returns the run's input fingerprint and the largest difference
    between an op's metrics and the oracle's own metrics, which is
    reported but not checked (see ``workloads.headline_score``).
    """
    from workloads import PARITY_TOL, combined_fingerprint, compare

    outcomes = []
    try:
        outcomes = workload.oracle()
        references = {outcome.world: (outcome, aligner.summarize(outcome)) for outcome in outcomes}
        failure = [
            error for _, reference in references.values() for error in workload.golden_errors(reference)
        ]
    except Exception as exc:  # the program is broken: every op fails
        failure = ["oracle failed"] + describe(exc)
    fingerprint = combined_fingerprint([o.fingerprint for o in outcomes]) if outcomes else None
    if failure:
        for record in records:
            record.errors = record.errors or failure
        return fingerprint, None
    drift = 0.0
    for record in records:
        if record.summary is None or record.errors:
            continue
        oracle, reference = references[record.summary.world]
        expected = workload.score(aligner.probabilities(record.summary), oracle)
        errors = compare(record.summary, reference, PARITY_TOL, metrics=expected)
        if errors:
            record.errors = errors
        drift = max(
            [drift]
            + [
                abs(record.summary.metrics[name] - value)
                for name, value in reference.metrics.items()
                if name in record.summary.metrics
            ]
        )
    return fingerprint, drift


def median_by_wall(records: list[OpRecord]) -> OpRecord:
    ordered = sorted(records, key=lambda record: record.wall)
    return ordered[len(ordered) // 2]


def end_to_end_metrics(measured: Measurement, import_s: float) -> dict[str, float]:
    """The end-to-end metrics; times are on the speed probe's scale."""
    records = measured.records
    timed = [record for record in records if record.wall is not None]
    if not timed:
        raise Refused("no op completed")
    walls = [record.wall * record.scale for record in timed]
    n_records = sum(record.summary.n_records for record in timed if record.summary is not None)
    failed = sum(1 for record in records if record.errors)
    setups = [t * f for t, f in zip(measured.setup_times, measured.setup_scales)]
    return {
        "setup_s": import_s * measured.setup_scales[0] + statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "records_per_s": n_records / sum(walls),
        "cpu_s_per_op": statistics.median(record.cpu * record.scale for record in timed),
        "peak_rss_mb": measured.peak_mb,
        "success_rate": 1 - failed / len(records),
    }


def per_layer_metrics(records, setup_trace) -> dict[str, float]:
    traced = [r for r in records if r.traced and r.wall is not None]
    untraced = [r for r in records if not r.traced and r.wall is not None]
    if not traced or not untraced:
        raise Refused("no traced/untraced op pair completed")
    op = median_by_wall(traced)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics([setup_trace, op.trace]))
    if metrics["world.pagegen_s"] > 0:
        metrics["world.pages_per_s"] = metrics["world.pages"] / metrics["world.pagegen_s"]
    metrics["trace.setup_s"] = setup_trace.root.wall
    metrics["trace.op_s"] = op.trace.root.wall
    metrics["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
        r.wall for r in untraced
    )
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise Refused(f"spans without a declared metric: {sorted(unknown)}")
    return metrics


def percentile_note(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if n < 20:
        return f"{n} ops support no tail percentile above the median (needs >= 20)"
    return f"{n} ops support up to p{int(100 * (1 - 10 / n))}"


def run(args, import_s: float) -> int:
    from workloads import WORKLOADS, Aligner

    units = load_units()
    if args.workload not in WORKLOADS:
        raise Refused(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    env = environment(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    aligner = Aligner()
    try:
        workdir.mkdir(parents=True)
        measured = measure(workload, aligner, args.seconds, tracer)
        fingerprint, drift = check_ops(workload, aligner, measured.records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if fingerprint is not None:
        check_fingerprint(env, args.workload, args.seed, fingerprint)

    records = measured.records
    if tracer is None:
        metrics = end_to_end_metrics(measured, import_s)
    else:
        metrics = per_layer_metrics(records, measured.setup_trace)
    failed = [record for record in records if record.errors]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "fingerprint": fingerprint,
        "metric_drift_vs_oracle": drift,
        "import_s": import_s,
        "setup_times_s": measured.setup_times,
        "setup_scales": measured.setup_scales,
        "ops": [
            {
                "traced": r.traced,
                "wall_s": r.wall,
                "cpu_s": r.cpu,
                "scale": r.scale,
                "errors": r.errors,
            }
            for r in records
        ],
        "metrics": metrics,
    }
    if tracer is not None:
        detail["spans"] = span_records(tracer)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print(
        f"nproc {env['nproc']} (affinity {env['affinity']})  python {env['python']}  "
        f"numpy {env['numpy']}  commit {env['commit']}  source {env['source_sha256'][:16]}"
    )
    print(f"input: {fingerprint}  metric drift vs oracle: {drift}")
    if tracer is None:
        walls = [record.wall for record in records if record.wall is not None]
        scales = [record.scale for record in records if record.wall is not None]
        print(
            f"unscaled op p50 {statistics.median(walls):.4g} s; "
            f"speed-probe scale median {statistics.median(scales):.4g} "
            f"(range {min(scales):.3g}-{max(scales):.3g})"
        )
    n_untraced = sum(1 for record in records if not record.traced)
    print(
        f"ops {len(records)}  failed {len(failed)}  fail_rate {len(failed) / len(records):.4g}  "
        f"({percentile_note(n_untraced)})"
    )
    for record in failed[:3]:
        print("  failure: " + "; ".join(record.errors[:4]), file=sys.stderr)
    for metric, value in metrics.items():
        print(f"  {metric:32s} {value:>16.6g} {units[metric]}")
    print(f"details: {OUT.relative_to(ROOT) / name}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (the program's modules: part of set-up time)
    from repro.experiments.registry import experiment_ids

    experiment_ids()  # loads the experiment modules a first ``run`` would
    import_s = time.perf_counter() - _START
    OUT.mkdir(exist_ok=True)
    try:
        return run(args, import_s)
    except Refused as exc:
        print(f"error: refusing to report: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
