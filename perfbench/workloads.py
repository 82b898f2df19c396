"""The benchmark's workloads.

Each workload drives the program through its public entry points in
this one process, with no worker pool:

- ``op`` is the untraced call a user makes (timed by the runner);
- ``traced_op`` composes the same public layer calls in the entry
  point's order, with a span around each, and must reproduce ``op``'s
  output exactly;
- ``oracle`` recomputes the op's result on the scalar ``serial`` path,
  outside every timed interval, and every op is checked against it.

The sizes are chosen so an op takes a few seconds on a 2-core box and a
run holds several ops (see ``perfbench/README.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.artifacts import load_scenario_artifact, save_scenario_artifact, setup_worldgen
from repro.datasets import small_config
from repro.datasets.scenario import (
    Scenario,
    build_extraction_pipeline,
    build_scenario,
    label_gold,
)
from repro.endtoend import headline_metrics, make_fuser, run_end_to_end
from repro.eval.pr import auc_pr, pr_curve
from repro.experiments.common import _CACHE_ATTR, standard_fusion_results
from repro.experiments.registry import run_experiment
from repro.extract.kernels import SynthesisCaches, classify_batch, synthesize_batch
from repro.fusion.base import FusionConfig, FusionResult
from repro.fusion.observations import FusionInput
from repro.fusion.presets import accu, popaccu, popaccu_plus, popaccu_plus_unsup, vote
from repro.mapreduce.executors import SerialExecutor
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import generate_corpus
from repro.world.worldgen import generate_world

#: The repo's documented parity contract between fusion backends.
PARITY_TOL = 1e-9
#: Tolerance of the frozen golden ``small`` numbers (seed 0).
GOLDEN_TOL = 1e-12

#: ``tests/integration/test_golden_small.py``, seed 0, POPACCU+.
GOLDEN_SMALL = {
    "n_pages": 2500,
    "n_records": 36842,
    "n_triples": 15716,
    "unpredicted": 0,
    "rounds": 5,
    "n_items": 4440,
    "n_provenances": 8382,
    "n_claims": 31948,
    "gold_initialized": 5225,
    "n_active_final": 2187,
    "n_labelled": 7425,
    "coverage": 1.0,
    "deviation": 0.01601675771816096,
    "weighted_deviation": 0.005308203144721858,
    "auc_pr": 0.7567209768249222,
    "gold_accuracy": 0.8917171717171717,
}
GOLDEN_SMALL_STATS = {
    "gold_coverage": 0.4724484601679817,
    "gold_accuracy": 0.1828956228956229,
}

#: Counts that must match the oracle exactly (the claim structure).
STRUCTURE = ("n_items", "n_provenances", "n_claims", "unpredicted")


@dataclass
class Outcome:
    """What one op produced: the seed of the scenario it ran on, its input
    size and its fusion results.

    The oracle's outcome also carries the gold labels the metrics are
    scored against and the scenario's input fingerprint.
    """

    world: int
    n_pages: int
    n_records: int
    results: dict[str, FusionResult]
    metrics: dict[str, float]
    gold: dict | None = None
    fingerprint: dict | None = None


@dataclass
class Summary:
    """An :class:`Outcome` reduced to what the checks compare.

    Probabilities are vectors over one fixed triple order per method,
    so a run keeps no op's claim objects alive.
    """

    world: int
    n_pages: int
    n_records: int
    probabilities: dict[str, np.ndarray]
    metrics: dict[str, float]
    shape: dict[str, int | None]


class Aligner:
    """Maps each method's probabilities onto the triple order of the first
    op on the same scenario."""

    def __init__(self) -> None:
        self.keys: dict[tuple[int, str], list] = {}

    def summarize(self, outcome: Outcome) -> Summary:
        probabilities = {}
        shape: dict[str, int | None] = {}
        for method, result in outcome.results.items():
            scored = result.probabilities
            keys = self.keys.setdefault((outcome.world, method), list(scored))
            if len(scored) != len(keys) or any(triple not in scored for triple in keys):
                raise ValueError(f"{method}: scored a different set of {len(scored)} triples")
            probabilities[method] = np.fromiter(
                (scored[triple] for triple in keys), float, len(keys)
            )
            diagnostics = result.diagnostics
            prefix = "" if len(outcome.results) == 1 else f"{method}."
            shape[prefix + "n_triples"] = len(result.probabilities)
            shape[prefix + "unpredicted"] = len(result.unpredicted)
            shape[prefix + "rounds"] = result.rounds
            for key in ("n_items", "n_provenances", "n_claims", "gold_initialized", "n_active_final"):
                shape[prefix + key] = diagnostics.get(key)
        return Summary(
            outcome.world,
            outcome.n_pages,
            outcome.n_records,
            probabilities,
            dict(outcome.metrics),
            shape,
        )

    def probabilities(self, summary: Summary) -> dict[str, dict]:
        """A summary's probabilities as ``{method: {triple: p}}`` again."""
        return {
            method: dict(zip(self.keys[summary.world, method], vector.tolist()))
            for method, vector in summary.probabilities.items()
        }


def compare(
    out: Summary, ref: Summary, tol: float, metrics: dict[str, float] | None = None
) -> list[str]:
    """Differences between an op's summary and a reference (empty = agree).

    Page and record counts and the claim structure must match exactly;
    probabilities and metrics within ``tol`` (0 = bitwise: then every
    count must match too).  ``metrics`` replaces the reference's own
    metrics as the expected values.
    """
    errors = []
    if (out.n_pages, out.n_records) != (ref.n_pages, ref.n_records):
        errors.append(
            f"pages/records {out.n_pages}/{out.n_records}, "
            f"expected {ref.n_pages}/{ref.n_records}"
        )
    structural = [
        key for key in ref.shape if tol == 0 or key.rsplit(".", 1)[-1] in STRUCTURE
    ]
    for key in structural:
        if out.shape.get(key) != ref.shape[key]:
            errors.append(f"{key} = {out.shape.get(key)}, expected {ref.shape[key]}")
    if out.probabilities.keys() != ref.probabilities.keys():
        errors.append(f"methods {sorted(out.probabilities)} != {sorted(ref.probabilities)}")
    for method, expected in ref.probabilities.items():
        got = out.probabilities.get(method)
        if got is None or got.shape != expected.shape:
            continue
        worst = float(np.max(np.abs(got - expected), initial=0.0))
        if worst > tol:
            errors.append(f"{method}: probabilities differ by {worst:.3g} > {tol:g}")
    for name, expected in (ref.metrics if metrics is None else metrics).items():
        got = out.metrics.get(name)
        if got is None or abs(got - expected) > tol:
            errors.append(f"metric {name} = {got}, expected {expected}")
    return errors


def headline_score(probabilities: dict[str, dict], reference: Outcome) -> dict[str, float]:
    """The headline metrics of an op's probabilities against the oracle's
    gold labels.

    Metrics are checked this way, not against the oracle's own metrics:
    the PR curve and the calibration buckets group *exactly* equal
    probabilities, so two results within the 1e-9 parity contract can
    split or merge a tie and move AUC-PR by far more than 1e-9.
    """
    ((method, result),) = reference.results.items()
    rescored = FusionResult(method, probabilities[method], unpredicted=result.unpredicted)
    return headline_metrics(rescored, reference.gold)


def fingerprint(pages, records) -> dict:
    """The workload input fingerprint: page and record counts plus a hash
    over every page URL and every record's provenance and triple."""
    digest = hashlib.sha256()
    n_pages = 0
    for page in pages:
        digest.update(page.url.encode())
        digest.update(b"\n")
        n_pages += 1
    for record in records:
        digest.update(
            f"{record.extractor}|{record.url}|{record.triple.canonical()}\n".encode()
        )
    return {"pages": n_pages, "records": len(records), "content": digest.hexdigest()}


def combined_fingerprint(fingerprints: list[dict]) -> dict:
    """One fingerprint over the scenarios of a run, in set-up order."""
    return {
        "pages": sum(fp["pages"] for fp in fingerprints),
        "records": sum(fp["records"] for fp in fingerprints),
        "content": hashlib.sha256(
            "".join(fp["content"] for fp in fingerprints).encode()
        ).hexdigest(),
    }


def extract_serial(pipeline, pages, tracer):
    """``ExtractionPipeline.run(backend="serial")``, one span per stage.

    The scalar shard of :mod:`repro.extract.pipeline`: batched coverage
    masks, per-page scalar ``extract_page`` over the covering
    extractors, then one ``classify_batch`` pass.
    """
    extractors = pipeline.extractors
    with tracer.span("extract.coverage"):
        masks = [extractor.coverage_mask(pages) for extractor in extractors]
    with tracer.span("extract.synthesis"):
        per_page = []
        for index, page in enumerate(pages):
            page_records = []
            for extractor, mask in zip(extractors, masks):
                if mask[index]:
                    page_records.extend(extractor.extract_page(page))
            per_page.append(page_records)
    return classify(pages, per_page, tracer)


def extract_batched(pipeline, pages, tracer):
    """``ExtractionPipeline.run(backend="batched")``, one span per stage."""
    extractors = pipeline.extractors
    with tracer.span("extract.coverage"):
        masks = [extractor.coverage_mask(pages) for extractor in extractors]
    with tracer.span("extract.synthesis"):
        per_page = synthesize_batch(extractors, pages, masks=masks, caches=SynthesisCaches())
    tracer.count("extract.synthesis_fallbacks", len(pipeline.synthesis_fallbacks()))
    return classify(pages, per_page, tracer)


def classify(pages, per_page, tracer):
    with tracer.span("extract.classify"):
        classify_batch(list(zip(pages, per_page)))
        records = [record for page_records in per_page for record in page_records]
    tracer.count("extract.records", len(records))
    return records


def count_labels(tracer, n_unique: int, gold: dict) -> None:
    tracer.count("datasets.unique_triples", n_unique)
    tracer.count("datasets.labelled", len(gold))


def count_fusion(tracer, result: FusionResult) -> None:
    tracer.count("fusion.calls", 1)
    tracer.count("fusion.rounds", result.rounds)
    tracer.count("fusion.n_active_final", result.diagnostics.get("n_active_final", 0))


def count_matrix(tracer, n_items: int, n_provenances: int, n_claims: int) -> None:
    tracer.count("matrix.items", n_items)
    tracer.count("matrix.provenances", n_provenances)
    tracer.count("matrix.claims", n_claims)


class SmallPipeline:
    """``run_end_to_end`` on ``small`` with batched extraction and
    vectorized fusion over a warm scenario-artifact cache."""

    name = "small-pipeline"
    method = "popaccu+"
    worlds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = small_config(seed)
        self.workdir = workdir
        self.fusion_config = FusionConfig(seed=seed, backend="vectorized")
        self.cache_dir: Path | None = None
        self._stats: dict | None = None

    def setup(self, rep: int) -> None:
        """Fill a fresh, empty artifact cache (the cold path)."""
        cache_dir = self.workdir / f"cache-{rep}"
        config = self.config
        *_bundle, status = setup_worldgen(config.seed, config.world, config.web, cache_dir)
        if status != "miss":
            raise RuntimeError(f"cold cache fill reported {status!r}")
        self.cache_dir = cache_dir

    def traced_setup(self, tracer) -> None:
        """:func:`setup_worldgen` on a cold cache, one span per call."""
        cache_dir = self.workdir / "cache-traced"
        config, seed = self.config, self.seed
        with tracer.span("artifacts.load"):
            loaded = load_scenario_artifact(cache_dir, seed, config.world, config.web)
        if loaded is not None:
            raise RuntimeError("cold cache unexpectedly hit")
        tracer.count("artifacts.misses", 1)
        with tracer.span("world.worldgen"):
            world = generate_world(config.world, seed)
        with tracer.span("world.freebase"):
            freebase = build_freebase_snapshot(world)
        with tracer.span("world.pagegen"):
            corpus = generate_corpus(world, config.web, seed)
        tracer.count("world.pages", len(corpus.pages))
        with tracer.span("artifacts.save"):
            save_scenario_artifact(cache_dir, seed, world, freebase, corpus)
        self.cache_dir = cache_dir

    def prepare(self, _slot: int):
        return None

    def op(self, _prepared) -> Outcome:
        result = run_end_to_end(
            self.config,
            self.method,
            backend="batched",
            fusion_config=self.fusion_config,
            cache_dir=self.cache_dir,
        )
        if result.diagnostics["scenario_cache"] != "hit":
            raise RuntimeError(f"warm cache reported {result.diagnostics['scenario_cache']!r}")
        return Outcome(
            self.seed,
            result.diagnostics["n_pages"],
            result.diagnostics["n_records"],
            {"POPACCU+": result.fusion},
            result.metrics,
        )

    def traced_op(self, _prepared, tracer) -> Outcome:
        config = self.config
        with tracer.span("artifacts.load"):
            world, freebase, corpus, status = setup_worldgen(
                config.seed, config.world, config.web, self.cache_dir
            )
            # Decoding the lazily-loaded page bodies is the rest of the
            # artifact read; the pipeline does it on its first pass.
            pages = list(corpus.pages)
        tracer.count("artifacts.hits" if status == "hit" else "artifacts.misses", 1)
        with tracer.span("extract.fleet"):
            pipeline = build_extraction_pipeline(config, world)
        records = extract_batched(pipeline, pages, tracer)
        with tracer.span("datasets.labeling"):
            gold = label_gold(freebase, records)
        scenario = Scenario(config, world, freebase, corpus, pipeline, records, gold)
        fuser = make_fuser(self.method, self.fusion_config, gold)
        fusion_input = scenario.fusion_input()
        with tracer.span("matrix.build"):
            matrix = fusion_input.claims(fuser.config.granularity)
        with tracer.span("matrix.columnar"):
            matrix.columnar()
        with SerialExecutor() as executor, tracer.span("fusion.fuse"):
            result = fuser.fuse(fusion_input, executor=executor)
        with tracer.span("eval.metrics"):
            metrics = headline_metrics(result, gold)
        count_labels(tracer, len(result.probabilities) + len(result.unpredicted), gold)
        diagnostics = result.diagnostics
        count_matrix(
            tracer,
            diagnostics["n_items"],
            diagnostics["n_provenances"],
            diagnostics["n_claims"],
        )
        count_fusion(tracer, result)
        return Outcome(self.seed, len(pages), len(records), {"POPACCU+": result}, metrics)

    def oracle(self) -> list[Outcome]:
        run = run_end_to_end(self.config, self.method, backend="serial", cache_dir=self.cache_dir)
        scenario = run.scenario
        if self.seed == 0:
            self._stats = scenario.extraction_stats()
        outcome = Outcome(
            self.seed,
            run.diagnostics["n_pages"],
            run.diagnostics["n_records"],
            {"POPACCU+": run.fusion},
            run.metrics,
            gold=scenario.gold,
            fingerprint=fingerprint(scenario.corpus.pages, scenario.records),
        )
        return [outcome]

    score = staticmethod(headline_score)

    def golden_errors(self, summary: Summary) -> list[str]:
        """The oracle's numbers against the frozen seed-0 golden run.

        Golden numbers are exact only for bitwise backends, so they are
        checked on the serial oracle, at 1e-12.
        """
        if self.seed != 0:
            return []
        stats = self._stats
        observed = {
            "n_pages": summary.n_pages,
            "n_records": summary.n_records,
            **summary.shape,
            **summary.metrics,
            **{f"stats.{key}": stats[key] for key in GOLDEN_SMALL_STATS},
        }
        expected = {
            **GOLDEN_SMALL,
            **{f"stats.{key}": value for key, value in GOLDEN_SMALL_STATS.items()},
        }
        return [
            f"golden {key} = {observed.get(key)}, expected {value}"
            for key, value in expected.items()
            if observed.get(key) is None or abs(observed[key] - value) > GOLDEN_TOL
        ]


def standard_fusers(gold, backend: str | None = None):
    """The five fusers of Figure 15, in the experiment's order."""
    return (
        vote(backend=backend),
        accu(backend=backend),
        popaccu(backend=backend),
        popaccu_plus_unsup(backend=backend),
        popaccu_plus(gold, backend=backend),
    )


class PaperFig15:
    """``run_experiment("fig15")`` on a fresh copy of a built scenario.

    The scenarios of one run come from three seeds derived from the run's
    seed, one per set-up, and the ops take them in turn: what one op
    costs varies ±10% from world to world (each has its own schema), and
    a run that covers three worlds varies less.
    """

    name = "paper-fig15"
    #: The ``small`` world with its corpus cut to 400 of 2,500 pages: on
    #: the full corpus one op takes ~16 s, too long to repeat in a run.
    n_pages = 400
    #: Scenarios per run; untraced runs set up at least this many times.
    worlds = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = tuple(seed * self.worlds + k for k in range(self.worlds))
        self.workdir = workdir
        self.scenarios: list[Scenario] = []

    def config(self, rep: int):
        base = small_config(self.seeds[rep % self.worlds])
        return replace(base, web=replace(base.web, n_pages=self.n_pages))

    def setup(self, rep: int) -> None:
        """What ``repro-kf run`` does first: build the scenario."""
        self.scenarios.append(build_scenario(self.config(rep), use_cache=False))

    def traced_setup(self, tracer) -> None:
        config = self.config(0)
        seed = config.seed
        with tracer.span("world.worldgen"):
            world = generate_world(config.world, seed)
        with tracer.span("world.freebase"):
            freebase = build_freebase_snapshot(world)
        with tracer.span("world.pagegen"):
            corpus = generate_corpus(world, config.web, seed)
        tracer.count("world.pages", len(corpus.pages))
        with tracer.span("extract.fleet"):
            pipeline = build_extraction_pipeline(config, world)
        records = extract_serial(pipeline, corpus.pages, tracer)
        with tracer.span("datasets.labeling"):
            gold = label_gold(freebase, records)
        count_labels(tracer, len({record.triple for record in records}), gold)
        self.scenarios.append(Scenario(config, world, freebase, corpus, pipeline, records, gold))

    def prepare(self, slot: int) -> Scenario:
        """The scenarios in turn (``slot`` counts untraced ops), copied
        without their cached fusion input or fusion results."""
        scenario = self.scenarios[slot % len(self.scenarios)]
        return replace(scenario, _fusion_input=None)

    @staticmethod
    def _outcome(scenario: Scenario, experiment) -> Outcome:
        return Outcome(
            scenario.config.seed,
            len(scenario.corpus.pages),
            len(scenario.records),
            standard_fusion_results(scenario),
            {f"{name}.auc_pr": data["auc_pr"] for name, data in experiment.data.items()},
        )

    def op(self, scenario: Scenario) -> Outcome:
        experiment = run_experiment("fig15", scenario)
        return self._outcome(scenario, experiment)

    def traced_op(self, scenario: Scenario, tracer) -> Outcome:
        fusion_input = scenario.fusion_input()
        results = {}
        matrices = {}
        for fuser in standard_fusers(scenario.gold):
            granularity = fuser.config.granularity
            with tracer.span("matrix.build"):
                matrices[granularity] = fusion_input.claims(granularity)
            with tracer.span("fusion.fuse"):
                results[fuser.name] = fuser.fuse(fusion_input)
            count_fusion(tracer, results[fuser.name])
        # The experiment reads its five fusion runs from this per-scenario
        # cache, so with it filled the call below is the evaluation alone.
        setattr(scenario, _CACHE_ATTR, results)
        with tracer.span("eval.metrics"):
            experiment = run_experiment("fig15", scenario)
        for matrix in matrices.values():
            count_matrix(tracer, len(matrix.items), len(matrix.prov_triples), matrix.n_claims())
        return self._outcome(scenario, experiment)

    def oracle(self) -> list[Outcome]:
        """The five fusers called explicitly on the serial backend, per scenario."""
        outcomes = []
        for scenario in self.scenarios:
            fusion_input = FusionInput(scenario.records)
            results = {
                fuser.name: fuser.fuse(fusion_input)
                for fuser in standard_fusers(scenario.gold, backend="serial")
            }
            metrics = {
                f"{name}.auc_pr": auc_pr(pr_curve(result.probabilities, scenario.gold))
                for name, result in results.items()
            }
            outcomes.append(
                Outcome(
                    scenario.config.seed,
                    len(scenario.corpus.pages),
                    len(scenario.records),
                    results,
                    metrics,
                    gold=scenario.gold,
                    fingerprint=fingerprint(scenario.corpus.pages, scenario.records),
                )
            )
        return outcomes

    @staticmethod
    def score(probabilities: dict[str, dict], reference: Outcome) -> dict[str, float]:
        """Each method's AUC-PR from its probabilities and the oracle's gold."""
        return {
            f"{name}.auc_pr": auc_pr(pr_curve(probabilities[name], reference.gold))
            for name in reference.results
        }

    def golden_errors(self, _summary: Summary) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (SmallPipeline, PaperFig15)}
