"""VOTE: the baseline fuser.

§4.1: "if a data item D = (s, p) has n provenances in total and a triple
T = (s, p, o) has m provenances, the probability of T is p(T) = m/n."
No source-quality estimation, no iteration — only Stage I and Stage III of
the Figure 8 pipeline, which is exactly how it is implemented here (through
the MapReduce engine, so VOTE exercises the same dataflow as the Bayesian
methods).

Backends: ``serial`` runs the scalar reducers in-process; ``vectorized``
computes all ``m/n`` ratios in one numpy pass over the columnar claim
index, falling back to ``serial`` when sampling would engage (the batched
kernel scores whole items and cannot subset per item).
"""

from __future__ import annotations

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult, parity_of, sampling_contract_of
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.runner import (
    Stage1Reducer,
    sampling_would_engage,
    stage1_mapper,
    stage1_sample_key,
)
from repro.kb.triples import Triple
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import SerialExecutor

__all__ = ["vote_item_posteriors", "VoteKernel", "Vote"]


def vote_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float] | None = None,
) -> dict[Triple, float]:
    """Scalar reference: ``p(T) = m/n`` for one data item.

    ``accuracies`` is accepted (and ignored) so VOTE matches the posterior
    signature of the Bayesian kernels.
    """
    total = sum(len(provs) for provs in claims.values())
    if total == 0:
        return {}
    return {triple: len(provs) / total for triple, provs in claims.items()}


class VoteKernel:
    """The VOTE posterior as a pluggable kernel (scalar + batched)."""

    def __call__(
        self,
        claims: dict[Triple, set[ProvKey]],
        accuracies: dict[ProvKey, float] | None = None,
    ) -> dict[Triple, float]:
        return vote_item_posteriors(claims, accuracies)

    def batch_round(
        self, cols: ColumnarClaims, accuracies=None, active=None, require_repeated=False
    ) -> kernels.RoundPosteriors:
        return kernels.vote_round(cols, active, require_repeated)


def _vote_stage3_mapper(pair):
    return [(pair[0].canonical(), pair)]


def _vote_stage3_reducer(_key, values):
    return [values[0]]


class Vote(Fuser):
    """Provenance counting."""

    @property
    def name(self) -> str:
        return "VOTE"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        matrix = fusion_input.claims(self.config.granularity)
        backend_used = self.config.backend
        if self.config.backend == "vectorized":
            cols = matrix.columnar()
            if not sampling_would_engage(cols, self.config, include_stage2=False):
                return self._fuse_vectorized(cols)
            backend_used = "serial (vectorized fallback)"
        return self._fuse_mapreduce(matrix, backend_used)

    def _fuse_vectorized(self, cols: ColumnarClaims) -> FusionResult:
        round_result = kernels.vote_round(cols)
        result = FusionResult(
            method=self.name,
            probabilities={
                triple: float(round_result.posteriors[r])
                for r, triple in enumerate(cols.triples)
            },
            rounds=0,
            converged=True,
            diagnostics={
                "backend": "vectorized",
                "backend_used": "vectorized",
                "parity": parity_of("vectorized"),
                "sampling": sampling_contract_of(self.config),
            },
        )
        result.validate()
        return result

    def _fuse_mapreduce(self, matrix, backend_used: str) -> FusionResult:
        executor = SerialExecutor()
        engine = MapReduceEngine(executor)

        claims = [
            (item, triple, prov)
            for item, triple_map in matrix.items.items()
            for triple, provs in triple_map.items()
            for prov in provs
        ]
        stage1 = MapReduceJob(
            name="vote.stage1",
            mapper=stage1_mapper,
            reducer=Stage1Reducer(VoteKernel(), {}, require_repeated=False),
            sample_limit=self.config.sample_limit,
            seed=self.config.seed,
            sample_key=stage1_sample_key,
        )
        try:
            scored = engine.run(claims, stage1)

            # Stage III: dedup by triple (probabilities agree per item already).
            stage3 = MapReduceJob(
                name="vote.stage3",
                mapper=_vote_stage3_mapper,
                reducer=_vote_stage3_reducer,
            )
            deduped = engine.run(scored, stage3)
        finally:
            executor.close()
        result = FusionResult(
            method=self.name,
            probabilities={triple: float(p) for triple, p in deduped},
            rounds=0,
            converged=True,
            diagnostics={
                "backend": self.config.backend,
                "backend_used": backend_used,
                "parity": parity_of(backend_used),
                "sampling": sampling_contract_of(self.config),
            },
        )
        result.validate()
        return result
