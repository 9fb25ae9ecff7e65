"""Execution statistics of the storage engine.

The reproduction's claims hinge on *why* fragmentation helps: less data
parsed and scanned per site. These counters make that visible — benchmark
reports print bytes parsed and documents scanned next to elapsed times,
and the ablation benches assert on them directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStats:
    """Cumulative counters of one engine instance.

    Engines never mutate a shared instance mid-query: each query charges a
    private accumulator and commits it once, under the engine's lock, via
    :meth:`absorb` — the invariant that keeps concurrent sub-queries from
    losing updates.
    """

    queries_executed: int = 0
    documents_parsed: int = 0
    bytes_parsed: int = 0
    documents_scanned: int = 0
    documents_pruned: int = 0
    index_lookups: int = 0
    #: Documents materialized from the binary node table instead of a
    #: text parse (a subset of ``documents_parsed``, which counts every
    #: materialization from storage regardless of path).
    binary_decodes: int = 0
    #: Parsed-document LRU cache hits (documents served without a re-parse).
    cache_hits: int = 0
    parse_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    #: Simulated per-document access overhead (never slept; see
    #: XMLEngine.per_document_overhead). Kept separate so reports can
    #: distinguish measured from simulated time.
    simulated_overhead_seconds: float = 0.0

    def diff(self, earlier: "EngineStats") -> "EngineStats":
        """Counters accumulated since ``earlier`` (an earlier copy)."""
        return EngineStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in vars(self)
            }
        )

    def reset(self) -> None:
        for name in list(vars(self)):
            setattr(self, name, type(getattr(self, name))())

    def merged_with(self, other: "EngineStats") -> "EngineStats":
        """Sum of two counter sets (for cluster-wide aggregation)."""
        return EngineStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in vars(self)
            }
        )

    def absorb(self, delta: "EngineStats") -> None:
        """Add ``delta``'s counters in place (commit of a per-query
        accumulator; callers serialize commits with a lock)."""
        for name in vars(delta):
            setattr(self, name, getattr(self, name) + getattr(delta, name))


@dataclass
class QueryResult:
    """Outcome of one query execution on one engine.

    ``items`` is the result sequence (nodes and atomics). ``result_text``
    is the serialized result (what would travel over the network);
    ``result_bytes`` its UTF-8 size — the quantity the paper divides by
    the Gigabit-Ethernet speed to estimate transmission time.
    """

    items: list
    result_text: str
    result_bytes: int
    elapsed_seconds: float
    parse_seconds: float
    documents_parsed: int
    bytes_parsed: int
    documents_scanned: int
    documents_pruned: int
    cache_hits: int = 0
    simulated_overhead_seconds: float = 0.0
    binary_decodes: int = 0

    @property
    def measured_seconds(self) -> float:
        """Elapsed time excluding the simulated per-document overhead."""
        return self.elapsed_seconds - self.simulated_overhead_seconds
