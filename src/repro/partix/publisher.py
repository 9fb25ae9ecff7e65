"""Distributed XML Data Publisher (paper §4).

"The Distributed XML Data Publisher receives XML documents from users,
applies the fragmentation that was previously defined to the collections,
and sends the resulting fragments to be stored in the remote DBMS nodes."

Besides applying the fragment operators, the publisher decides the
*materialization* of hybrid fragments, which §5 showed matters enormously:

* **FragMode1** — "for each Item node selected, generate an independent
  document and store it". Many tiny documents; the query processor then
  parses hundreds of small documents per query, "which is slower than
  parsing a huge document a single time".
* **FragMode2** — "a single document (SD), exactly like the original
  document, but with only the item elements obtained by the selection
  operator": the original root chain is kept, with only the selected units
  under the region node.

Fragment documents carry a ``pxorigin`` annotation naming their source
document — the join key §3.3 requires, made to survive any serialization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.algebra.annotations import PXID, PXORIGIN, PXPARENT, annotate
from repro.datamodel.collection import Collection
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import XMLNode
from repro.errors import CatalogError, FragmentationError
from repro.partix.catalog import DistributionCatalog, FragmentAllocation
from repro.partix.correctness import verify_fragmentation
from repro.partix.fragments import (
    FragmentDefinition,
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.paths.evaluator import evaluate_path

# Cluster import is type-only to keep layering acyclic at runtime.
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.site import Cluster


class FragMode(enum.Enum):
    """Materialization of hybrid fragments (paper §5, StoreHyb)."""

    INDEPENDENT_DOCUMENTS = 1  # FragMode1
    SINGLE_DOCUMENT = 2  # FragMode2


@dataclass
class FragmentPublication:
    """What one fragment's publication produced."""

    fragment: str
    site: str
    stored_collection: str
    documents: int = 0
    bytes: int = 0


@dataclass
class PublicationReport:
    """Summary of publishing one collection."""

    collection: str
    fragments: list[FragmentPublication] = field(default_factory=list)

    @property
    def total_documents(self) -> int:
        return sum(f.documents for f in self.fragments)

    @property
    def total_bytes(self) -> int:
        return sum(f.bytes for f in self.fragments)


class DataPublisher:
    """Applies a fragmentation design and distributes the fragments."""

    def __init__(self, cluster: "Cluster", catalog: Optional[DistributionCatalog] = None):
        self.cluster = cluster
        self.catalog = catalog if catalog is not None else DistributionCatalog()

    # ------------------------------------------------------------------
    def publish(
        self,
        collection: Collection,
        fragmentation: FragmentationSchema,
        allocations: Optional[Sequence[FragmentAllocation]] = None,
        frag_mode: FragMode = FragMode.SINGLE_DOCUMENT,
        verify: bool = False,
        require_homogeneous: bool = True,
        replace: bool = False,
    ) -> PublicationReport:
        """Fragment ``collection`` and store the pieces across the cluster.

        Without explicit ``allocations``, fragments are assigned
        round-robin over the cluster's sites, each into a physical
        collection named after the fragment. With ``verify``, the §3.3
        correctness rules are checked first (raising on violation).
        ``require_homogeneous`` enforces §3.2's precondition that MD
        fragmentation applies to homogeneous collections only (pass False
        for collections that are intentionally untyped).

        ``replace=True`` republishes over an existing design: the new
        fragments are validated and fully stored to their sites *first*,
        and only then is the catalog registration swapped — queries
        planned concurrently keep seeing (and finding the data of) the
        old design until the new one is complete, then the catalog
        version bump invalidates cached plans. The new allocations must
        therefore not target a ``(site, stored_collection)`` the live
        design routes to (the default allocations of the same design
        do): that would rewrite fragments under concurrent readers, so it
        raises :class:`CatalogError` before any data moves.
        """
        if require_homogeneous and not collection.is_homogeneous():
            raise FragmentationError(
                f"collection {collection.name!r} is not homogeneous;"
                " fragmentation of MD repositories requires a homogeneous"
                " collection (§3.2)"
            )
        if verify:
            verify_fragmentation(fragmentation, collection).raise_if_invalid()
        if allocations is None:
            site_names = self.cluster.site_names()
            if not site_names:
                raise FragmentationError("cluster has no sites to publish to")
            allocations = [
                FragmentAllocation(
                    fragment=fragment.name,
                    site=site_names[index % len(site_names)],
                    stored_collection=fragment.name,
                )
                for index, fragment in enumerate(fragmentation.fragments)
            ]
        # Record the actual hybrid materialization in the catalog entries.
        allocations = [
            FragmentAllocation(
                fragment=a.fragment,
                site=a.site,
                stored_collection=a.stored_collection,
                hybrid_mode=frag_mode.value,
            )
            for a in allocations
        ]
        if not replace and self.catalog.is_fragmented(collection.name):
            raise CatalogError(
                f"collection {collection.name!r} already has a fragmentation"
            )
        if replace and self.catalog.is_fragmented(collection.name):
            live = {
                (a.site, a.stored_collection)
                for a in self.catalog.allocations(collection.name)
            }
            clashes = sorted(
                live & {(a.site, a.stored_collection) for a in allocations}
            )
            if clashes:
                raise CatalogError(
                    f"republishing {collection.name!r} would overwrite stored"
                    f" collections the live design routes to: {clashes};"
                    " allocate the new design under fresh stored names"
                )
        # Validate the allocation set *before* any data moves, then store
        # every fragment, then swap the registration in — a failed or
        # in-progress (re)publish never leaves the catalog pointing at
        # sites that do not hold the data yet.
        self.catalog.validate_allocations(fragmentation, allocations)
        report = PublicationReport(collection=collection.name)
        for allocation in allocations:
            fragment = fragmentation.fragment(allocation.fragment)
            publication = self._publish_fragment(
                collection, fragment, allocation, frag_mode
            )
            report.fragments.append(publication)
        self.catalog.register_fragmentation(
            fragmentation, allocations, replace=replace
        )
        return report

    def publish_centralized(
        self,
        collection: Collection,
        site_name: str,
        stored_collection: Optional[str] = None,
    ) -> FragmentPublication:
        """Store the whole collection at one site (the baseline setup)."""
        site = self.cluster.site(site_name)
        target = stored_collection or collection.name
        site.driver.create_collection(target)
        publication = FragmentPublication(
            fragment="(centralized)", site=site_name, stored_collection=target
        )
        for document in collection:
            site.driver.store_document(
                target, document, name=document.name, origin=document.origin
            )
            publication.documents += 1
        publication.bytes = site.driver.collection_bytes(target)
        return publication

    # ------------------------------------------------------------------
    def _publish_fragment(
        self,
        collection: Collection,
        fragment: FragmentDefinition,
        allocation: FragmentAllocation,
        frag_mode: FragMode,
    ) -> FragmentPublication:
        site = self.cluster.site(allocation.site)
        site.driver.create_collection(allocation.stored_collection)
        publication = FragmentPublication(
            fragment=fragment.name,
            site=allocation.site,
            stored_collection=allocation.stored_collection,
        )
        for document in collection:
            for produced in self._materialize(fragment, document, frag_mode):
                site.driver.store_document(
                    allocation.stored_collection,
                    produced,
                    name=produced.name,
                    origin=produced.origin,
                )
                publication.documents += 1
        documents, stored_bytes = site.driver.collection_statistics(
            allocation.stored_collection
        )
        publication.bytes = stored_bytes
        # Planner statistics: the cost model estimates per-lane work from
        # these, so EXPLAIN never has to probe a site.
        self.catalog.record_statistics(
            collection.name,
            fragment.name,
            allocation.site,
            documents=documents,
            data_bytes=stored_bytes,
        )
        return publication

    def _materialize(
        self,
        fragment: FragmentDefinition,
        document: XMLDocument,
        frag_mode: FragMode,
    ) -> list[XMLDocument]:
        if isinstance(fragment, HorizontalFragment):
            return fragment.operator().apply(document)
        if isinstance(fragment, VerticalFragment):
            produced = fragment.operator().apply(document)
            for part in produced:
                annotate(part.root, PXORIGIN, part.origin or part.name or "")
            return produced
        assert isinstance(fragment, HybridFragment)
        if frag_mode is FragMode.INDEPENDENT_DOCUMENTS:
            produced = fragment.operator().apply(document)
            for part in produced:
                annotate(part.root, PXORIGIN, part.origin or part.name or "")
            return produced
        single = self._materialize_single_document(fragment, document)
        return [single] if single is not None else []

    def _materialize_single_document(
        self, fragment: HybridFragment, document: XMLDocument
    ) -> Optional[XMLDocument]:
        """FragMode2: one document shaped like the original, units filtered."""
        regions = evaluate_path(fragment.path, document)
        if not regions:
            return None
        if len(regions) > 1:
            raise FragmentationError(
                f"hybrid fragment {fragment.name!r}: region path"
                f" {fragment.path} selected {len(regions)} nodes"
            )
        region = regions[0]
        # Rebuild the chain from the document root down to the region,
        # keeping only the spine (other children belong to the remainder
        # fragment) — then attach the selected units.
        chain = [region]
        chain.extend(region.ancestors())
        chain.reverse()  # root first
        clones: list[XMLNode] = []
        for original in chain:
            clone = XMLNode(original.kind, label=original.label, value=original.value)
            clone.node_id = original.node_id
            annotate(clone, PXID, original.node_id)
            if clones:
                clones[-1].append(clone)
            clones.append(clone)
        region_clone = clones[-1]
        pruned_ids = {
            node.node_id
            for expr in fragment.prune
            for node in evaluate_path(expr, document)
        }
        for unit in region.child_elements(fragment.unit_label):
            if fragment.predicate is not None and not fragment.predicate.evaluate(unit):
                continue
            if pruned_ids:
                unit_clone = unit.clone_pruned(lambda n: n.node_id in pruned_ids)
            else:
                unit_clone = unit.clone(deep=True)
            annotate(unit_clone, PXID, unit.node_id)
            annotate(unit_clone, PXPARENT, region.node_id)
            region_clone.append(unit_clone)
        root_clone = clones[0]
        annotate(root_clone, PXORIGIN, document.origin or document.name or "")
        return XMLDocument(
            root_clone,
            name=document.name,
            assign_ids=False,
            origin=document.origin,
        )
