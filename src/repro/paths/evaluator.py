"""Evaluation of path expressions over data trees.

Evaluating ``P`` in a document "selects all nodes with label ek (or ak)
whose steps from the root satisfy P" (§3.1). Evaluation proceeds
step-by-step from a virtual document node above the root element, so that
``/Store`` selects the root itself and ``//Description`` selects matching
nodes anywhere in the tree (including the root).

Results are returned in document order without duplicates.
"""

from __future__ import annotations

from typing import Iterable

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import NodeKind, XMLNode
from repro.paths.ast import Axis, PathExpr, Step
from repro.paths.parser import parse_path


def evaluate_path(path: PathExpr | str, context: XMLDocument | XMLNode) -> list[XMLNode]:
    """Select the nodes of ``context`` matching ``path``.

    ``context`` is a document or a bare element treated as a document root.
    """
    if isinstance(path, str):
        path = parse_path(path)
    root = context.root if isinstance(context, XMLDocument) else context
    current: list[XMLNode] = [root]
    virtual_first = True
    for step in path.steps:
        current = _apply_step(step, current, virtual_first)
        virtual_first = False
        if not current:
            return []
    return _document_order_unique(current, root)


def _apply_step(step: Step, context: list[XMLNode], virtual_first: bool) -> list[XMLNode]:
    selected: list[XMLNode] = []
    if virtual_first:
        # The context holds the root element; treat it as the child (or a
        # descendant) of the virtual document node.
        for node in context:
            if step.axis is Axis.CHILD:
                candidates: Iterable[XMLNode] = [node]
            else:
                candidates = node.descendants_or_self()
            selected.extend(
                c for c in candidates if _test_matches(step, c)
            )
    else:
        for node in context:
            if step.axis is Axis.CHILD:
                candidates = node.children
            else:
                candidates = node.descendants()
            selected.extend(
                c for c in candidates if _test_matches(step, c)
            )
    if step.position is not None:
        selected = [n for n in selected if n.sibling_index() == step.position]
    return selected


def _test_matches(step: Step, node: XMLNode) -> bool:
    if step.is_attribute:
        return node.kind is NodeKind.ATTRIBUTE and node.label == step.name
    if node.kind is not NodeKind.ELEMENT:
        return False
    return step.is_wildcard or node.label == step.name


def _document_order_unique(nodes: list[XMLNode], root: XMLNode) -> list[XMLNode]:
    if len(nodes) <= 1:
        return nodes
    seen: set[int] = set()
    unique = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    order = {id(node): i for i, node in enumerate(root.descendants_or_self())}
    unique.sort(key=lambda n: order.get(id(n), -1))
    return unique


def path_exists(path: PathExpr | str, context: XMLDocument | XMLNode) -> bool:
    """Existential test: does ``path`` select at least one node?"""
    return bool(evaluate_path(path, context))


def is_terminal(path: PathExpr | str, context: XMLDocument | XMLNode) -> bool:
    """Dynamic terminality test (§3.1): every selected node has simple content.

    A path is *terminal* when the nodes it selects have domain in ``D`` —
    attributes, or elements whose only content is text (or nothing).
    Returns False when the path selects nothing.
    """
    if isinstance(path, str):
        path = parse_path(path)
    nodes = evaluate_path(path, context)
    if not nodes:
        return False
    for node in nodes:
        if node.kind is NodeKind.ATTRIBUTE:
            continue
        if any(c.kind is NodeKind.ELEMENT for c in node.children):
            return False
    return True
