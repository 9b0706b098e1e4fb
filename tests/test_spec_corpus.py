"""What the random-spec corpus of ``specgen.random_spec_source`` reaches.

The random specs stand in for the missions in the differential tests, so a
node kind or a field that no random spec builds is a part of the language
those tests never exercise. This module pins the gaps against the parsed
trees of seeds 0-199 and of the four missions: the corpus cannot lose
coverage without a test failing, and a change that teaches ``specgen`` a new
production shrinks these sets on purpose.
"""

from __future__ import annotations

import dataclasses

from asslkit import nodes, parse_text
from asslkit.missions import all_missions
from specgen import random_spec_source

SEEDS = range(200)

#: The concrete node classes that no random spec builds.
UNBUILT_CLASSES = {
    "BinaryExpr",
    "BindingRefExpr",
    "FluentRefExpr",
    "FunctionDecl",
    "OpaqueBlock",
    "SloDecl",
}

#: The fields that some mission sets and no random spec sets.
MISSION_ONLY_FIELDS = {
    "ActionDecl.ensures",
    "ActionDecl.onerr_does",
    "ActivationClause.ticks",
    "AeTier.friends",
    "AsTier.actions",
    "AsTier.events",
    "AsTier.metrics",
    "AsTier.policies",
    "BinaryExpr.left",
    "BinaryExpr.op",
    "BinaryExpr.right",
    "FluentRefExpr.name",
    "SpecificationTree.asip_tier",
}


def reached(tree: nodes.Node) -> tuple[set[str], set[str]]:
    """The class names of the nodes in ``tree``, and the ``Class.field`` names
    of the fields set in them: not None, empty or False."""
    classes: set[str] = set()
    fields: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        classes.add(name)
        for field in dataclasses.fields(node):
            if field.name in ("lexed", "pos"):
                continue
            value = getattr(node, field.name)
            if value is None or value is False or value in ((), ""):
                continue
            fields.add(f"{name}.{field.name}")
            if isinstance(value, nodes.Node):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(item for item in value if isinstance(item, nodes.Node))
    return classes, fields


def concrete_node_classes(base: type = nodes.Node) -> set[str]:
    """The names of the subclasses of ``base`` that have no subclasses."""
    leaves: set[str] = set()
    for sub in base.__subclasses__():
        leaves |= concrete_node_classes(sub) if sub.__subclasses__() else {sub.__name__}
    return leaves


def union_reached(sources) -> tuple[set[str], set[str]]:
    classes: set[str] = set()
    fields: set[str] = set()
    for source in sources:
        tree_classes, tree_fields = reached(parse_text(source))
        classes |= tree_classes
        fields |= tree_fields
    return classes, fields


def test_the_random_spec_corpus_reaches_all_but_the_pinned_gaps():
    random_classes, random_fields = union_reached(random_spec_source(seed) for seed in SEEDS)
    _mission_classes, mission_fields = union_reached(pkg.source() for pkg in all_missions())
    assert concrete_node_classes() - random_classes == UNBUILT_CLASSES
    assert mission_fields - random_fields == MISSION_ONLY_FIELDS
