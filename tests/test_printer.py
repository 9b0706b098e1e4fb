"""Canonical printing: round-trip equality, figure rendering."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from specgen import random_spec_source, swarm_source

from asslkit.missions import all_missions
from asslkit.nodes import (
    ActionDecl,
    ActivationClause,
    ActivationKind,
    AeTier,
    AsipTier,
    AssignStmt,
    AsTier,
    BinaryExpr,
    BindingRefExpr,
    CallStmt,
    ChannelDecl,
    CompareExpr,
    EventDecl,
    FailStmt,
    FluentDecl,
    FluentRefExpr,
    FunctionDecl,
    Lit,
    MappingDecl,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    OpaqueBlock,
    PolicyDecl,
    Ref,
    SendStmt,
    SloDecl,
    SpecificationTree,
    ValueType,
)
from asslkit.parser import parse_text
from asslkit.printer import format_action, format_event, format_policy, pretty_print

names = st.sampled_from(
    ["alpha", "beta", "gamma", "probe", "relay", "busy", "go", "fin", "m1", "m2", "x_9"]
)

texts = st.sampled_from(["", "hello", "two words", "x 1 y"])


def ref(space: tuple[str, ...]) -> st.SearchStrategy[Ref]:
    return st.builds(lambda n: Ref(space, n), names)


# Real literals are plain decimal (no exponent form), so the generator
# draws from that value domain: hundredths render as digits.digits.
reals = st.integers(-100_00, 100_00).map(lambda i: i / 100)

literals = st.one_of(
    st.booleans().map(lambda b: Lit(b, ValueType.BOOLEAN)),
    st.integers(-1000, 1000).map(lambda i: Lit(i, ValueType.INTEGER)),
    reals.map(lambda f: Lit(f, ValueType.REAL)),
    texts.map(lambda s: Lit(s, ValueType.TEXT)),
)

atoms = st.one_of(
    literals,
    names.map(MetricRefExpr),
    names.map(FluentRefExpr),
    names.map(BindingRefExpr),
)

exprs = st.recursive(
    atoms,
    lambda children: st.one_of(
        children.map(NotExpr),
        st.builds(BinaryExpr, st.sampled_from(["AND", "OR"]), children, children),
        st.builds(
            CompareExpr,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            children,
            children,
        ),
    ),
    max_leaves=5,
)

opaque_blocks = st.lists(
    st.one_of(names, st.integers(0, 99).map(str)), max_size=4
).map(lambda tokens: OpaqueBlock(tuple(tokens)))

activations = st.one_of(
    st.builds(
        lambda t: ActivationClause(ActivationKind.SENT, target=t), ref(("AEIP", "MESSAGES"))
    ),
    st.builds(
        lambda t: ActivationClause(ActivationKind.RECEIVED, target=t),
        ref(("AEIP", "MESSAGES")),
    ),
    st.builds(
        lambda t: ActivationClause(ActivationKind.CHANGED, target=t), ref(("METRICS",))
    ),
    st.integers(1, 10).map(lambda n: ActivationClause(ActivationKind.ELAPSED, ticks=n)),
)

events = st.builds(
    EventDecl,
    names,
    st.none() | exprs,
    st.lists(activations, max_size=2).map(tuple),
    st.booleans(),
)

statements = st.one_of(
    st.builds(CallStmt, ref(("ACTIONS",)), st.none() | names),
    st.builds(AssignStmt, ref(("METRICS",)), exprs),
    st.builds(SendStmt, ref(("AEIP", "MESSAGES")), ref(("CHANNELS",))),
    texts.map(FailStmt),
)

actions = st.builds(
    ActionDecl,
    names,
    st.lists(statements, min_size=1, max_size=3).map(tuple),
    st.none() | exprs,
    st.none() | exprs,
    st.lists(statements, max_size=2).map(tuple),
    st.lists(ref(("EVENTS",)), max_size=2).map(tuple),
    st.lists(ref(("EVENTS",)), max_size=2).map(tuple),
)

fluents = st.builds(
    FluentDecl,
    names,
    st.lists(ref(("EVENTS",)), min_size=1, max_size=2).map(tuple),
    st.lists(ref(("EVENTS",)), min_size=1, max_size=2).map(tuple),
)

conditions = st.one_of(ref(()), ref(("FLUENTS",)))

mappings = st.builds(
    MappingDecl,
    st.lists(conditions, min_size=1, max_size=2).map(tuple),
    st.lists(ref(("ACTIONS",)), min_size=1, max_size=2).map(tuple),
)

policies = st.builds(
    PolicyDecl,
    st.one_of(names, st.sampled_from(["SELF_PROTECTING", "SELF_HEALING"])),
    st.lists(fluents, min_size=1, max_size=2).map(tuple),
    st.lists(mappings, max_size=2).map(tuple),
)

metrics = st.one_of(
    st.builds(
        lambda n, v: MetricDecl(n, ValueType.BOOLEAN, Lit(v, ValueType.BOOLEAN)),
        names,
        st.booleans(),
    ),
    st.builds(
        lambda n, v: MetricDecl(n, ValueType.INTEGER, Lit(v, ValueType.INTEGER)),
        names,
        st.integers(-50, 50),
    ),
    st.builds(
        lambda n, v: MetricDecl(n, ValueType.TEXT, Lit(v, ValueType.TEXT)),
        names,
        texts,
    ),
)

slos = st.builds(SloDecl, names, opaque_blocks)

asips = st.builds(
    AsipTier,
    st.lists(st.builds(MessageDecl, names, names, names), max_size=2).map(tuple),
    st.lists(st.builds(ChannelDecl, names, st.integers(1, 5)), max_size=2).map(tuple),
    st.lists(st.builds(FunctionDecl, names, opaque_blocks), max_size=1).map(tuple),
    st.none() | opaque_blocks,
)

as_tiers = st.builds(
    AsTier,
    names,
    st.lists(slos, max_size=1).map(tuple),
    st.lists(policies, max_size=1).map(tuple),
    st.lists(actions, max_size=2).map(tuple),
    st.lists(events, max_size=2).map(tuple),
    st.lists(metrics, max_size=2).map(tuple),
    st.none() | opaque_blocks,
)

ae_tiers = st.builds(
    AeTier,
    names,
    st.lists(slos, max_size=1).map(tuple),
    st.lists(policies, max_size=1).map(tuple),
    st.lists(actions, max_size=2).map(tuple),
    st.lists(events, max_size=2).map(tuple),
    st.lists(metrics, max_size=2).map(tuple),
    st.lists(names, max_size=2).map(tuple),
    st.none() | asips,
    st.none() | opaque_blocks,
    st.none() | opaque_blocks,
    st.none() | opaque_blocks,
)

trees = st.builds(
    SpecificationTree,
    as_tiers,
    st.none() | asips,
    st.lists(ae_tiers, max_size=2).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(trees)
def test_round_trip_random_trees(tree):
    assert parse_text(pretty_print(tree)) == tree


def test_round_trip_figures(figures_spec):
    text = pretty_print(figures_spec.tree)
    assert parse_text(text) == figures_spec.tree


def test_empty_as_tier_prints_compactly():
    tree = parse_text("AS empty { }")
    assert pretty_print(tree) == "AS empty { }\n"


def test_idempotent_printing(figures_spec):
    once = pretty_print(figures_spec.tree)
    assert pretty_print(parse_text(once)) == once


def test_filled_action_round_trips(figures_spec):
    action = next(
        a for a in figures_spec.tree.ae_tiers[0].actions
        if a.name == "checkPrivateMessage"
    )
    text = format_action(action)
    wrapped = parse_text(f"AS s {{ ACTIONS {{ {text} }} }}")
    assert wrapped.as_tier.actions[0] == action


def test_format_policy_and_event_reparse(figures_spec):
    worker = figures_spec.tree.ae_tiers[0]
    policy_text = format_policy(worker.policies[0])
    reparsed = parse_text(f"AS s {{ POLICIES {{ {policy_text} }} }}")
    assert reparsed.as_tier.policies[0] == worker.policies[0]
    event_text = format_event(worker.events[0])
    reparsed = parse_text(f"AS s {{ EVENTS {{ {event_text} }} }}")
    assert reparsed.as_tier.events[0] == worker.events[0]


def printed_sources() -> dict[str, str]:
    """Printed source of each mission, three swarms and 200 random specs."""
    texts = {pkg.name: pretty_print(parse_text(pkg.source())) for pkg in all_missions()}
    for n in (1, 3, 10):
        texts[f"swarm{n}"] = pretty_print(parse_text(swarm_source(n)))
    texts["random0-199"] = "".join(
        pretty_print(parse_text(random_spec_source(s))) for s in range(200)
    )
    return texts


def test_printed_sources_are_pinned():
    """Printed sources pinned by sha256; one entry covers the 200 random specs."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("print_sha256.json").read_text()
    )
    texts = printed_sources()
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key
