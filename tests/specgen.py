"""Seeded random generation of small, well-formed specifications.

Builds abstract syntax directly, then pretty-prints, so generated sources
always parse. References are valid by construction; initiating and
terminating event pools are disjoint, so the specs check without errors.
State spaces stay small: a couple of boolean metrics, at most one integer
metric, one or two fluents, and occasionally one bounded channel.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache

from asslkit.checker import CheckedSpec, check_all
from asslkit.lexer import tokenize
from asslkit.missions import all_missions, ants_self_protecting
from asslkit.nodes import (
    ActionDecl,
    ActivationClause,
    ActivationKind,
    AeTier,
    AsipTier,
    AssignStmt,
    AsTier,
    CallStmt,
    ChannelDecl,
    CompareExpr,
    EventDecl,
    Expr,
    FailStmt,
    FluentDecl,
    Lit,
    MappingDecl,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    PolicyDecl,
    Ref,
    SendStmt,
    SpecificationTree,
    ValueType,
)
from asslkit.parser import parse_text
from asslkit.printer import pretty_print
from asslkit.runtime import Halt, InjectEvent, Scenario, SendMessage, SetMetric
from asslkit.tokens import KEYWORDS, TokenKind
from asslkit.verifier.lts import EnvStimulus


def random_spec_source(seed: int) -> str:
    rng = random.Random(seed)
    n_bool = rng.randint(1, 3)
    metrics = [
        MetricDecl(f"m{i}", ValueType.BOOLEAN, Lit(rng.random() < 0.5, ValueType.BOOLEAN))
        for i in range(n_bool)
    ]
    has_int = rng.random() < 0.3
    if has_int:
        metrics.append(
            MetricDecl("count", ValueType.INTEGER, Lit(rng.randint(0, 2), ValueType.INTEGER))
        )

    def metric_guard() -> Expr:
        name = rng.choice(metrics).name
        decl = next(m for m in metrics if m.name == name)
        if decl.value_type is ValueType.INTEGER:
            return CompareExpr(
                rng.choice([">=", "<", "="]), MetricRefExpr(name),
                Lit(rng.randint(0, 3), ValueType.INTEGER),
            )
        expr: Expr = MetricRefExpr(name)
        if rng.random() < 0.5:
            expr = NotExpr(expr)
        return expr

    n_fluents = rng.randint(1, 2)
    events: list[EventDecl] = []
    actions: list[ActionDecl] = []
    fluents: list[FluentDecl] = []
    mappings: list[MappingDecl] = []

    use_channel = rng.random() < 0.25
    messages: list[MessageDecl] = []
    channels: list[ChannelDecl] = []
    if use_channel:
        messages.append(MessageDecl("ping", "unit", "unit"))
        channels.append(ChannelDecl("link", rng.randint(1, 2)))

    failer_made = False
    for f in range(n_fluents):
        starter = f"go{f}"
        stopper = f"fin{f}"
        start_guard = metric_guard() if rng.random() < 0.4 else None
        if use_channel and f == 0 and rng.random() < 0.5:
            events.append(
                EventDecl(
                    starter,
                    guard=start_guard,
                    activation=(
                        ActivationClause(
                            ActivationKind.SENT, target=Ref(("AEIP", "MESSAGES"), "ping")
                        ),
                    ),
                )
            )
        else:
            events.append(EventDecl(starter, guard=start_guard, injectable=True))
        events.append(EventDecl(stopper))

        body: list = []
        if rng.random() < 0.5 and not failer_made:
            failer_made = True
            actions.append(
                ActionDecl(
                    "failer",
                    does=(FailStmt("induced fault"),),
                    guard=MetricRefExpr(metrics[0].name),
                )
            )
        if failer_made and rng.random() < 0.6:
            body.append(CallStmt(Ref(("ACTIONS",), "failer"), binding="tripped"))
        target = rng.choice(metrics)
        if target.value_type is ValueType.BOOLEAN:
            value: Expr = Lit(rng.random() < 0.5, ValueType.BOOLEAN)
        else:
            value = Lit(rng.randint(0, 3), ValueType.INTEGER)
        body.append(AssignStmt(Ref(("METRICS",), target.name), value))
        if use_channel and rng.random() < 0.5:
            body.append(
                SendStmt(Ref(("AEIP", "MESSAGES"), "ping"), Ref(("CHANNELS",), "link"))
            )
        actions.append(
            ActionDecl(
                f"act{f}",
                does=tuple(body),
                guard=metric_guard() if rng.random() < 0.4 else None,
                triggers=(Ref(("EVENTS",), stopper),),
                onerr_triggers=(Ref(("EVENTS",), stopper),),
            )
        )
        fluents.append(
            FluentDecl(
                f"busy{f}",
                initiated_by=(Ref(("EVENTS",), starter),),
                terminated_by=(Ref(("EVENTS",), stopper),),
            )
        )
        mappings.append(
            MappingDecl(
                conditions=(Ref((), f"busy{f}"),),
                do_actions=(Ref(("ACTIONS",), f"act{f}"),),
            )
        )

    # A CHANGED-activated observer event keeps metric writes interesting.
    if rng.random() < 0.6:
        events.append(
            EventDecl(
                "observed",
                guard=metric_guard() if rng.random() < 0.7 else None,
                activation=(
                    ActivationClause(
                        ActivationKind.CHANGED,
                        target=Ref(("METRICS",), metrics[0].name),
                    ),
                ),
            )
        )

    policy = PolicyDecl("SELF_HEALING", tuple(fluents), tuple(mappings))
    unit = AeTier(
        "unit",
        policies=(policy,),
        actions=tuple(actions),
        events=tuple(events),
        metrics=tuple(metrics),
        aeip=AsipTier(messages=tuple(messages), channels=tuple(channels))
        if use_channel
        else None,
    )
    tree = SpecificationTree(AsTier("sys"), None, (unit,))
    return pretty_print(tree)


def random_checked_spec(seed: int) -> CheckedSpec:
    spec = check_all(parse_text(random_spec_source(seed), f"<random-{seed}>"))
    assert spec.ok, [d.render() for d in spec.diagnostics]
    return spec


#: The kinds of edit ``edit_source`` makes.
EDIT_KINDS = ("trigger", "initial", "negate", "call")


def edit_source(source: str, kind: str, seed: int) -> str | None:
    """``source`` with one seeded edit of ``kind`` to one tier, or None when
    no tier has a declaration to edit that way.

    ``trigger`` adds a TRIGGERS target to an action, ``initial`` flips a
    metric's INITIAL (booleans negated, numbers plus one, texts extended),
    ``negate`` wraps a guard in NOT, and ``call`` inserts a call of some
    action into an action's DOES. The edited spec may not check clean: a
    call can close a cycle, a trigger can overlap a fluent's events.
    """
    rng = random.Random(seed)
    tree = parse_text(source)

    def editable(tier) -> bool:
        if kind == "trigger":
            return bool(tier.actions and tier.events)
        if kind == "initial":
            return bool(tier.metrics)
        if kind == "negate":
            return any(decl.guard is not None for decl in tier.actions + tier.events)
        return bool(tier.actions)

    candidates = [tier for tier in tree.tiers() if editable(tier)]
    if not candidates:
        return None
    tier = rng.choice(candidates)
    if kind == "trigger":
        action = rng.choice(tier.actions)
        event = rng.choice(tier.events)
        triggers = action.triggers + (Ref(("EVENTS",), event.name),)
        edited = replace(tier, actions=_swap(tier.actions, action, replace(action, triggers=triggers)))
    elif kind == "initial":
        metric = rng.choice(tier.metrics)
        value = metric.initial.value
        value = (not value if isinstance(value, bool)
                 else value + "!" if isinstance(value, str) else value + 1)
        initial = Lit(value, metric.initial.type)
        edited = replace(tier, metrics=_swap(tier.metrics, metric, replace(metric, initial=initial)))
    elif kind == "negate":
        decl = rng.choice([d for d in tier.actions + tier.events if d.guard is not None])
        negated = replace(decl, guard=NotExpr(decl.guard))
        if isinstance(decl, ActionDecl):
            edited = replace(tier, actions=_swap(tier.actions, decl, negated))
        else:
            edited = replace(tier, events=_swap(tier.events, decl, negated))
    else:
        caller, callee = rng.choice(tier.actions), rng.choice(tier.actions)
        at = rng.randint(0, len(caller.does))
        does = caller.does[:at] + (CallStmt(Ref(("ACTIONS",), callee.name)),) + caller.does[at:]
        edited = replace(tier, actions=_swap(tier.actions, caller, replace(caller, does=does)))
    if tier is tree.as_tier:
        tree = replace(tree, as_tier=edited)
    else:
        tree = replace(tree, ae_tiers=_swap(tree.ae_tiers, tier, edited))
    return pretty_print(tree)


def _swap(items: tuple, old, new) -> tuple:
    """``items`` with the element that is ``old`` replaced by ``new``."""
    return tuple(new if item is old else item for item in items)


def swarm_source(n: int) -> str:
    """N copies of the self-protecting mission's worker tier, in declaration order.

    Copy k is named ``worker<k>`` and receives its own ``privateMessage``; the
    copies share no channel, metric or message.
    """
    source = ants_self_protecting().source()
    start = source.index("AE worker {")
    depth = 0
    for end in range(start, len(source)):
        depth += {"{": 1, "}": -1}.get(source[end], 0)
        if depth == 0 and source[end] == "}":
            break
    head, tier = source[:start], source[start : end + 1]
    copies = [
        tier.replace("AE worker {", f"AE worker{k} {{").replace(
            "RECEIVER { worker }", f"RECEIVER {{ worker{k} }}"
        )
        for k in range(1, n + 1)
    ]
    return head + "\n\n".join(copies) + "\n"


def swarm_env(spec: CheckedSpec, n: int) -> tuple[EnvStimulus, ...]:
    """Per worker of ``swarm_source(n)``: send its message, invalidate its
    certificate; plus the clock."""
    from asslkit.verifier import parse_env_stimulus

    texts = ["tick"]
    for k in range(1, n + 1):
        texts += [
            f"send worker{k}.privateMessage worker{k}.secureLink",
            f"set worker{k}.certificateValid false",
        ]
    return tuple(parse_env_stimulus(spec, text) for text in texts)


def env_for(spec: CheckedSpec) -> tuple[EnvStimulus, ...]:
    """Injectables plus boolean toggles of the first metric, plus the clock."""
    from asslkit.verifier import default_env

    env = list(default_env(spec))
    for (tier, name), decl in _metrics(spec):
        if decl.value_type is ValueType.BOOLEAN:
            env.append(SetMetric((tier, name), True))
            env.append(SetMetric((tier, name), False))
            break
    return tuple(env)


def _metrics(spec: CheckedSpec):
    for (tier, namespace, name), decl in spec.symbols.decls.items():
        if namespace == "metrics":
            yield (tier, name), decl


def random_properties(spec: CheckedSpec, rng: random.Random, count: int = 6) -> list[str]:
    """Property lines over the spec's own fluents, events, and metrics."""
    fluents = sorted(
        f"{t}.{n}" for (t, ns, n) in spec.symbols.decls if ns == "fluents"
    )
    events = sorted(f"{t}.{n}" for (t, ns, n) in spec.symbols.decls if ns == "events")
    bool_metrics = sorted(
        f"{t}.{n}"
        for (t, ns, n), d in spec.symbols.decls.items()
        if ns == "metrics" and getattr(d, "value_type", None) is ValueType.BOOLEAN
    )

    def atom() -> str:
        pools = [("fluent", fluents), ("event", events), ("metric", bool_metrics)]
        pools = [(kind, pool) for kind, pool in pools if pool]
        kind, pool = pools[rng.randrange(len(pools))]
        base = f"({kind} {rng.choice(pool)})"
        return f"(! {base})" if rng.random() < 0.3 else base

    lines = []
    for _ in range(count):
        shape = rng.randrange(5)
        if shape == 0:
            lines.append(f"G {atom()}")
        elif shape == 1:
            lines.append(f"F {atom()}")
        elif shape == 2:
            lines.append(f"G (implies {atom()} (F {atom()}))")
        elif shape == 3:
            lines.append(f"G (implies {atom()} (X {atom()}))")
        else:
            lines.append(f"{atom()} U {atom()}")
    return lines


def random_scenario(
    spec: CheckedSpec, rng: random.Random, name: str = "fuzz"
) -> tuple[Scenario, int]:
    """A random stimulus script over the spec's own surface, and a seed to run it with."""
    injectables = sorted(
        (t, n)
        for (t, ns, n), decl in spec.symbols.decls.items()
        if ns == "events" and getattr(decl, "injectable", False)
    )
    metrics = sorted(_metrics(spec), key=lambda item: item[0])
    messages = sorted(spec.symbols.messages)
    channels = sorted(spec.symbols.channels)

    steps = []
    tick = 0
    for _ in range(rng.randint(1, 12)):
        tick += rng.randint(0, 2)
        roll = rng.random()
        if injectables and roll < 0.45:
            steps.append((tick, InjectEvent(rng.choice(injectables))))
        elif metrics and roll < 0.8:
            key, decl = metrics[rng.randrange(len(metrics))]
            if decl.value_type is ValueType.BOOLEAN:
                value: object = rng.random() < 0.5
            elif decl.value_type is ValueType.INTEGER:
                value = rng.randint(0, 3)
            elif decl.value_type is ValueType.REAL:
                value = float(rng.randint(0, 3))
            else:
                value = rng.choice(["alpha", "beta"])
            steps.append((tick, SetMetric(key, value)))
        elif messages and channels:
            steps.append(
                (tick, SendMessage(rng.choice(messages), rng.choice(channels)))
            )
        elif injectables:
            steps.append((tick, InjectEvent(rng.choice(injectables))))
    tick += rng.randint(1, 3)
    steps.append((tick, Halt()))
    seed = rng.randrange(1 << 16)
    return Scenario(name, tuple(steps)), seed


#: Texts a token mutant may insert: punctuation and names.
MUTANT_INSERTS = ("{", "}", "(", ")", ",", ";", "=", "<", ".", "x", "worker", "tick")


def token_mutants(source: str, seed: int, count: int) -> list[str]:
    """``count`` seeded one-token edits of ``source``.

    Each edit deletes a token, duplicates it, swaps it with its right
    neighbour, replaces it with a keyword, or inserts punctuation or a name
    before it. The text between tokens is kept as it is.
    """
    rng = random.Random(seed)
    pieces: list[str] = []  # gap, token, gap, token, ..., gap
    texts: list[str] = []
    end = 0
    for token in tokenize(source):
        pieces.append(source[end : token.start])
        texts.append(token.text)
        end = token.start + len(token.text)
    pieces.append(source[end:])
    keywords = sorted(KEYWORDS)
    mutants = []
    for _ in range(count):
        edited = list(texts)
        at = rng.randrange(len(edited))
        roll = rng.randrange(5)
        if roll == 0:
            edited[at] = ""
        elif roll == 1:
            edited[at] = f"{edited[at]} {edited[at]}"
        elif roll == 2 and at + 1 < len(edited):
            edited[at], edited[at + 1] = edited[at + 1], edited[at]
        elif roll == 3:
            edited[at] = rng.choice(keywords)
        else:
            edited[at] = f"{rng.choice(MUTANT_INSERTS)} {edited[at]}"
        mutants.append(
            "".join(gap + text for gap, text in zip(pieces, edited)) + pieces[-1]
        )
    return mutants


#: Token kinds a swap mutant exchanges: names, references and literals.
SWAPPABLE = frozenset(
    {TokenKind.IDENT, TokenKind.REF, TokenKind.INT, TokenKind.REAL, TokenKind.BOOL, TokenKind.TEXT}
)


def swap_mutants(source: str, seed: int, count: int) -> list[str]:
    """``count`` seeded edits of ``source``, each replacing the text of one
    name, reference or literal token with the text of such a token drawn
    from the same source (now and then its own, which leaves the source as it
    is). The rest of the source is kept as it is.
    """
    rng = random.Random(seed)
    tokens = [t for t in tokenize(source) if t.kind in SWAPPABLE]
    texts = [t.text for t in tokens]
    mutants = []
    for _ in range(count):
        token = tokens[rng.randrange(len(tokens))]
        end = token.start + len(token.text)
        mutants.append(source[: token.start] + rng.choice(texts) + source[end:])
    return mutants


@cache
def swap_corpora() -> dict[str, tuple[str, ...]]:
    """The swap-mutant corpora: 200 mutants of each mission, 200 of
    ``swarm_source(3)`` and 30 of each of random specs 0-59."""
    return {
        "missions": tuple(
            m for k, pkg in enumerate(all_missions()) for m in swap_mutants(pkg.source(), k, 200)
        ),
        "swarm3": tuple(swap_mutants(swarm_source(3), 100, 200)),
        "random0-59": tuple(
            m for seed in range(60) for m in swap_mutants(random_spec_source(seed), seed, 30)
        ),
    }
