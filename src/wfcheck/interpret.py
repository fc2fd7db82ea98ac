"""Executes scenarios under three rule sets for measurement outcomes.

The engine runs a scenario timeline three ways:

* ``orthodox``: every agent interaction and every outside measurement
  collapses the single global state by projection.
* ``rqm5``: an agent interaction entangles unitarily and produces an
  outcome valid only for that agent (a ledger entry); the global state
  every other observer faces stays the unitarily evolved vector.
  Outside measurements and record readouts are ordinary collapsing
  measurements of that vector.
* ``cpl``: ``rqm5`` plus cross-perspective links: reading an agent's
  record in its pointer basis returns the agent's ledger value
  deterministically.  The Born weight the pin overrides is recorded,
  and a pin onto a zero-probability outcome is reported as an anomaly
  rather than raised.

Each public call validates its scenario once and then compiles it.
Compilation holds everything the timeline fixes: each event group's
events, interactions and the unitaries that act before any outcome is
drawn (concurrent events are checked to commute there, once), the
interaction that writes each record, and each interaction's conditioning
pool, resolved from the ``partition`` events before it (the default pool
is the agent alone).  A run is then a tree of branches, each carrying
only what one history fixes: the global state (projected only by
collapsing events), the record facts and bound results so far, the pins
applied, and a weight equal to the joint probability of that history.
Every group expands through one routine, a single event being a group
of one.  Agent outcomes under ``rqm5``/``cpl`` are weighted by the Born
rule on the branch state conditioned on the pool's facts from earlier
groups.  Conditioning projects record pointer values and is well defined
as long as those records have not been disturbed since; otherwise
enumeration raises ``qcore.ZeroProbabilityError``.  ``run`` builds the
ledger and the anomaly notes for its sampled history only.

``run`` samples one history, ``exact_joint``/``predicted_distribution``
enumerate every branch exactly (capped at ``BRANCH_LIMIT``), and
``perspective`` reconstructs the state a named observer faces at a
point in the timeline.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from math import prod
from typing import Union

import numpy as np

from . import qcore
from . import scenario as sc
from .qcore import Label

BRANCH_LIMIT = 1_000_000
CONCURRENCY_ATOL = 1e-10

RULE_KINDS = ("orthodox", "rqm5", "cpl")
FACT_HOLDERS = ("agent", "both")


class ConcurrencyError(ValueError):
    """Concurrent events whose operators do not commute."""


class TooManyBranchesError(RuntimeError):
    """Exact enumeration would exceed BRANCH_LIMIT branches."""


@dataclass(frozen=True)
class RuleSet:
    """Which measurement semantics to apply, and who holds interaction facts."""

    kind: str
    fact_holder: str = "agent"

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule set {self.kind!r}; expected one of {RULE_KINDS}")
        if self.fact_holder not in FACT_HOLDERS:
            raise ValueError(f"unknown fact holder {self.fact_holder!r}; expected one of {FACT_HOLDERS}")

    @classmethod
    def orthodox(cls) -> "RuleSet":
        return cls("orthodox")

    @classmethod
    def rqm5(cls, fact_holder: str = "agent") -> "RuleSet":
        return cls("rqm5", fact_holder)

    @classmethod
    def rqm5_cpl(cls, fact_holder: str = "agent") -> "RuleSet":
        return cls("cpl", fact_holder)

    @property
    def collapses_on_interact(self) -> bool:
        return self.kind == "orthodox"

    @property
    def pins_reads(self) -> bool:
        return self.kind == "cpl"


@dataclass(frozen=True)
class LedgerEntry:
    event_index: int
    agent: str
    observable: str  # qualified record key the outcome is stored in
    outcome: Label


@dataclass(frozen=True)
class RelativeFactLedger:
    entries: tuple[LedgerEntry, ...] = ()

    def value_for(self, record: str) -> Label:
        for e in self.entries:
            if e.observable == record:
                return e.outcome
        raise KeyError(f"no ledger entry for record {record!r}")


@dataclass(frozen=True)
class PinRecord:
    """One cross-perspective-link application at a ReadRecord event."""

    event_index: int
    observer: str
    record: str
    value: Label
    born_weight: float  # probability the pin overrides; the contradiction magnitude is 1 - this
    anomalous: bool


@dataclass(frozen=True)
class PerspectiveState:
    observer: str
    state: Union[qcore.StateVector, qcore.DensityMatrix]
    knowledge: tuple[tuple[str, Label], ...]


@dataclass(frozen=True)
class RunResult:
    scenario: str
    rules: RuleSet
    seed: int
    results: dict[str, Label]
    ledger: RelativeFactLedger
    perspectives: dict[str, PerspectiveState]
    pins: tuple[PinRecord, ...] = ()
    anomalies: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class _CPrepare:
    index: int
    unitary: qcore.Unitary


@dataclass(frozen=True)
class _CInteract:
    index: int
    agent: str
    record: str
    mirror_holder: str
    unitary: qcore.Unitary
    readout: qcore.BasisSpec  # pointer basis of the record, writer labels
    pool: frozenset[str]  # agents whose earlier facts condition this outcome


@dataclass(frozen=True)
class _CMeasure:
    index: int
    observer: str
    spec: qcore.BasisSpec
    result: str


@dataclass(frozen=True)
class _CRead:
    index: int
    observer: str
    record: str
    spec: qcore.BasisSpec
    result: str
    pinnable: bool  # default pointer-basis readout; explicit bases are never pinned


_CEvent = Union[_CPrepare, _CInteract, _CMeasure, _CRead]


@dataclass(frozen=True)
class _Group:
    """One event group as the branch engine expands it."""

    events: tuple[_CEvent, ...]
    unitaries: tuple[qcore.Unitary, ...]  # all act before any outcome is drawn
    interacts: tuple[_CInteract, ...]


@dataclass(frozen=True)
class _Compiled:
    scenario: sc.Scenario
    layout: qcore.SpaceLayout
    initial: qcore.StateVector
    events: tuple[_CEvent, ...]  # partitions excluded; they only set pools
    groups: tuple[_Group, ...]
    writers: dict[str, _CInteract]  # record key -> the interaction that writes it
    intact_records: frozenset[str]  # written records no later event measures or reads


def _state_amplitudes(expr: sc.StateExpr) -> np.ndarray:
    if isinstance(expr, sc.GhzState):
        return qcore.ghz_amplitudes(3)
    if isinstance(expr, sc.SchmidtState):
        return qcore.correlated_pair_amplitudes((expr.c0, expr.c1))
    return np.asarray(expr.amplitudes, dtype=complex)


def _injection_unitary(layout: qcore.SpaceLayout, psi: np.ndarray) -> qcore.Unitary:
    # any unitary sending |0...0> to psi works; targets are guaranteed fresh
    first = np.asarray([psi], dtype=complex)
    rows = np.vstack([first, qcore._orthonormal_completion(first, layout.total_dimension)])
    return qcore.Unitary(layout, rows.T.copy())


# validation guarantees every basis fits its targets: basis2/basis3 a single
# qubit, lifted a pair of qubits, a declared basis its target dimension
def _basis_spec(s: sc.Scenario, expr: sc.BasisExpr, targets: tuple[tuple[str, int], ...]) -> qcore.BasisSpec:
    if isinstance(expr, sc.PresetBasis):
        if expr.name == "basis1":
            return qcore.computational_basis(targets)
        return qcore.qubit_ladder_basis(targets[0], 1 if expr.name == "basis3" else 2)
    if isinstance(expr, sc.NamedBasis):
        b = next(b for b in s.bases if b.name == expr.name)
        return qcore.BasisSpec(targets, np.asarray(b.vectors, dtype=complex), b.labels)
    # lifted(outer, inner) on a (system, record) pair
    system, record = targets
    inner = _basis_spec(s, expr.inner, (system,))
    outer = _basis_spec(s, expr.outer, (system,))
    return qcore.lifted_basis(outer, inner, record)


def _pointer_readout(key: str, dim: int, writer_labels: tuple[Label, ...]) -> qcore.BasisSpec:
    labels = tuple(writer_labels) + sc.pointer_cells(len(writer_labels), dim)
    return qcore.BasisSpec(((key, dim),), np.eye(dim, dtype=complex), labels)


def _require_valid(s: sc.Scenario) -> None:
    diags = sc.validate(s)
    if diags:
        msgs = "; ".join(f"event {d.event_index}: {d.reason}" for d in diags)
        raise ValueError(f"scenario {s.name!r} does not validate: {msgs}")


def _compile(s: sc.Scenario) -> _Compiled:
    """Lay out a validated scenario: everything the timeline fixes."""
    layout = sc.layout_of(s)
    dims = dict(layout.subsystems)
    record_init = {sc.record_key(a.name, r.name): r.init for a in s.agents for r in a.records}

    indices = []
    for sid, _ in layout.subsystems:
        indices.append(record_init.get(sid, 0))
    amps = np.zeros(layout.total_dimension, dtype=complex)
    amps[np.ravel_multi_index(tuple(indices), layout.dims)] = 1.0
    initial = qcore.StateVector(layout, amps)

    pools: dict[str, frozenset[str]] = {}
    writers: dict[str, _CInteract] = {}
    events: list[_CEvent] = []
    grouped: list[tuple[_CEvent, ...]] = []
    for i, ev in enumerate(s.timeline):
        if isinstance(ev, sc.DeclarePartition):
            # takes effect for later events; validation keeps it out of groups
            for members in ev.groups:
                pools.update(dict.fromkeys(members, frozenset(members)))
            continue
        if isinstance(ev, sc.Prepare):
            sub = layout.sublayout(ev.targets)
            cev: _CEvent = _CPrepare(i, _injection_unitary(sub, _state_amplitudes(ev.state)))
        elif isinstance(ev, sc.Interact):
            targets = tuple((t, dims[t]) for t in ev.targets)
            bspec = _basis_spec(s, ev.basis, targets)
            key = sc.record_key(ev.agent, ev.record)
            u = qcore.build_premeasurement(bspec, (key, dims[key]), record_init[key])
            readout = _pointer_readout(key, dims[key], bspec.labels)
            pool = pools.get(ev.agent, frozenset((ev.agent,)))
            cev = writers[key] = _CInteract(i, ev.agent, key, "+".join(ev.targets), u, readout, pool)
        elif isinstance(ev, sc.Measure):
            targets = tuple((t, dims[t]) for t in ev.targets)
            cev = _CMeasure(i, ev.observer, _basis_spec(s, ev.basis, targets), ev.result)
        else:
            key = sc.record_key(ev.agent, ev.record)
            pinnable = ev.basis is None
            spec = writers[key].readout if pinnable else _basis_spec(s, ev.basis, ((key, dims[key]),))
            cev = _CRead(i, ev.observer, key, spec, ev.result, pinnable)
        events.append(cev)
        if getattr(ev, "concurrent", False):
            grouped[-1] += (cev,)
        else:
            grouped.append((cev,))
    groups: list[_Group] = []
    for evs in grouped:
        if len(evs) > 1:
            _check_commuting(layout, evs)
        unitaries = tuple(ev.unitary for ev in evs if isinstance(ev, (_CPrepare, _CInteract)))
        interacts = tuple(ev for ev in evs if isinstance(ev, _CInteract))
        groups.append(_Group(evs, unitaries, interacts))

    # a fact can condition its holder's perspective only while the record
    # subsystem stays untouched by stable events after its write
    intact: set[str] = set()
    for ev in events:
        if isinstance(ev, (_CMeasure, _CRead)):
            intact -= set(ev.spec.target_ids)
        elif isinstance(ev, _CInteract):
            intact.add(ev.record)
    return _Compiled(s, layout, initial, tuple(events), tuple(groups), writers, frozenset(intact))


# ---------------------------------------------------------------------------
# branch engine


@dataclass(frozen=True)
class _Branch:
    state: qcore.StateVector
    weight: float
    facts: tuple[tuple[str, Label], ...] = ()      # (record key, outcome) in event order
    results: tuple[tuple[str, Label], ...] = ()    # (result name, outcome) in event order
    pins: tuple[PinRecord, ...] = ()

    def fact(self, record: str) -> Label:
        for k, v in self.facts:
            if k == record:
                return v
        raise KeyError(record)


def _condition_on_facts(
    state: qcore.StateVector,
    branch: _Branch,
    members: frozenset[str],
    comp: _Compiled,
) -> qcore.StateVector:
    for key, value in branch.facts:
        writer = comp.writers[key]
        if writer.agent not in members:
            continue
        try:
            state = qcore.project(state, writer.readout, value)
        except qcore.ZeroProbabilityError as e:
            raise qcore.ZeroProbabilityError(
                f"conditioning on fact {key!r}={value!r} has zero probability; "
                "the record was disturbed after the fact was produced"
            ) from e
    return state


def _distribution(state: qcore.StateVector, spec: qcore.BasisSpec) -> list[tuple[Label, float]]:
    dist = qcore.born_distribution(state, spec)
    return [(label, p) for label, p in dist.items() if p > qcore.PROB_EPS]


def _fact_entries(ev: _CInteract, label: Label, rules: RuleSet) -> tuple[LedgerEntry, ...]:
    entries = (LedgerEntry(ev.index, ev.agent, ev.record, label),)
    if rules.fact_holder == "both":
        entries += (LedgerEntry(ev.index, ev.mirror_holder, ev.record, label),)
    return entries


def _stable_children(ev: Union[_CMeasure, _CRead], branch: _Branch) -> list[_Branch]:
    out = []
    for label, p in _distribution(branch.state, ev.spec):
        out.append(replace(
            branch,
            state=qcore.project(branch.state, ev.spec, label),
            weight=branch.weight * p,
            results=branch.results + ((ev.result, label),),
        ))
    return out


def _pinned_child(ev: _CRead, branch: _Branch) -> _Branch:
    # a pin onto a zero-probability outcome leaves the state unprojected
    value = branch.fact(ev.record)
    p = float(qcore.born_distribution(branch.state, ev.spec).get(value, 0.0))
    anomalous = p <= qcore.PROB_EPS
    return replace(
        branch,
        state=branch.state if anomalous else qcore.project(branch.state, ev.spec, value),
        results=branch.results + ((ev.result, value),),
        pins=branch.pins + (PinRecord(ev.index, ev.observer, ev.record, value, p, anomalous),),
    )


def _support(ev: _CEvent) -> tuple[str, ...]:
    if isinstance(ev, _CInteract):
        return ev.unitary.layout.ids
    if isinstance(ev, (_CMeasure, _CRead)):
        return ev.spec.target_ids
    return ()


def _operators(ev: _CEvent) -> list[tuple[np.ndarray, tuple[str, ...]]]:
    if isinstance(ev, _CInteract):
        return [(ev.unitary.matrix, ev.unitary.layout.ids)]
    spec = ev.spec
    return [(np.outer(v, v.conj()), spec.target_ids) for v in spec.vectors]


def _embed(mat: np.ndarray, ids: tuple[str, ...], union: tuple[str, ...], dims: dict[str, int]) -> np.ndarray:
    rest = tuple(i for i in union if i not in ids)
    full = np.kron(mat, np.eye(prod(dims[i] for i in rest) if rest else 1, dtype=complex))
    order = ids + rest
    perm = [order.index(u) for u in union]
    shape = [dims[i] for i in order]
    tensor = full.reshape(shape + shape)
    tensor = np.transpose(tensor, perm + [len(shape) + p for p in perm])
    total = prod(shape)
    return tensor.reshape(total, total)


def _check_commuting(layout: qcore.SpaceLayout, evs: tuple[_CEvent, ...]) -> None:
    dims = dict(layout.subsystems)
    for a, b in itertools.combinations(evs, 2):
        sa, sb = set(_support(a)), set(_support(b))
        if not (sa & sb):
            continue
        union = tuple(i for i in layout.ids if i in (sa | sb))
        for ma, ida in _operators(a):
            fa = _embed(ma, ida, union, dims)
            for mb, idb in _operators(b):
                fb = _embed(mb, idb, union, dims)
                if np.max(np.abs(fa @ fb - fb @ fa)) > CONCURRENCY_ATOL:
                    raise ConcurrencyError(
                        f"concurrent events {a.index} and {b.index} do not commute on {sorted(sa & sb)}"
                    )


def _expand_group(
    comp: _Compiled,
    group: _Group,
    branch: _Branch,
    rules: RuleSet,
) -> list[_Branch]:
    # dynamics first: all unitaries act before any outcome is drawn
    state = branch.state
    for u in group.unitaries:
        state = qcore.apply_local(state, u)
    children = [replace(branch, state=state)] if group.unitaries else [branch]
    if not rules.collapses_on_interact:
        # simultaneous facts: each conditional sees pre-group facts only
        for ev in group.interacts:
            conditioned = _condition_on_facts(state, branch, ev.pool, comp)
            dist = _distribution(conditioned, ev.readout)
            next_children = []
            for child in children:
                for label, p in dist:
                    next_children.append(replace(
                        child,
                        weight=child.weight * p,
                        facts=child.facts + ((ev.record, label),),
                    ))
            children = next_children
    for ev in group.events:
        if isinstance(ev, _CInteract):
            if rules.collapses_on_interact:
                next_children = []
                for child in children:
                    for label, p in _distribution(child.state, ev.readout):
                        next_children.append(replace(
                            child,
                            state=qcore.project(child.state, ev.readout, label),
                            weight=child.weight * p,
                            facts=child.facts + ((ev.record, label),),
                        ))
                children = next_children
        elif isinstance(ev, _CRead) and ev.pinnable and rules.pins_reads:
            children = [_pinned_child(ev, child) for child in children]
        elif isinstance(ev, (_CMeasure, _CRead)):
            children = [c for child in children for c in _stable_children(ev, child)]
    return children


def _execute(comp: _Compiled, rules: RuleSet, chooser=None) -> list[_Branch]:
    """Expand the branch tree; with a chooser, follow a single sampled path."""
    branches = [_Branch(state=comp.initial, weight=1.0)]
    for group in comp.groups:
        new: list[_Branch] = []
        for b in branches:
            children = _expand_group(comp, group, b, rules)
            if chooser is not None:
                children = [chooser(b, children)]
            new.extend(children)
            if len(new) > BRANCH_LIMIT:
                raise TooManyBranchesError(
                    f"scenario {comp.scenario.name!r} exceeds {BRANCH_LIMIT} branches"
                )
        branches = new
    return branches


def _enumerate_leaves(s: sc.Scenario, rules: RuleSet) -> list[_Branch]:
    _require_valid(s)
    return _execute(_compile(s), rules)


# ---------------------------------------------------------------------------
# public operations


def run(s: sc.Scenario, rules: RuleSet, seed: int = 0) -> RunResult:
    """Sample a single history; identical (scenario, rules, seed) gives identical output."""
    _require_valid(s)
    comp = _compile(s)
    rng = random.Random(seed)

    def chooser(parent: _Branch, children: list[_Branch]) -> _Branch:
        if len(children) == 1:
            return children[0]
        total = sum(c.weight for c in children)
        r = rng.random() * total
        acc = 0.0
        for c in children:
            acc += c.weight
            if r <= acc:
                return c
        return children[-1]

    leaf = _execute(comp, rules, chooser)[0]
    perspectives = {
        name: _branch_perspective(comp, leaf, name)
        for name in _observer_names(s)
    }
    # the ledger and anomaly notes describe the sampled history only
    entries = tuple(
        e for key, label in leaf.facts for e in _fact_entries(comp.writers[key], label, rules)
    )
    read_results = {ev.index: ev.result for ev in comp.events if isinstance(ev, _CRead)}
    anomalies = tuple(
        f"event {p.event_index}: cross-perspective link forces {read_results[p.event_index]}={p.value!r} "
        f"on record {p.record!r}, an outcome of probability {p.born_weight:.3g}"
        for p in leaf.pins if p.anomalous
    )
    return RunResult(
        scenario=s.name,
        rules=rules,
        seed=seed,
        results=dict(leaf.results),
        ledger=RelativeFactLedger(entries),
        perspectives=perspectives,
        pins=leaf.pins,
        anomalies=anomalies,
    )


def _observer_names(s: sc.Scenario) -> list[str]:
    return [a.name for a in s.agents] + [o.name for o in s.observers]


def _agent_view(comp: _Compiled, branch: _Branch, name: str) -> tuple[qcore.StateVector, list[tuple[str, Label]]]:
    """The branch state conditioned on the intact facts ``name`` holds, and those facts."""
    state = branch.state
    held: list[tuple[str, Label]] = []
    for key, value in branch.facts:
        writer = comp.writers[key]
        if writer.agent == name and key in comp.intact_records:
            # a stable collapse on an entangled partner can strip a
            # relative fact of support; it stays known, but cannot
            # steer the state
            try:
                state = qcore.project(state, writer.readout, value)
            except qcore.ZeroProbabilityError:
                pass
            held.append((key, value))
    return state, held


def _branch_perspective(comp: _Compiled, branch: _Branch, name: str) -> PerspectiveState:
    state, knowledge = _agent_view(comp, branch, name)
    own_results = {
        ev.result for ev in comp.events
        if isinstance(ev, (_CMeasure, _CRead)) and ev.observer == name
    }
    for rname, value in branch.results:
        if rname in own_results:
            knowledge.append((rname, value))
    return PerspectiveState(name, state, tuple(knowledge))


def outcome_keys(s: sc.Scenario) -> tuple[str, ...]:
    """Chronological outcome variables: record keys for interactions, result names otherwise."""
    keys: list[str] = []
    for ev in s.timeline:
        if isinstance(ev, sc.Interact):
            keys.append(sc.record_key(ev.agent, ev.record))
        elif isinstance(ev, (sc.Measure, sc.ReadRecord)):
            keys.append(ev.result)
    return tuple(keys)


def exact_joint(s: sc.Scenario, rules: RuleSet) -> dict[tuple[Label, ...], float]:
    """Exact joint distribution over all outcome variables, keyed per outcome_keys."""
    keys = outcome_keys(s)
    out: dict[tuple[Label, ...], float] = {}
    for leaf in _enumerate_leaves(s, rules):
        values = dict(leaf.facts)
        values.update(dict(leaf.results))
        point = tuple(values[k] for k in keys)
        out[point] = out.get(point, 0.0) + leaf.weight
    return out


def predicted_distribution(
    s: sc.Scenario,
    rules: RuleSet,
    observer: str,
    result: str,
    conditioning: dict[str, Label] | None = None,
) -> dict[Label, float]:
    """Exact outcome distribution of a named result, optionally given ledger facts."""
    binder = None
    for ev in s.timeline:
        if isinstance(ev, (sc.Measure, sc.ReadRecord)) and ev.result == result:
            binder = ev
    if binder is None:
        raise ValueError(f"result {result!r} is not bound by any event")
    if binder.observer != observer:
        raise ValueError(f"result {result!r} is bound by {binder.observer!r}, not {observer!r}")
    conditioning = dict(conditioning or {})
    written = set()
    for ev in s.timeline:
        if isinstance(ev, sc.Interact):
            written.add(sc.record_key(ev.agent, ev.record))
    for key in conditioning:
        if key not in written:
            raise ValueError(f"conditioning on an unwritten record: {key!r}")

    total = 0.0
    dist: dict[Label, float] = {}
    for leaf in _enumerate_leaves(s, rules):
        facts = dict(leaf.facts)
        if any(facts.get(k) != v for k, v in conditioning.items()):
            continue
        total += leaf.weight
        value = dict(leaf.results)[result]
        dist[value] = dist.get(value, 0.0) + leaf.weight
    if total <= qcore.PROB_EPS:
        raise ValueError(f"conditioning {conditioning!r} has zero probability")
    return {k: v / total for k, v in dist.items()}


def perspective(
    s: sc.Scenario,
    rules: RuleSet,
    observer: str,
    after: int | None = None,
    given: dict[str, Label] | None = None,
) -> PerspectiveState:
    """The state the observer faces once events 0..after have happened.

    after=-1 is the prepared-nothing initial state; after=None means the whole
    timeline.  Unknown outcomes are mixed over; ``given`` filters branches by
    result names or record keys, fixing what the observer is taken to know.
    Returns a StateVector when the mixture is pure, else a DensityMatrix.
    """
    _require_valid(s)
    if observer not in _observer_names(s):
        raise ValueError(f"unknown observer {observer!r}")
    n = len(s.timeline)
    if after is None:
        after = n - 1
    if not -1 <= after < n:
        raise ValueError(f"event index {after} outside timeline of length {n}")
    if after + 1 < n and getattr(s.timeline[after + 1], "concurrent", False):
        raise ValueError(f"event index {after} falls inside a concurrent group")

    truncated = sc.Scenario(s.name, s.systems, s.agents, s.observers, s.bases, s.timeline[: after + 1])
    tcomp = _compile(truncated)
    leaves = _execute(tcomp, rules)

    given = dict(given or {})
    kept: list[_Branch] = []
    for leaf in leaves:
        values = dict(leaf.facts)
        values.update(dict(leaf.results))
        if any(values.get(k) != v for k, v in given.items()):
            continue
        kept.append(leaf)
    total = sum(b.weight for b in kept)
    if not kept or total <= qcore.PROB_EPS:
        raise ValueError(f"no branch is compatible with {given!r}")

    states = [(b.weight / total, _agent_view(tcomp, b, observer)[0]) for b in kept]
    payload = _mixture(states)
    knowledge = _common_knowledge(kept, tcomp, observer, given)
    return PerspectiveState(observer, payload, knowledge)


def _mixture(states: list[tuple[float, qcore.StateVector]]) -> Union[qcore.StateVector, qcore.DensityMatrix]:
    layout = states[0][1].layout
    rho = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for w, psi in states:
        rho += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] >= 1.0 - 1e-12:
        vec = vecs[:, -1]
        pivot = np.argmax(np.abs(vec))
        vec = vec * (abs(vec[pivot]) / vec[pivot])
        return qcore.StateVector(layout, vec)
    return qcore.DensityMatrix(layout, rho)


def _common_knowledge(
    kept: list[_Branch],
    comp: _Compiled,
    observer: str,
    given: dict[str, Label],
) -> tuple[tuple[str, Label], ...]:
    candidate_keys: set[str] = set(given)
    for ev in comp.events:
        if isinstance(ev, (_CMeasure, _CRead)) and ev.observer == observer:
            candidate_keys.add(ev.result)
        if isinstance(ev, _CInteract) and ev.agent == observer:
            candidate_keys.add(ev.record)
    pairs: list[tuple[str, Label]] = []
    for key in sorted(candidate_keys):
        values = set()
        for b in kept:
            everything = dict(b.facts)
            everything.update(dict(b.results))
            if key in everything:
                values.add(everything[key])
            else:
                values.add(None)
        if len(values) == 1 and None not in values:
            pairs.append((key, values.pop()))
    return tuple(pairs)


def sample_tallies(
    joint: dict[tuple[Label, ...], float],
    n: int,
    seed: int = 0,
) -> dict[tuple[Label, ...], int]:
    """Multinomial tallies of n samples drawn from an ``exact_joint`` table."""
    points = list(joint.keys())
    probs = np.array([joint[p] for p in points], dtype=float)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, probs)
    return {p: int(c) for p, c in zip(points, counts) if c}
