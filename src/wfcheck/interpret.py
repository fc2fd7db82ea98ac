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

A scenario object is validated on its first public call and compiled
once per rule set; the plans are kept for as long as the object lives, so
repeated calls on one scenario reuse them.  Plans are kept per object,
not per value: two equal scenarios can report labels of different types
(1 and 1.0 compare equal).  A scenario that holds a list, or any other
value that does not hash, can change after it validated; it is validated
and compiled again on every call and nothing is kept for it.  Only plans
are kept, never a table, a walk or a Born distribution.

Compilation holds everything the timeline and the rules fix: the initial
state, the interaction that writes each record, each interaction's
conditioning pool, resolved from the ``partition`` events before it (the
default pool is the agent alone), and for each event group the unitaries
that act before any outcome is drawn (concurrent events are checked to
commute there, once), the relative facts it draws, and its outcome steps
in event order.  The rules decide those once per event: under
``orthodox`` an interaction is an outcome step that projects onto its
record's pointer, under ``rqm5``/``cpl`` it draws a relative fact, and
only under ``cpl`` does a default readout step carry a pin.  Every
history draws the same outcomes in the same order (a group's relative
facts, then its steps), so the plan also fixes the outcome slots: each
outcome's key (its record key for an agent fact, its result name for an
outside result), the slots of each draw's pool facts and of each pin's
record, and the permutation that puts a history's labels in
``outcome_keys`` order.  A preparation draws nothing: validation keeps its
targets untouched until it (and never makes it concurrent), so the plan's
initial state holds every preparation's state and the groups hold only
interactions and outcome steps.  A run is then a tree of branches from that
state, each carrying only what one history fixes: the global state
(projected only by collapsing steps), the labels drawn so far in slot
order, the pins applied, and the probability of each outcome drawn, whose
product in slot order is the branch's weight: the joint probability of its
history.  Every group expands through one routine and one loop of outcome
steps, a single event being a group of one.  The tree is walked depth
first, children in expansion order, so each leaf goes straight to its
consumer and leaves come in the order a breadth-first expansion lists
them; ``run`` follows one sampled child of each group through the same
expansion.

The plan is also split into independent blocks.  Subsystems and records
join one block when one preparation or one event acts on them together, a
draw's pool holds their facts, or a concurrent group holds their events,
so no outcome of one block depends on another block's (chain(n), n
friends each copying their own system, is n blocks).  Each block keeps its groups, its slots
and its own leaf bound.  Every table comes from the block combine, for
one block or many: ``exact_joint`` and ``predicted_distribution`` walk
each block they read once, on its own, and combine their leaves.  Rows come
in the single walk's order, lexicographic over the slots by the rank of
each outcome among its siblings, and each row's weight multiplies its
per-slot probabilities in slot order (a pin's is 1.0), so the table
equals the one a walk over the whole plan folds, bit for bit.  ``run``
follows the whole plan and ``perspective`` walks it.

The global state is kept factored: ``StateVector`` factors over
disjoint sets of subsystems, held in a tuple with one entry per layout
position (the factor holding that subsystem), so finding and replacing the
factors an event touches costs the size of its support, not the number of
factors.  At the start each preparation's targets share its factor and
every other subsystem is its own.  An interaction, measurement, readout or
conditioning merges only the factors its support touches and runs the
kernel on that merge.  A projection onto a pointer state splits the
measured targets back off, exactly, unless a later event joins them with
other subsystems again.  Kernel work is shared per factor within a walk,
through one memo keyed by the factors and the event or basis the work is
for: a factor a group leaves alone is one object in every branch, and each
distinct factor is evolved, measured and projected once, its Born
distribution in a basis once.  Perspectives are built dense, over the
whole layout in declaration order (the design follows the product-state
simulators of Cirq, https://github.com/quantumlib/Cirq).

Agent outcomes under ``rqm5``/``cpl`` are weighted by the Born rule on
the branch state conditioned on the pool's facts from earlier groups.
Conditioning projects record pointer values and is well defined as long
as neither those records nor records correlated with them have been
collapsed since; otherwise enumeration raises
``qcore.ZeroProbabilityError``.  A table walks its blocks in the order of
their first outcome and raises the first error it meets, never one of a
block it does not read.  ``run`` builds the ledger and the anomaly notes
for its sampled history only, and raises only the errors of its path.
``perspective`` walks the whole plan in one pass and raises that walk's
first error, so on a scenario with two failing blocks it can name a
different fact from the one the tables name.

``run`` samples one history, ``exact_joint``/``predicted_distribution``
enumerate every branch exactly, and ``perspective`` reconstructs the
state a named observer faces at a point in the timeline.  Enumeration is
refused before any branch is expanded when the leaf bound of the blocks it
reads exceeds ``BRANCH_LIMIT``: the product, over their outcomes, of the
labels each can reach.  ``exact_joint`` reads every block, and
``predicted_distribution`` only those that draw its result or a
conditioning key: its marginal equals one folded from ``exact_joint`` bit
for bit on a plan of one block, and can differ from it in the last bits on
others.  A relative fact or a default readout reaches its record's writer
labels (pointer cells only once an event has measured the record in
another basis).  A pinned readout reaches one label, and so does a default
readout of a record that an ``orthodox`` collapse or an earlier default
readout left on one pointer.  Any other step reaches every label of its
basis.  Pruning of zero-probability outcomes is not foreseen, so
a scenario whose bound exceeds the limit is refused even when its real
leaf count would not.

Compilation is refused, before any array is allocated, when the largest
dense array the plan builds would hold more than ``ENTRY_LIMIT`` complex
entries: a subsystem's initial vector, a preparation's state, a basis
matrix (d² over targets of dimension d), a premeasurement ((d·D)² for d
the targets' dimension and D the record's), or the operators that the
concurrency check embeds on two events' joint support.  Building and
checking a premeasurement peaks at about five times its array, so at the
limit (256 MiB per array) a plan still compiles and runs under a 2 GB
address space.  The same limit bounds what the branches build: merging
state factors, the dense views of a perspective over the whole layout
(the merge of every factor), and the d×d density matrix of a mixed
perspective are each refused before they are allocated.
"""

from __future__ import annotations

import itertools
import operator
import random
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import prod
from typing import Union

import numpy as np

from . import qcore
from . import scenario as sc
from .qcore import Label

BRANCH_LIMIT = 1_000_000
ENTRY_LIMIT = 1 << 24  # complex entries in the largest dense array a plan builds: 256 MiB
CONCURRENCY_ATOL = 1e-10

RULE_KINDS = ("orthodox", "rqm5", "cpl")
FACT_HOLDERS = ("agent", "both")


class ConcurrencyError(ValueError):
    """Concurrent events whose operators do not commute."""


class TooManyBranchesError(RuntimeError):
    """The plan's leaf bound exceeds BRANCH_LIMIT, so exact enumeration is refused."""


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
    """An outcome step: an outside measurement, a record readout or, under
    ``orthodox``, an interaction's collapse onto its record's pointer."""

    index: int
    observer: str
    spec: qcore.BasisSpec
    result: str  # the result name; the record key for an interaction's collapse
    pin: str | None  # record a cpl link pins: set under cpl for default pointer-basis readouts only


_CEvent = Union[_CInteract, _CMeasure]


@dataclass(frozen=True)
class _Group:
    """One event group as the branch engine expands it under the plan's rules."""

    dynamics: tuple[_CInteract, ...]  # all act before any outcome is drawn
    # relative facts, rqm5/cpl only, each with the (slot, record key) of
    # every fact from an earlier group held in its pool
    draws: tuple[tuple[_CInteract, tuple[tuple[int, str], ...]], ...]
    steps: tuple[tuple[_CMeasure, int | None], ...]  # outcome steps in event order, each with the slot its pin reads


@dataclass(frozen=True)
class _Block:
    """Groups that share no subsystem, record or pool with the rest of the
    plan, so their outcomes are independent of every other block's."""

    groups: tuple[_Group, ...]  # in plan order, pool and pin slots counted within the block
    slots: tuple[int, ...]  # the plan slot of each of the block's outcomes, ascending
    leaf_bound: int


@dataclass(frozen=True)
class _Compiled:
    name: str  # the scenario's; a plan holds no reference to its scenario
    observers: tuple[str, ...]  # agents, then outside observers, in declaration order
    rules: RuleSet
    layout: qcore.SpaceLayout
    order: dict[str, int]  # subsystem id -> its position in the layout
    initial: tuple[qcore.StateVector, ...]  # per layout position: its preparation's factor, else its pointer
    events: tuple[_CEvent, ...]  # preparations and partitions excluded
    groups: tuple[_Group, ...]
    writers: dict[str, _CInteract]  # record key -> the interaction that writes it
    intact_records: frozenset[str]  # written records no later event measures or reads
    rejoined: frozenset[int]  # collapsing events whose targets a later event joins with others
    slots: tuple[str, ...]  # outcome keys in the order every branch draws them
    point_order: tuple[int, ...] | None  # slots in outcome_keys order; None when that is slot order
    leaf_bound: int  # product over outcomes of the labels each can reach
    blocks: tuple[_Block, ...]  # the independent parts, by first slot


def _state_amplitudes(expr: sc.StateExpr) -> np.ndarray:
    if isinstance(expr, sc.GhzState):
        return qcore.ghz_amplitudes(3)
    if isinstance(expr, sc.SchmidtState):
        return qcore.correlated_pair_amplitudes((expr.c0, expr.c1))
    return np.asarray(expr.amplitudes, dtype=complex)


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


# id(scenario) -> its plans by rule set, for each scenario object that has
# validated.  An entry is removed when its scenario is collected, and a plan
# holds no reference to its scenario, so it lives as long as the object.
_plans: dict[int, dict[RuleSet, _Compiled]] = {}


def _plans_of(s: sc.Scenario) -> dict[RuleSet, _Compiled]:
    """The plans kept for the scenario object ``s``, validating it on first use.

    A scenario that does not hash holds a list or another mutable value, so
    it gets a fresh dict that is not kept: it is validated on every call.
    """
    plans = _plans.get(id(s))
    if plans is None:
        diags = sc.validate(s)
        if diags:
            msgs = "; ".join(map(str, diags))
            raise ValueError(f"scenario {s.name!r} does not validate: {msgs}")
        plans = {}
        try:
            hash(s)
        except TypeError:
            return plans
        _plans[id(s)] = plans
        weakref.finalize(s, _plans.pop, id(s), None)
    return plans


def _plan(s: sc.Scenario, rules: RuleSet) -> _Compiled:
    """The scenario's plan under ``rules``: validated once, compiled once per
    rule set.  A refused plan is not kept, so it is refused on every call."""
    plans = _plans_of(s)
    comp = plans.get(rules)
    if comp is None:
        comp = plans[rules] = _compile(s, rules)
    return comp


def _largest_array(s: sc.Scenario, dims: dict[str, int]) -> tuple[int, str]:
    """(entries, where) of the largest dense array compiling ``s`` builds,
    from the dimensions alone: the first event or subsystem that builds it."""
    largest = (0, "")
    for sid, dim in dims.items():
        if dim > largest[0]:
            largest = (dim, f"the initial state of {sid!r}")
    group: list[tuple[str, ...]] = []  # the supports of the current group's events
    for i, ev in enumerate(s.timeline):
        if isinstance(ev, sc.DeclarePartition):
            continue
        support = (sc.record_key(ev.agent, ev.record),) if isinstance(ev, sc.ReadRecord) else ev.targets
        d = prod(dims[t] for t in support)
        if isinstance(ev, sc.Prepare):
            entries = d
        elif isinstance(ev, sc.Interact):
            key = sc.record_key(ev.agent, ev.record)
            support += (key,)
            entries = (d * dims[key]) ** 2  # the premeasurement; the readout is D² and the basis d²
        else:
            entries = d * d
        if not getattr(ev, "concurrent", False):
            group = []
        # the concurrency check embeds both events' operators on their joint support
        for other in group:
            if set(other) & set(support):
                entries = max(entries, prod(dims[t] for t in set(other) | set(support)) ** 2)
        group.append(support)
        if entries > largest[0]:
            largest = (entries, f"event {i}")
    return largest


def _compile(s: sc.Scenario, rules: RuleSet) -> _Compiled:
    """Lay out a validated scenario: everything the timeline and the rules fix."""
    layout = sc.layout_of(s)
    dims = dict(layout.subsystems)
    entries, where = _largest_array(s, dims)
    if entries > ENTRY_LIMIT:
        raise _over_limit(s.name, where, entries)
    order = {sid: i for i, sid in enumerate(layout.ids)}
    record_init = {sc.record_key(a.name, r.name): r.init for a in s.agents for r in a.records}
    initial = {
        sid: qcore.StateVector(layout.sublayout((sid,)), _pointer(dim, record_init.get(sid, 0)))
        for sid, dim in layout.subsystems
    }

    pools: dict[str, frozenset[str]] = {}
    writers: dict[str, _CInteract] = {}
    events: list[_CEvent] = []
    grouped: list[tuple[_CEvent, ...]] = []
    # the labels a pointer readout of each record can reach: the writer's
    # labels, premeasured from the init pointer, until an event measures the
    # record in another basis; pointer cells can then get weight too
    reach: dict[str, int] = {}
    # records a collapse left on one pointer, where a default readout has one
    # outcome, until an event measures them in another basis
    fixed: set[str] = set()
    counts: dict[str, int] = {}  # outcome key -> the labels it can reach
    # one premeasurement matrix per distinct (basis, record) shape; chain-like
    # scenarios copy the same basis into records of one size many times
    premeasured: dict[tuple, np.ndarray] = {}
    for i, ev in enumerate(s.timeline):
        if isinstance(ev, sc.DeclarePartition):
            # takes effect for later events; validation keeps it out of groups
            for members in ev.groups:
                pools.update(dict.fromkeys(members, frozenset(members)))
            continue
        if isinstance(ev, sc.Prepare):
            # validation keeps the targets untouched until here: every branch starts prepared
            prepared = qcore.StateVector(layout.sublayout(ev.targets), _state_amplitudes(ev.state))
            prepared = qcore.permute(prepared, sorted(ev.targets, key=order.get))
            initial.update(dict.fromkeys(ev.targets, prepared))
            continue
        if isinstance(ev, sc.Interact):
            targets = tuple((t, dims[t]) for t in ev.targets)
            bspec = _basis_spec(s, ev.basis, targets)
            key = sc.record_key(ev.agent, ev.record)
            record = (key, dims[key])
            dims_in = tuple(d for _, d in bspec.targets)
            shape = (bspec.vectors.tobytes(), bspec.labels, dims_in, record[1], record_init[key])
            matrix = premeasured.get(shape)
            if matrix is None:
                matrix = premeasured[shape] = qcore.build_premeasurement(bspec, record, record_init[key]).matrix
            u = qcore.Unitary(qcore.SpaceLayout(tuple(bspec.targets) + (record,)), matrix)
            readout = qcore.computational_basis(
                record, labels=bspec.labels + sc.pointer_cells(len(bspec.labels), dims[key]))
            pool = pools.get(ev.agent, frozenset((ev.agent,)))
            cev = writers[key] = _CInteract(i, ev.agent, key, "+".join(ev.targets), u, readout, pool)
            counts[key] = reach.setdefault(key, len(bspec.labels))
            if rules.kind == "orthodox":
                fixed.add(key)
        elif isinstance(ev, sc.Measure):
            targets = tuple((t, dims[t]) for t in ev.targets)
            cev = _CMeasure(i, ev.observer, _basis_spec(s, ev.basis, targets), ev.result, None)
            counts[ev.result] = len(cev.spec.labels)
            reach.update((t, dims[t]) for t in ev.targets if t in record_init)
            fixed.difference_update(ev.targets)
        else:
            key = sc.record_key(ev.agent, ev.record)
            spec = writers[key].readout if ev.basis is None else _basis_spec(s, ev.basis, ((key, dims[key]),))
            pin = key if ev.basis is None and rules.kind == "cpl" else None
            cev = _CMeasure(i, ev.observer, spec, ev.result, pin)
            if ev.basis is not None:
                counts[ev.result] = len(spec.labels)
                reach[key] = dims[key]
                fixed.discard(key)
            else:
                counts[ev.result] = 1 if pin is not None or key in fixed else reach[key]
                fixed.add(key)
        events.append(cev)
        if getattr(ev, "concurrent", False):
            grouped[-1] += (cev,)
        else:
            grouped.append((cev,))
    collapse = rules.kind == "orthodox"
    groups: list[_Group] = []
    # every branch draws the same outcomes in the same order, a group's
    # relative facts and then its steps; validation keeps the keys distinct
    slots: list[str] = []
    spans: list[range] = []  # each group's slots
    for evs in grouped:
        if len(evs) > 1:
            _check_commuting(layout, evs)
        dynamics = tuple(ev for ev in evs if isinstance(ev, _CInteract))
        draws = () if collapse else tuple(ev for ev in evs if isinstance(ev, _CInteract))
        # under orthodox an interaction collapses onto its record's pointer,
        # its outcome keyed by the record
        steps = tuple(
            _CMeasure(ev.index, ev.agent, ev.readout, ev.record, None) if isinstance(ev, _CInteract) else ev
            for ev in evs if isinstance(ev, _CMeasure) or (collapse and isinstance(ev, _CInteract))
        )
        # each conditional sees the facts of earlier groups only
        earlier = [(at, key) for at, key in enumerate(slots) if key in writers]
        spans.append(range(len(slots), len(slots) + len(draws) + len(steps)))
        slots += [ev.record for ev in draws] + [step.result for step in steps]
        groups.append(_Group(
            dynamics,
            tuple((ev, tuple((at, key) for at, key in earlier if writers[key].agent in ev.pool)) for ev in draws),
            tuple((step, None if step.pin is None else slots.index(step.pin)) for step in steps),
        ))
    point_order = tuple(slots.index(key) for key in outcome_keys(s))

    # a fact can condition its holder's perspective only while the record
    # subsystem stays untouched by stable events after its write
    intact: set[str] = set()
    for ev in events:
        if isinstance(ev, _CMeasure):
            intact -= set(ev.spec.target_ids)
        elif isinstance(ev, _CInteract):
            intact.add(ev.record)
    # splitting measured targets off their factor gains nothing when a later
    # event merges them with other subsystems again
    supports = [set(_support(ev)) for ev in events]
    rejoined = set()
    for i, ev in enumerate(events):
        targets = set(ev.readout.target_ids) if isinstance(ev, _CInteract) else supports[i]
        if any(support & targets and support - targets for support in supports[i + 1:]):
            rejoined.add(ev.index)
    return _Compiled(s.name, tuple(_observer_names(s)), rules, layout, order, tuple(initial.values()), tuple(events),
                     tuple(groups), writers, frozenset(intact), frozenset(rejoined), tuple(slots),
                     None if point_order == tuple(range(len(slots))) else point_order,
                     prod(counts.values()), _blocks(initial.values(), groups, spans, [counts[key] for key in slots]))


def _pointer(dim: int, k: int) -> np.ndarray:
    """The k-th computational basis vector of dimension ``dim``."""
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def _blocks(
    initial: Iterable[qcore.StateVector], groups: list[_Group], spans: list[range], counts: list[int],
) -> tuple[_Block, ...]:
    """The plan's groups partitioned into independent blocks.  Subsystems and
    records join a block when they start in one prepared factor, one event
    acts on them together, a draw's pool holds their facts, or a concurrent
    group holds their events."""
    # each subsystem starts in the set of its initial factor's first subsystem
    parent = {sid: factor.layout.ids[0] for factor in initial for sid in factor.layout.ids}

    def find(sid: str) -> str:
        while parent[sid] != sid:
            parent[sid] = sid = parent[parent[sid]]
        return sid

    members: list[str] = []  # a subsystem of each group
    for group in groups:
        coupled = [sid for ev in group.dynamics for sid in _support(ev)]
        coupled += [sid for step, _ in group.steps for sid in step.spec.target_ids]
        coupled += [key for _, pool in group.draws for _, key in pool]
        for sid in coupled[1:]:
            parent[find(sid)] = find(coupled[0])
        members.append(coupled[0])
    # one part per block, in the order of its first slot: every group draws
    parts: dict[str, list[int]] = {}
    for g, sid in enumerate(members):
        parts.setdefault(find(sid), []).append(g)
    blocks = []
    for part in parts.values():
        at = [slot for g in part for slot in spans[g]]
        local = {slot: k for k, slot in enumerate(at)}
        blocks.append(_Block(
            tuple(_Group(
                groups[g].dynamics,
                tuple((ev, tuple((local[slot], key) for slot, key in pool)) for ev, pool in groups[g].draws),
                tuple((step, None if slot is None else local[slot]) for step, slot in groups[g].steps),
            ) for g in part),
            tuple(at),
            prod(counts[slot] for slot in at),
        ))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# branch engine


# one entry per layout position: the factor holding that subsystem.  Factors
# are over disjoint subsystems, each in layout order, so a factor spanning k
# subsystems fills k entries; branches holding the same factor objects share
# a state node
_State = tuple[qcore.StateVector, ...]


# (state, probs, labels, pins): the probability and the label of each outcome
# drawn so far, one per slot (a pin's probability is 1.0), and the pins
# applied.  The branch's weight, the joint probability of its history, is
# prod(probs) taken in slot order.
_Branch = tuple[_State, tuple[float, ...], tuple[Label, ...], tuple[PinRecord, ...]]


def _weight(probs: tuple[float, ...]) -> float:
    return prod(probs, start=1.0)


def _over_limit(name: str, where: str, entries: int) -> ValueError:
    return ValueError(f"scenario {name!r}: {where} builds an array of {entries} entries, "
                      f"over the limit of {ENTRY_LIMIT}")


def _product(comp: _Compiled, state: _State) -> qcore.StateVector:
    """Tensor product of the distinct factors of ``state``, its subsystems in
    layout order; the factors are taken in the order of their first subsystem.
    Refused before allocating when it would hold more than ``ENTRY_LIMIT``
    amplitudes."""
    factors = tuple(dict.fromkeys(state))
    if not factors:  # a scenario without subsystems
        return qcore.StateVector(qcore.SpaceLayout(()), np.ones(1, dtype=complex))
    if len(factors) == 1:
        return factors[0]
    subsystems = [sub for f in factors for sub in f.layout.subsystems]
    perm = sorted(range(len(subsystems)), key=lambda a: comp.order[subsystems[a][0]])
    entries = prod(f.layout.total_dimension for f in factors)
    if entries > ENTRY_LIMIT:
        ids = ", ".join(repr(subsystems[a][0]) for a in perm)
        raise _over_limit(comp.name, f"merging {ids}", entries)
    amps = factors[0].amplitudes
    for f in factors[1:]:
        amps = np.multiply.outer(amps, f.amplitudes).ravel()
    amps = amps.reshape([d for _, d in subsystems]).transpose(perm).reshape(-1)
    return qcore.StateVector(qcore.SpaceLayout(tuple(subsystems[a] for a in perm)), amps)


def _shared(memo: dict, nodes: _State, key, work, *args):
    """``work(*args)`` once per walk for the factors ``nodes`` and ``key``, its
    event or basis.  Factors compare by identity, and a factor a group leaves
    alone is one object in every branch."""
    k = (nodes, key)
    out = memo.get(k, memo)
    if out is memo:
        out = memo[k] = work(*args)
    return out


def _touch(memo: dict, comp: _Compiled, state: _State, ids) -> qcore.StateVector:
    """The merge of the factors holding the subsystems ``ids``."""
    touched = tuple(dict.fromkeys([state[comp.order[i]] for i in ids]))
    if len(touched) == 1:
        return touched[0]
    touched = tuple(sorted(touched, key=lambda f: comp.order[f.layout.ids[0]]))
    return _shared(memo, touched, ("merge",), _product, comp, touched)


def _with(comp: _Compiled, state: _State, parts: _State) -> _State:
    """``state`` with ``parts`` in place of the factors on their subsystems."""
    slots = list(state)
    for part in parts:
        for sid in part.layout.ids:
            slots[comp.order[sid]] = part
    return tuple(slots)


def _born(memo: dict, factor: qcore.StateVector, spec: qcore.BasisSpec) -> dict[Label, float]:
    # under rqm5 a relative fact and a later readout of its record measure
    # the same factor in the same basis
    return _shared(memo, (factor,), id(spec), qcore.born_distribution, factor, spec)


def _collapsed(
    memo: dict, comp: _Compiled, factor: qcore.StateVector, spec: qcore.BasisSpec, label: Label, split: bool,
) -> _State:
    """The factor projected on one outcome, as factors."""
    return _shared(memo, (factor,), ("project", id(spec), label, split), _project, comp, factor, spec, label, split)


def _project(
    comp: _Compiled, factor: qcore.StateVector, spec: qcore.BasisSpec, label: Label, split: bool,
) -> _State:
    """``project`` builds (basis vector) x (residual), so when the basis vector
    is a pointer state (one nonzero entry k) the measured targets split off
    exactly: the rest is row k of the projected tensor, built here by the
    same operations without the tensor."""
    vec = spec.vectors[spec.labels.index(label)]
    (nonzero,) = np.nonzero(vec)
    if not split or len(nonzero) != 1 or len(spec.targets) == len(factor.layout.subsystems):
        return (qcore.project(factor, spec, label),)
    k = nonzero[0]
    residual, p = qcore.residual(factor, spec, label)
    rest = qcore.SpaceLayout(tuple(s for s in factor.layout.subsystems if s[0] not in spec.target_ids))
    measured = qcore.StateVector(qcore.SpaceLayout(spec.targets), vec)
    if len(spec.targets) > 1:
        measured = qcore.permute(measured, sorted(spec.target_ids, key=comp.order.get))
    return (measured, qcore.StateVector(rest, ((vec[k] * residual) / np.sqrt(p)) / vec[k]))


def _fact_entries(ev: _CInteract, label: Label, rules: RuleSet) -> tuple[LedgerEntry, ...]:
    entries = (LedgerEntry(ev.index, ev.agent, ev.record, label),)
    if rules.fact_holder == "both":
        entries += (LedgerEntry(ev.index, ev.mirror_holder, ev.record, label),)
    return entries


def _evolve(memo: dict, comp: _Compiled, state: _State, group: _Group) -> _State:
    """The group's interaction unitaries, in event order."""
    for ev in group.dynamics:
        factor = _touch(memo, comp, state, ev.unitary.layout.ids)
        evolved = _shared(memo, (factor,), ("apply", ev.index), qcore.apply_local, factor, ev.unitary)
        state = _with(comp, state, (evolved,))
    return state


def _split(memo: dict, comp: _Compiled, state: _State, step: _CMeasure) -> list[tuple[Label, float, _State]]:
    """(label, p, projected state) for each outcome of a collapsing step."""
    factor = _touch(memo, comp, state, step.spec.target_ids)
    outcomes = _shared(memo, (factor,), ("outcomes", step.index), _outcomes, memo, comp, factor, step)
    return [(label, p, _with(comp, state, parts)) for label, p, parts in outcomes]


def _outcomes(memo: dict, comp: _Compiled, factor: qcore.StateVector, step: _CMeasure) -> list[tuple[Label, float, _State]]:
    """(label, p, projected factors) for each reachable outcome of a collapsing step on ``factor``."""
    split = step.index not in comp.rejoined
    return [
        (label, p, _collapsed(memo, comp, factor, step.spec, label, split))
        for label, p in _born(memo, factor, step.spec).items() if p > qcore.PROB_EPS
    ]


def _conditioned(memo: dict, comp: _Compiled, state: _State, ev: _CInteract, facts) -> list[tuple[Label, float]]:
    """An agent outcome's distribution given its pool's earlier facts."""
    factor = _touch(memo, comp, state, (ev.record,) + tuple(key for key, _ in facts))
    return _shared(memo, (factor,), ("condition", ev.index, facts), _fact_distribution, memo, comp, factor, ev, facts)


def _fact_distribution(
    memo: dict, comp: _Compiled, factor: qcore.StateVector, ev: _CInteract, facts,
) -> list[tuple[Label, float]]:
    for key, value in facts:
        try:
            factor = qcore.project(factor, comp.writers[key].readout, value)
        except qcore.ZeroProbabilityError as e:
            raise qcore.ZeroProbabilityError(
                f"conditioning on fact {key!r}={value!r} has zero probability; "
                "the record, or a record correlated with it, was disturbed after the fact was produced"
            ) from e
    dist = qcore.born_distribution(factor, ev.readout) if facts else _born(memo, factor, ev.readout)
    return [(label, p) for label, p in dist.items() if p > qcore.PROB_EPS]


def _pinned_child(memo: dict, comp: _Compiled, ev: _CMeasure, at: int, branch: _Branch) -> _Branch:
    state, probs, labels, pins = branch
    value = labels[at]
    record, state = _shared(memo, state, ("pin", ev.index, value), _pinned, memo, comp, state, ev, value)
    return state, probs + (1.0,), labels + (value,), pins + (record,)


def _pinned(memo: dict, comp: _Compiled, state: _State, ev: _CMeasure, value: Label) -> tuple[PinRecord, _State]:
    """The pin record and the pinned state; a pin onto a zero-probability
    outcome leaves the state unprojected."""
    factor = _touch(memo, comp, state, ev.spec.target_ids)
    record, parts = _shared(memo, (factor,), ("pinned", ev.index, value), _pin, memo, comp, factor, ev, value)
    return record, state if parts is None else _with(comp, state, parts)


def _pin(memo: dict, comp: _Compiled, factor: qcore.StateVector, ev: _CMeasure, value: Label):
    p = float(_born(memo, factor, ev.spec).get(value, 0.0))
    anomalous = p <= qcore.PROB_EPS
    parts = None if anomalous else _collapsed(memo, comp, factor, ev.spec, value, ev.index not in comp.rejoined)
    return PinRecord(ev.index, ev.observer, ev.pin, value, p, anomalous), parts


def _support(ev: _CEvent) -> tuple[str, ...]:
    if isinstance(ev, _CInteract):
        return ev.unitary.layout.ids
    return ev.spec.target_ids


def _operators(ev: _CEvent) -> Iterator[tuple[np.ndarray, tuple[str, ...]]]:
    """The event's unitary, or its projectors one at a time: d of them hold d³ entries."""
    if isinstance(ev, _CInteract):
        yield ev.unitary.matrix, ev.unitary.layout.ids
        return
    spec = ev.spec
    for v in spec.vectors:
        yield np.outer(v, v.conj()), spec.target_ids


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


def _expand_group(comp: _Compiled, group: _Group, branch: _Branch, memo: dict) -> list[_Branch]:
    state, probs, labels, pins = branch
    # dynamics first: all unitaries act before any outcome is drawn
    if group.dynamics:
        state = _shared(memo, state, ("evolve", group.dynamics[0].index), _evolve, memo, comp, state, group)
    children = [(state, probs, labels, pins)]
    # simultaneous facts: each conditional sees pre-group facts only
    for ev, pool in group.draws:
        facts = tuple((key, labels[at]) for at, key in pool)
        dist = _shared(memo, state, ("conditioned", ev.index, facts), _conditioned, memo, comp, state, ev, facts)
        children = [(s, pr + (p,), ls + (label,), ps) for s, pr, ls, ps in children for label, p in dist]
    for step, at in group.steps:
        if at is not None:
            children = [_pinned_child(memo, comp, step, at, child) for child in children]
        else:
            children = [
                (projected, pr + (p,), ls + (label,), ps)
                for s, pr, ls, ps in children
                for label, p, projected in _shared(memo, s, ("split", step.index), _split, memo, comp, s, step)
            ]
    return children


def _refuse_over_limit(comp: _Compiled, leaf_bound: int) -> None:
    if leaf_bound > BRANCH_LIMIT:
        raise TooManyBranchesError(f"scenario {comp.name!r} exceeds {BRANCH_LIMIT} branches")


def _walk(comp: _Compiled, block: _Block | None = None) -> Iterator[_Branch]:
    """The leaves of the branch tree of the whole plan, or of one block,
    depth first, from the prepared initial state.  Children are visited in
    the order a group expands them, so the leaves come in the order of a
    breadth-first expansion.  One memo serves the whole walk: step results
    per state node, kernel work per factor.  A tree whose leaf bound exceeds
    ``BRANCH_LIMIT`` is refused before anything is expanded."""
    plan = comp if block is None else block
    _refuse_over_limit(comp, plan.leaf_bound)
    groups = plan.groups
    memo: dict = {}
    stack: list[tuple[int, _Branch]] = [(0, (comp.initial, (), (), ()))]
    while stack:
        g, branch = stack.pop()
        if g == len(groups):
            yield branch
        else:
            stack.extend((g + 1, child) for child in reversed(_expand_group(comp, groups[g], branch, memo)))


# ---------------------------------------------------------------------------
# public operations


def run(s: sc.Scenario, rules: RuleSet, seed: int = 0) -> RunResult:
    """Sample a single history; identical (scenario, rules, seed) gives identical output.

    Only the sampled path is expanded, so where ``exact_joint`` raises, some
    seeds return a history and others raise."""
    comp = _plan(s, rules)
    rng = random.Random(seed)

    def chooser(children: list[_Branch]) -> _Branch:
        if len(children) == 1:
            return children[0]
        weights = [_weight(probs) for _, probs, _, _ in children]
        r = rng.random() * sum(weights)
        acc = 0.0
        for c, weight in zip(children, weights):
            acc += weight
            if r <= acc:
                return c
        return children[-1]

    memo: dict = {}  # serves the sampled path and the perspectives
    branch: _Branch = (comp.initial, (), (), ())
    for group in comp.groups:
        branch = chooser(_expand_group(comp, group, branch, memo))
    state, _, labels, pins = branch
    outcomes = tuple(zip(comp.slots, labels))
    perspectives = {
        name: _branch_perspective(comp, state, outcomes, name, memo)
        for name in comp.observers
    }
    # the ledger and anomaly notes describe the sampled history only
    entries = tuple(
        e for key, label in outcomes if key in comp.writers
        for e in _fact_entries(comp.writers[key], label, comp.rules)
    )
    result_names = {ev.index: ev.result for ev in comp.events if isinstance(ev, _CMeasure)}
    anomalies = tuple(
        f"event {p.event_index}: cross-perspective link forces {result_names[p.event_index]}={p.value!r} "
        f"on record {p.record!r}, an outcome of probability {p.born_weight:.3g}"
        for p in pins if p.anomalous
    )
    return RunResult(
        scenario=comp.name,
        rules=comp.rules,
        seed=seed,
        results={key: label for key, label in outcomes if key not in comp.writers},
        ledger=RelativeFactLedger(entries),
        perspectives=perspectives,
        pins=pins,
        anomalies=anomalies,
    )


def _observer_names(s: sc.Scenario) -> list[str]:
    return [a.name for a in s.agents] + [o.name for o in s.observers]


def _agent_view(
    comp: _Compiled, node: _State, outcomes: tuple[tuple[str, Label], ...], name: str, memo: dict,
) -> tuple[_State, list[tuple[str, Label]]]:
    """A branch state conditioned on the intact facts ``name`` holds among the
    branch's (outcome key, label) pairs, and those facts; branches that share
    a state node and those facts share one view."""
    held = [
        (key, value) for key, value in outcomes
        if key in comp.intact_records and comp.writers[key].agent == name
    ]

    def view():
        state = node
        for key, value in held:
            readout = comp.writers[key].readout
            factor = _touch(memo, comp, state, readout.target_ids)
            # a stable collapse on an entangled partner can strip a
            # relative fact of support; it stays known, but cannot
            # steer the state.  The view is made dense next, so nothing
            # is split off.
            try:
                state = _with(comp, state, _collapsed(memo, comp, factor, readout, value, False))
            except qcore.ZeroProbabilityError:
                pass
        return state

    return _shared(memo, node, ("view", tuple(held)), view), held


def _branch_perspective(
    comp: _Compiled, node: _State, outcomes: tuple[tuple[str, Label], ...], name: str, memo: dict,
) -> PerspectiveState:
    state, knowledge = _agent_view(comp, node, outcomes, name, memo)
    own_results = {ev.result for ev in comp.events if isinstance(ev, _CMeasure) and ev.observer == name}
    for key, value in outcomes:
        if key in own_results:
            knowledge.append((key, value))
    dense = _shared(memo, state, ("dense",), _product, comp, state)
    return PerspectiveState(name, dense, tuple(knowledge))


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
    comp = _plan(s, rules)
    # a row is a leaf's labels in outcome_keys order; the plan holds that order
    # as a permutation of the slots (of at least two, else it is the identity)
    point = None if comp.point_order is None else operator.itemgetter(*comp.point_order)
    return _combined(comp, comp.blocks, point)


def _combined(comp: _Compiled, blocks: tuple[_Block, ...], point=None) -> dict[tuple[Label, ...], float]:
    """The table over the slots of ``blocks``, each block walked once.

    Rows come in the single walk's order, lexicographic over the slots by
    child rank, and each row's weight multiplies its per-slot probabilities
    in slot order, so on every block the values and the order equal the
    single walk's bit for bit.  A row is the labels in slot order, or
    ``point`` of them; without blocks it is one empty row of weight 1.0."""
    _refuse_over_limit(comp, prod(block.leaf_bound for block in blocks))
    if not blocks:
        return {(): 1.0}
    owner = [b for _, b in sorted((at, b) for b, block in enumerate(blocks) for at in block.slots)]
    last = len(owner) - 1
    # nodes[k] is slot k's node in its block's tree along the current row,
    # set when the row's previous slot of that block is chosen; follow[k] is
    # the next slot of slot k's block, or the spare entry at the end
    nodes: list = [None] * (len(owner) + 1)
    follow = [len(owner)] * (len(owner) + 1)
    first: dict[int, int] = {}
    for k in reversed(range(len(owner))):
        follow[k] = first.get(owner[k], len(owner))
        first[owner[k]] = k
    for b, tree in enumerate(_trees(comp, blocks)):
        nodes[first[b]] = tree
    out: dict[tuple[Label, ...], float] = {}
    stack: list = [(-1, None, (), 1.0)]  # (slot, node it leads to, labels, weight)
    while stack:
        k, node, labels, weight = stack.pop()
        nodes[follow[k]] = node
        if k + 1 < last:
            children = reversed(nodes[k + 1].items())
            stack += [(k + 1, child, labels + (label,), weight * p) for label, (p, child) in children]
        elif point is None:
            for label, (p, _) in nodes[last].items():
                out[labels + (label,)] = weight * p
        else:
            for label, (p, _) in nodes[last].items():
                out[point(labels + (label,))] = weight * p
    return out


def _trees(comp: _Compiled, blocks: tuple[_Block, ...]) -> list[dict]:
    """Each block's branch tree, one node per drawn outcome: a node maps each
    child's label to (p, node), in the order the walk expands them (sibling
    outcomes differ in their label).  The first error a block's walk meets
    propagates."""
    trees = []
    for block in blocks:
        root: dict = {}
        for _, probs, labels, _ in _walk(comp, block):
            node = root
            for label, p in zip(labels, probs):
                if label not in node:
                    node[label] = (p, {})
                node = node[label][1]
        trees.append(root)
    return trees


def _conditional_marginal(
    joint: dict[tuple[Label, ...], float],
    keys: tuple[str, ...],
    result: str,
    conditioning: dict[str, Label],
) -> dict[Label, float]:
    """Distribution of ``result`` over the rows of the table of the blocks
    read, keyed per ``keys``, that agree with ``conditioning``."""
    at = keys.index(result)
    fixed = [(keys.index(k), v) for k, v in conditioning.items()]
    total = 0.0
    dist: dict[Label, float] = {}
    for point, p in joint.items():
        if any(point[i] != v for i, v in fixed):
            continue
        total += p
        dist[point[at]] = dist.get(point[at], 0.0) + p
    if total <= qcore.PROB_EPS:
        raise ValueError(f"conditioning {conditioning!r} has zero probability")
    return {k: v / total for k, v in dist.items()}


def predicted_distribution(
    s: sc.Scenario,
    rules: RuleSet,
    observer: str,
    result: str,
    conditioning: dict[str, Label] | None = None,
) -> dict[Label, float]:
    """Exact outcome distribution of a named result, optionally given ledger facts.

    Only the blocks that draw ``result`` or a conditioning key are walked,
    refused when the product of their leaf bounds exceeds ``BRANCH_LIMIT``."""
    comp = _plan(s, rules)
    binder = next((ev for ev in comp.events if isinstance(ev, _CMeasure) and ev.result == result), None)
    if binder is None:
        raise ValueError(f"result {result!r} is not bound by any event")
    if binder.observer != observer:
        raise ValueError(f"result {result!r} is bound by {binder.observer!r}, not {observer!r}")
    conditioning = dict(conditioning or {})
    for key in conditioning:
        if key not in comp.writers:
            raise ValueError(f"conditioning on an unwritten record: {key!r}")
    wanted = {result, *conditioning}
    blocks = tuple(block for block in comp.blocks if any(comp.slots[at] in wanted for at in block.slots))
    keys = tuple(comp.slots[at] for at in sorted(at for block in blocks for at in block.slots))
    return _conditional_marginal(_combined(comp, blocks), keys, result, conditioning)


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

    The plan of events 0..after is walked whole, not block by block, so of
    two blocks whose conditioning fails this raises the error the single
    walk meets first, which need not be the one ``exact_joint`` raises.
    """
    _plans_of(s)  # validates s once; a truncated timeline of a valid scenario is valid
    if observer not in _observer_names(s):
        raise ValueError(f"unknown observer {observer!r}")
    n = len(s.timeline)
    if after is None:
        after = n - 1
    if not -1 <= after < n:
        raise ValueError(f"event index {after} outside timeline of length {n}")
    if after + 1 < n and getattr(s.timeline[after + 1], "concurrent", False):
        raise ValueError(f"event index {after} falls inside a concurrent group")

    if after + 1 == n:
        tcomp = _plan(s, rules)
    else:
        truncated = sc.Scenario(s.name, s.systems, s.agents, s.observers, s.bases, s.timeline[: after + 1])
        tcomp = _compile(truncated, rules)

    given = dict(given or {})
    for key in given:
        if key not in tcomp.slots:
            raise ValueError(f"given key {key!r} is not an outcome of the first {after + 1} events")
    kept: list[tuple[_State, float, tuple[tuple[str, Label], ...]]] = []
    known: list[dict[str, Label]] = []  # each kept leaf's outcomes
    for state, probs, labels, _ in _walk(tcomp):
        outcomes = tuple(zip(tcomp.slots, labels))
        values = dict(outcomes)
        if any(values.get(k) != v for k, v in given.items()):
            continue
        kept.append((state, _weight(probs), outcomes))
        known.append(values)
    total = sum(weight for _, weight, _ in kept)
    if not kept or total <= qcore.PROB_EPS:
        raise ValueError(f"no branch is compatible with {given!r}")

    memo: dict = {}
    states = [(weight / total, _agent_view(tcomp, state, outcomes, observer, memo)[0])
              for state, weight, outcomes in kept]
    payload = _mixture(tcomp, states)
    knowledge = _common_knowledge(known, tcomp, observer, given)
    return PerspectiveState(observer, payload, knowledge)


def _mixture(comp: _Compiled, states: list[tuple[float, _State]]) -> Union[qcore.StateVector, qcore.DensityMatrix]:
    # branches sharing a state node, the same factors, contribute one outer product
    nodes: dict[_State, list] = {}
    for w, state in states:
        nodes.setdefault(state, [0.0, state])[0] += w
    layout = comp.layout
    if len(nodes) == 1:
        vec = _product(comp, states[0][1]).amplitudes
    else:
        d = layout.total_dimension
        if d * d > ENTRY_LIMIT:
            raise _over_limit(comp.name, f"the mixed perspective of {len(nodes)} branch states", d * d)
        rho = np.zeros((d, d), dtype=complex)
        for w, state in nodes.values():
            psi = _product(comp, state)
            rho += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        vals, vecs = np.linalg.eigh(rho)
        if vals[-1] < 1.0 - 1e-12:
            return qcore.DensityMatrix(layout, rho)
        vec = vecs[:, -1]
    pivot = np.argmax(np.abs(vec))
    return qcore.StateVector(layout, vec * (abs(vec[pivot]) / vec[pivot]))


def _common_knowledge(
    known: list[dict[str, Label]],
    comp: _Compiled,
    observer: str,
    given: dict[str, Label],
) -> tuple[tuple[str, Label], ...]:
    candidate_keys: set[str] = set(given)
    for ev in comp.events:
        if isinstance(ev, _CMeasure) and ev.observer == observer:
            candidate_keys.add(ev.result)
        if isinstance(ev, _CInteract) and ev.agent == observer:
            candidate_keys.add(ev.record)
    pairs: list[tuple[str, Label]] = []
    for key in sorted(candidate_keys):
        values = {outcomes.get(key) for outcomes in known}  # labels are never None
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
