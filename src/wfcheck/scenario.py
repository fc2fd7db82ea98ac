"""Line-oriented description language for observer/record measurement scenarios.

A scenario file declares named systems, agents (each owning one or more
record subsystems), outside observers, and an ordered timeline of events:

    scenario epr
    system S1 2
    system S2 2
    agent alice record A 2 init 0
    observer bob
    prepare schmidt(0.5477225575051661, 0.8366600265340756) on S1, S2
    interact alice on S1 basis basis1 record A
    measure bob on S2 basis basis1 result rb

One statement per line; ``#`` starts a comment.  Identifiers must be
declared before they are referenced.  Complex amplitudes are written
``a+bi`` with decimal reals.  Record subsystems are referenced by their
qualified name, ``agent.record``.

State expressions: ``ghz`` (three-qubit equal superposition of the all-0
and all-1 strings), ``schmidt(c0, c1)`` (sum of c_l |l>|l> over a pair),
or a raw amplitude list ``state [a+bi, ...]``.

Basis expressions: ``basis1`` (computational, integer labels), ``basis3``
(the +-i superposition of basis1, labels +1/-1), ``basis2`` (the +-i
superposition of basis3), ``lifted(outer, inner)`` (the image of ``outer``
on a system-record pair written by an interaction in ``inner``), or the
name of a ``basis`` declaration carrying raw vectors.

``parse`` builds the syntax tree, ``dumps`` renders the canonical text
form (``parse(dumps(s)) == s``), and ``validate`` returns semantic
diagnostics without raising.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import NoReturn, Union

from . import qcore

Label = qcore.Label

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>{_NUM})?(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$|^(?P<only_re>{_NUM})$|^(?P<only_im>{_NUM})i$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(rf"^{_NUM}$")

BUNDLED_SCENARIOS = ("epr", "cpl", "ghz")

class ScenarioError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Diagnostic:
    event_index: int | None  # None for a declaration
    reason: str

    def __str__(self) -> str:
        return self.reason if self.event_index is None else f"event {self.event_index}: {self.reason}"


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class RecordDecl:
    name: str
    dim: int
    init: int


@dataclass(frozen=True)
class AgentDecl:
    name: str
    records: tuple[RecordDecl, ...]


@dataclass(frozen=True)
class ObserverDecl:
    name: str


@dataclass(frozen=True)
class BasisDecl:
    name: str
    dim: int
    labels: tuple[Label, ...]
    vectors: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class GhzState:
    pass


@dataclass(frozen=True)
class SchmidtState:
    c0: float
    c1: float


@dataclass(frozen=True)
class RawState:
    amplitudes: tuple[complex, ...]


StateExpr = Union[GhzState, SchmidtState, RawState]


@dataclass(frozen=True)
class PresetBasis:
    name: str  # basis1 | basis3 | basis2


@dataclass(frozen=True)
class LiftedBasis:
    outer: "BasisExpr"
    inner: "BasisExpr"


@dataclass(frozen=True)
class NamedBasis:
    name: str


BasisExpr = Union[PresetBasis, LiftedBasis, NamedBasis]


@dataclass(frozen=True)
class Prepare:
    state: StateExpr
    targets: tuple[str, ...]


@dataclass(frozen=True)
class Interact:
    agent: str
    targets: tuple[str, ...]
    basis: BasisExpr
    record: str
    concurrent: bool = False


@dataclass(frozen=True)
class Measure:
    observer: str
    targets: tuple[str, ...]
    basis: BasisExpr
    result: str
    concurrent: bool = False


@dataclass(frozen=True)
class ReadRecord:
    observer: str
    agent: str
    record: str
    basis: BasisExpr | None
    result: str
    concurrent: bool = False


@dataclass(frozen=True)
class DeclarePartition:
    name: str
    groups: tuple[tuple[str, ...], ...]


Event = Union[Prepare, Interact, Measure, ReadRecord, DeclarePartition]


@dataclass(frozen=True)
class Scenario:
    name: str
    systems: tuple[tuple[str, int], ...]
    agents: tuple[AgentDecl, ...]
    observers: tuple[ObserverDecl, ...]
    bases: tuple[BasisDecl, ...]
    timeline: tuple[Event, ...]


def record_key(agent: str, record: str) -> str:
    return f"{agent}.{record}"


def bundled_scenario_text(name: str) -> str:
    """Source text of a bundled scenario file ("epr", "cpl", or "ghz")."""
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"unknown bundled scenario {name!r}; choose from {BUNDLED_SCENARIOS}")
    return resources.files(__package__).joinpath("scenarios", f"{name}.wfs").read_text(encoding="utf-8")


def pointer_cells(n: int, dim: int) -> tuple[str, ...]:
    """Labels of the pointer states past a writer's n outcomes in a record of dimension dim."""
    return tuple(f"cell{j}" for j in range(n, dim))


_CELL_RE = re.compile(r"cell(0|[1-9][0-9]*)")  # a pointer_cells label and its index


def _declaration_problem(kind: str, dim: int, init: int = 0) -> str | None:
    """Why the kernel would reject a system or record of dimension ``dim``
    (a record starting in pointer state ``init``), or None."""
    if dim < 2:
        return f"{kind} dimension must be >= 2, got {dim}"
    if not 0 <= init < dim:
        return f"init index {init} out of range for dimension {dim}"
    return None


def _or_inf(compute) -> float:
    """``compute()``, or inf where a float in it overflows."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def _state_literal_problem(state: StateExpr, target_dim: int | None = None) -> str | None:
    """Why the kernel would reject a state literal (its norm, or a raw list's
    length on a target space of ``target_dim``), or None."""
    if isinstance(state, SchmidtState):
        norm = state.c0 * state.c0 + state.c1 * state.c1
        if not abs(norm - 1.0) <= qcore.DEFAULT_ATOL:
            return f"unnormalized state literal: schmidt amplitudes square-sum to {norm!r}"
    elif isinstance(state, RawState):
        norm = _or_inf(lambda: sum(abs(a) ** 2 for a in state.amplitudes))
        if not abs(norm - 1.0) <= qcore.DEFAULT_ATOL:
            return f"unnormalized state literal: squared norm is {norm!r}"
        if target_dim is not None and len(state.amplitudes) != target_dim:
            return f"dimension mismatch: {len(state.amplitudes)} amplitudes for a target space of dimension {target_dim}"
    return None


def _label_problem(b: BasisDecl) -> str | None:
    """Why a declared basis's labels cannot be reported, or None: JSON has no
    infinite or NaN number."""
    for label in b.labels:
        if isinstance(label, float) and not math.isfinite(label):
            return f"basis {b.name!r} has a non-finite label {label!r}"
    return None


def _basis_decl_problem(b: BasisDecl) -> str | None:
    """Why the kernel would reject a declared basis, or None."""
    if len(b.labels) != len(set(b.labels)):  # by value, as BasisSpec compares: 1 == 1.0
        return "basis labels must be pairwise distinct"
    if len(b.vectors) != b.dim or len(b.labels) != b.dim:
        return (f"dimension mismatch: basis {b.name!r} declares dimension {b.dim} "
                f"but has {len(b.vectors)} vectors and {len(b.labels)} labels")
    for v in b.vectors:
        if len(v) != b.dim:
            return f"dimension mismatch: vector of length {len(v)} in basis of dimension {b.dim}"
    for i, vi in enumerate(b.vectors):
        for j, vj in enumerate(b.vectors):
            ip = sum(x.conjugate() * y for x, y in zip(vi, vj))
            if not _or_inf(lambda: abs(ip - (1.0 if i == j else 0.0))) <= qcore.DEFAULT_ATOL:
                return f"basis {b.name!r} vectors are not orthonormal (rows {i} and {j})"
    return None


def layout_of(s: Scenario) -> qcore.SpaceLayout:
    """Tensor layout: systems in declaration order, then records per agent."""
    subs = list(s.systems)
    for a in s.agents:
        for r in a.records:
            subs.append((record_key(a.name, r.name), r.dim))
    return qcore.SpaceLayout(tuple(subs))


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    text: str
    column: int


# the three groups together match at every position that does not hold "#"
_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<punct>[\[\](),;])|(?P<word>[^\s\[\](),;#]+)")


def _tokenize(line: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(line):
        if line[pos] == "#":
            break
        m = _TOKEN_RE.match(line, pos)
        if m.lastgroup != "space":
            out.append(_Token(m.group(m.lastgroup), pos + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int) -> None:
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def err(self, message: str) -> ScenarioError:
        col = self.tokens[self.pos].column if self.pos < len(self.tokens) else (
            self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
        )
        return ScenarioError(message, self.line_no, col)

    def reject(self, message: str) -> NoReturn:
        """Raise ``message`` at the token just taken."""
        self.pos -= 1
        raise self.err(message)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if not self.at_end() else None

    def take(self, expected: str | None = None) -> str:
        if self.at_end():
            raise self.err(f"expected {expected!r}, found end of line" if expected else "unexpected end of line")
        tok = self.tokens[self.pos].text
        if expected is not None and tok != expected:
            raise self.err(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def take_match(self, pattern: re.Pattern, what: str) -> re.Match:
        tok = self.take(None)
        m = pattern.match(tok)
        if m is None:
            self.reject(f"expected {what}, found {tok!r}")
        return m

    def take_ident(self, what: str = "identifier") -> str:
        return self.take_match(_IDENT_RE, what).group()

    def take_int(self, what: str = "integer") -> int:
        return self.int_value(self.take_match(_INT_RE, what).group())

    def int_value(self, tok: str) -> int:
        """The integer token just taken; Python refuses to convert one of
        more than ``sys.get_int_max_str_digits()`` digits (4300 by default)."""
        try:
            return int(tok)
        except ValueError:
            self.reject(f"integer of {len(tok.lstrip('+-'))} digits is too long")

    def take_float(self, what: str = "number") -> float:
        return float(self.take_match(_FLOAT_RE, what).group())

    def take_complex(self) -> complex:
        m = self.take_match(_COMPLEX_RE, "complex literal like 0.5+0.5i")
        if m.group("only_re") is not None:
            return complex(float(m.group("only_re")), 0.0)
        if m.group("only_im") is not None:
            return complex(0.0, float(m.group("only_im")))
        re_part = float(m.group("re")) if m.group("re") else 0.0
        return complex(re_part, float(m.group("im")))

    def end(self) -> None:
        if not self.at_end():
            raise self.err(f"unexpected trailing token {self.peek()!r}")


# ---------------------------------------------------------------------------
# declarations


class _Names:
    """A scenario's declarations by name: systems and records (by record
    key) with their dimensions, agents, observers and bases, plus the set of
    every declared name.  The parser fills it line by line; ``validate``
    builds it from a :class:`Scenario`."""

    def __init__(self) -> None:
        self.systems: dict[str, int] = {}
        self.records: dict[str, RecordDecl] = {}
        self.agents: dict[str, AgentDecl] = {}
        self.observers: dict[str, ObserverDecl] = {}
        self.bases: dict[str, BasisDecl] = {}
        self.declared: set[str] = set()

    def claim(self, name: str) -> str | None:
        """Declare ``name``; why it cannot be, if it is already declared."""
        if name in self.declared:
            return f"duplicate declaration of {name!r}"
        self.declared.add(name)
        return None

    def dim(self, target: str) -> int | None:
        """Dimension of a declared system or record key, or None."""
        if target in self.systems:
            return self.systems[target]
        decl = self.records.get(target)
        return None if decl is None else decl.dim


# ---------------------------------------------------------------------------
# parser


class _ParseState(_Names):
    def __init__(self) -> None:
        super().__init__()
        self.name: str | None = None
        self.timeline: list[Event] = []


def parse(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with line/column."""
    st = _ParseState()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no)
        keyword = cur.take()
        statement = _STATEMENTS.get(keyword)
        if statement is None:
            cur.reject(f"unknown keyword {keyword!r}")
        if st.name is None and keyword != "scenario":
            raise ScenarioError("no scenario declared", line_no, tokens[0].column)
        event = statement(cur, st)
        if event is not None:
            st.timeline.append(event)
    if st.name is None:
        raise ScenarioError("no scenario declared", 1, 1)
    return Scenario(
        name=st.name,
        systems=tuple(st.systems.items()),
        agents=tuple(st.agents.values()),
        observers=tuple(st.observers.values()),
        bases=tuple(st.bases.values()),
        timeline=tuple(st.timeline),
    )


def _claim(cur: _Cursor, st: _ParseState, name: str) -> None:
    if problem := st.claim(name):
        raise cur.err(problem)


def _parse_scenario(cur: _Cursor, st: _ParseState) -> None:
    if st.name is not None:
        raise cur.err("duplicate scenario declaration")
    st.name = cur.take_ident("scenario name")
    cur.end()


def _parse_system(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("system identifier")
    _claim(cur, st, name)
    dim = cur.take_int("dimension")
    if problem := _declaration_problem("system", dim):
        raise cur.err(problem)
    cur.end()
    st.systems[name] = dim


def _parse_agent(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("agent name")
    _claim(cur, st, name)
    records: list[RecordDecl] = []
    while not cur.at_end():
        cur.take("record")
        rec = cur.take_ident("record identifier")
        key = record_key(name, rec)
        _claim(cur, st, key)
        dim = cur.take_int("dimension")
        if problem := _declaration_problem("record", dim):
            raise cur.err(problem)
        cur.take("init")
        init = cur.take_int("init index")
        if problem := _declaration_problem("record", dim, init):
            raise cur.err(problem)
        st.records[key] = decl = RecordDecl(rec, dim, init)
        records.append(decl)
    if not records:
        raise cur.err("an agent needs at least one record")
    st.agents[name] = AgentDecl(name, tuple(records))


def _parse_observer(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("observer name")
    _claim(cur, st, name)
    cur.end()
    st.observers[name] = ObserverDecl(name)


def _parse_label(cur: _Cursor) -> Label:
    tok = cur.take(None)
    if _INT_RE.match(tok):
        return cur.int_value(tok)
    if _FLOAT_RE.match(tok):
        return float(tok)
    return tok


def _parse_basis_decl(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("basis name")
    _claim(cur, st, name)
    if name in ("basis1", "basis2", "basis3", "lifted"):
        raise cur.err(f"basis name {name!r} collides with a built-in form")
    cur.take("on")
    dim = cur.take_int("dimension")
    cur.take("labels")
    labels = [_parse_label(cur)]
    while cur.peek() == ",":
        cur.take(",")
        labels.append(_parse_label(cur))
    cur.take("vectors")
    vectors: list[tuple[complex, ...]] = [_parse_vector(cur)]
    while cur.peek() == ";":
        cur.take(";")
        vectors.append(_parse_vector(cur))
    cur.end()
    decl = BasisDecl(name, dim, tuple(labels), tuple(vectors))
    if problem := _basis_decl_problem(decl):
        raise cur.err(problem)
    st.bases[name] = decl


def _parse_vector(cur: _Cursor) -> tuple[complex, ...]:
    cur.take("[")
    entries = [cur.take_complex()]
    while cur.peek() == ",":
        cur.take(",")
        entries.append(cur.take_complex())
    cur.take("]")
    return tuple(entries)


def _parse_target_name(cur: _Cursor, st: _ParseState) -> str:
    tok = cur.take(None)
    if st.dim(tok) is None:
        cur.reject(f"unknown identifier {tok!r}")
    return tok


def _parse_target_list(cur: _Cursor, st: _ParseState) -> tuple[str, ...]:
    targets = [_parse_target_name(cur, st)]
    while cur.peek() == ",":
        cur.take(",")
        targets.append(_parse_target_name(cur, st))
    if len(targets) != len(set(targets)):
        raise cur.err("repeated target")
    return tuple(targets)


def _parse_state_expr(cur: _Cursor) -> StateExpr:
    tok = cur.take(None)
    state: StateExpr
    if tok == "ghz":
        return GhzState()
    if tok == "schmidt":
        cur.take("(")
        c0 = cur.take_float("amplitude")
        cur.take(",")
        c1 = cur.take_float("amplitude")
        cur.take(")")
        state = SchmidtState(c0, c1)
    elif tok == "state":
        state = RawState(_parse_vector(cur))
    else:
        cur.reject(f"expected a state expression (ghz, schmidt(...), state [...]), found {tok!r}")
    if problem := _state_literal_problem(state):
        raise cur.err(problem)
    return state


def _parse_basis_expr(cur: _Cursor, st: _ParseState) -> BasisExpr:
    tok = cur.take(None)
    if tok in ("basis1", "basis2", "basis3"):
        return PresetBasis(tok)
    if tok == "lifted":
        cur.take("(")
        outer = _parse_basis_expr(cur, st)
        cur.take(",")
        inner = _parse_basis_expr(cur, st)
        cur.take(")")
        return LiftedBasis(outer, inner)
    if tok not in st.bases:
        cur.reject(f"unknown identifier {tok!r} (expected a basis expression)")
    return NamedBasis(tok)


def _parse_prepare(cur: _Cursor, st: _ParseState) -> Prepare:
    state = _parse_state_expr(cur)
    cur.take("on")
    targets = _parse_target_list(cur, st)
    cur.end()
    if problem := _state_literal_problem(state, math.prod(st.dim(t) for t in targets)):
        raise cur.err(problem)
    return Prepare(state, targets)


def _take_concurrent(cur: _Cursor) -> bool:
    if cur.peek() == "concurrent":
        cur.take("concurrent")
        return True
    return False


def _take_declared(cur: _Cursor, table: dict, what: str) -> str:
    name = cur.take_ident(what)
    if name not in table:
        cur.reject(f"unknown identifier {name!r}")
    return name


def _parse_interact(cur: _Cursor, st: _ParseState) -> Interact:
    agent = _take_declared(cur, st.agents, "agent name")
    cur.take("on")
    targets = _parse_target_list(cur, st)
    cur.take("basis")
    basis = _parse_basis_expr(cur, st)
    cur.take("record")
    rec = cur.take_ident("record identifier")
    if record_key(agent, rec) not in st.records:
        cur.reject(f"unknown identifier {record_key(agent, rec)!r}")
    concurrent = _take_concurrent(cur)
    cur.end()
    return Interact(agent, targets, basis, rec, concurrent)


def _parse_measure(cur: _Cursor, st: _ParseState) -> Measure:
    observer = _take_declared(cur, st.observers, "observer name")
    cur.take("on")
    targets = _parse_target_list(cur, st)
    cur.take("basis")
    basis = _parse_basis_expr(cur, st)
    cur.take("result")
    result = cur.take_ident("result name")
    concurrent = _take_concurrent(cur)
    cur.end()
    return Measure(observer, targets, basis, result, concurrent)


def _parse_read(cur: _Cursor, st: _ParseState) -> ReadRecord:
    observer = _take_declared(cur, st.observers, "observer name")
    cur.take("record")
    qualified = cur.take(None)
    if qualified not in st.records:
        cur.reject(f"unknown identifier {qualified!r} (expected agent.record)")
    agent, _, rec = qualified.partition(".")
    basis: BasisExpr | None = None
    if cur.peek() == "basis":
        cur.take("basis")
        basis = _parse_basis_expr(cur, st)
    cur.take("result")
    result = cur.take_ident("result name")
    concurrent = _take_concurrent(cur)
    cur.end()
    return ReadRecord(observer, agent, rec, basis, result, concurrent)


def _parse_partition(cur: _Cursor, st: _ParseState) -> DeclarePartition:
    name = cur.take_ident("partition name")
    groups: list[tuple[str, ...]] = []
    while cur.peek() == "group":
        cur.take("group")
        members = [cur.take_ident("agent name")]
        while cur.peek() == ",":
            cur.take(",")
            members.append(cur.take_ident("agent name"))
        groups.append(tuple(members))
    cur.end()
    if not groups:
        raise cur.err("partition needs at least one group")
    return DeclarePartition(name, tuple(groups))


# statement keyword -> its parser; an event parser returns the event
_STATEMENTS = {
    "scenario": _parse_scenario,
    "system": _parse_system,
    "agent": _parse_agent,
    "observer": _parse_observer,
    "basis": _parse_basis_decl,
    "prepare": _parse_prepare,
    "interact": _parse_interact,
    "measure": _parse_measure,
    "read": _parse_read,
    "partition": _parse_partition,
}


# ---------------------------------------------------------------------------
# canonical printer


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    re_part = _fmt_float(z.real)
    im = z.imag
    sign = "-" if im < 0 or (im == 0 and str(im)[0] == "-") else "+"
    return f"{re_part}{sign}{_fmt_float(abs(im))}i"


def _fmt_label(label: Label) -> str:
    if isinstance(label, bool):
        raise TypeError("boolean labels are not supported")
    if isinstance(label, int):
        return str(label)
    if isinstance(label, float):
        # the grammar has no inf literal; 1e999 overflows to inf
        return _fmt_float(label) if math.isfinite(label) else ("-1e999" if label < 0 else "1e999")
    return label


def _fmt_vector(v: tuple[complex, ...]) -> str:
    return "[" + ", ".join(_fmt_complex(z) for z in v) + "]"


def _fmt_state(e: StateExpr) -> str:
    if isinstance(e, GhzState):
        return "ghz"
    if isinstance(e, SchmidtState):
        return f"schmidt({_fmt_float(e.c0)}, {_fmt_float(e.c1)})"
    return "state " + _fmt_vector(e.amplitudes)


def _fmt_basis(e: BasisExpr) -> str:
    if isinstance(e, PresetBasis):
        return e.name
    if isinstance(e, LiftedBasis):
        return f"lifted({_fmt_basis(e.outer)}, {_fmt_basis(e.inner)})"
    return e.name


def dumps(s: Scenario) -> str:
    """Canonical text form: declarations grouped, events in timeline order."""
    lines = [f"scenario {s.name}"]
    for name, dim in s.systems:
        lines.append(f"system {name} {dim}")
    for a in s.agents:
        clauses = " ".join(f"record {r.name} {r.dim} init {r.init}" for r in a.records)
        lines.append(f"agent {a.name} {clauses}")
    for o in s.observers:
        lines.append(f"observer {o.name}")
    for b in s.bases:
        labels = ", ".join(_fmt_label(l) for l in b.labels)
        vectors = " ; ".join(_fmt_vector(v) for v in b.vectors)
        lines.append(f"basis {b.name} on {b.dim} labels {labels} vectors {vectors}")
    for ev in s.timeline:
        lines.append(_fmt_event(ev))
    return "\n".join(lines) + "\n"


def _fmt_event(ev: Event) -> str:
    tail = " concurrent" if getattr(ev, "concurrent", False) else ""
    if isinstance(ev, Prepare):
        return f"prepare {_fmt_state(ev.state)} on {', '.join(ev.targets)}"
    if isinstance(ev, Interact):
        return f"interact {ev.agent} on {', '.join(ev.targets)} basis {_fmt_basis(ev.basis)} record {ev.record}{tail}"
    if isinstance(ev, Measure):
        return f"measure {ev.observer} on {', '.join(ev.targets)} basis {_fmt_basis(ev.basis)} result {ev.result}{tail}"
    if isinstance(ev, ReadRecord):
        b = f" basis {_fmt_basis(ev.basis)}" if ev.basis is not None else ""
        return f"read {ev.observer} record {record_key(ev.agent, ev.record)}{b} result {ev.result}{tail}"
    groups = " ".join("group " + ", ".join(g) for g in ev.groups)
    return f"partition {ev.name} {groups}"


# ---------------------------------------------------------------------------
# semantic validation


def _basis_dim(bases: dict[str, BasisDecl], e: BasisExpr, target_dim: int) -> int | None:
    """Dimension the expression resolves to on a target of ``target_dim``.

    Returns None when the expression cannot fit the target at all.
    """
    if isinstance(e, PresetBasis):
        if e.name == "basis1":
            return target_dim
        return 2  # basis3/basis2 are qubit bases
    if isinstance(e, LiftedBasis):
        inner_dim = _basis_dim(bases, e.inner, 2)
        outer_dim = _basis_dim(bases, e.outer, 2)
        if inner_dim != 2 or outer_dim != 2:
            return None
        return 4
    b = bases.get(e.name)
    return None if b is None else b.dim


def _declared_names(e: BasisExpr) -> tuple[str, ...]:
    if isinstance(e, LiftedBasis):
        return _declared_names(e.outer) + _declared_names(e.inner)
    return (e.name,) if isinstance(e, NamedBasis) else ()


def validate(s: Scenario) -> list[Diagnostic]:
    """Semantic diagnostics; an empty list means the scenario can run."""
    out: list[Diagnostic] = []
    names = _Names()

    def declare(table: dict, name: str, decl, problem: str | None = None) -> None:
        # the first of two declarations of one name is the one looked up
        if duplicate := names.claim(name):
            out.append(Diagnostic(None, duplicate))
        table.setdefault(name, decl)
        if problem:
            out.append(Diagnostic(None, f"declaration of {name!r}: {problem}"))

    for sid, dim in s.systems:
        declare(names.systems, sid, dim, _declaration_problem("system", dim))
    for a in s.agents:
        declare(names.agents, a.name, a)
        for r in a.records:
            declare(names.records, record_key(a.name, r.name), r, _declaration_problem("record", r.dim, r.init))
    for o in s.observers:
        declare(names.observers, o.name, o)
    for b in s.bases:
        declare(names.bases, b.name, b)
    # reported where a basis is used; an unused declaration never reaches the kernel or a report
    bad_bases = {
        name: problem for name, b in names.bases.items() if (problem := _basis_decl_problem(b) or _label_problem(b))
    }

    prepared: set[str] = set()
    touched: set[str] = set()
    written: dict[str, int] = {}  # record key -> writing event index
    bound: set[str] = set()

    def check_targets(i: int, targets: tuple[str, ...], allow_records: bool) -> None:
        for t in targets:
            if t in names.systems:
                if t not in prepared:
                    out.append(Diagnostic(i, f"unprepared target {t!r}"))
            elif t in names.records:
                if not allow_records:
                    out.append(Diagnostic(i, f"interact target {t!r} must be a system"))
            else:
                out.append(Diagnostic(i, f"unknown identifier {t!r}"))

    def target_space_dim(targets: tuple[str, ...]) -> int:
        return math.prod(d for t in targets if (d := names.dim(t)) is not None)

    def check_basis(i: int, e: BasisExpr, targets: tuple[str, ...]) -> None:
        for name in dict.fromkeys(_declared_names(e)):
            if name in bad_bases:
                out.append(Diagnostic(i, bad_bases[name]))
        want = target_space_dim(targets)
        got = _basis_dim(names.bases, e, want)
        if got is None or got != want:
            out.append(Diagnostic(i, f"basis/target mismatch: basis of dimension {got} on a target space of dimension {want}"))
        elif isinstance(e, LiftedBasis) and (len(targets) != 2 or any(names.dim(t) != 2 for t in targets)):
            out.append(Diagnostic(i, f"lifted(...) needs a (system, record) pair of dimension-2 targets, got {', '.join(targets)}"))

    for i, ev in enumerate(s.timeline):
        targets = getattr(ev, "targets", ())
        if len(set(targets)) != len(targets):
            out.append(Diagnostic(i, "repeated target"))
        if isinstance(ev, Prepare):
            for t in ev.targets:
                if t in names.records:
                    out.append(Diagnostic(i, f"prepare target {t!r} is a record; records start in their declared init state"))
                elif t not in names.systems:
                    out.append(Diagnostic(i, f"unknown identifier {t!r}"))
                elif t in prepared:
                    out.append(Diagnostic(i, f"target {t!r} prepared twice"))
                elif t in touched:
                    out.append(Diagnostic(i, f"prepare of {t!r} after it was already used"))
            if isinstance(ev.state, GhzState):
                if len(ev.targets) != 3 or any(names.dim(t) != 2 for t in ev.targets):
                    out.append(Diagnostic(i, "state/target mismatch: ghz needs three dimension-2 targets"))
            if isinstance(ev.state, SchmidtState):
                if len(ev.targets) != 2 or any(names.dim(t) != 2 for t in ev.targets):
                    out.append(Diagnostic(i, "state/target mismatch: schmidt(c0, c1) needs two dimension-2 targets"))
            if problem := _state_literal_problem(ev.state, target_space_dim(ev.targets)):
                out.append(Diagnostic(i, problem))
            prepared.update(t for t in ev.targets if t in names.systems)
        elif isinstance(ev, Interact):
            if ev.agent not in names.agents:
                out.append(Diagnostic(i, f"unknown agent {ev.agent!r}"))
            check_targets(i, ev.targets, allow_records=False)
            check_basis(i, ev.basis, ev.targets)
            key = record_key(ev.agent, ev.record)
            decl = names.records.get(key)
            if decl is None:
                out.append(Diagnostic(i, f"unknown record {key!r}"))
            else:
                if key in written:
                    out.append(Diagnostic(i, f"record {key!r} written twice"))
                need = target_space_dim(ev.targets)
                if decl.dim < need:
                    out.append(Diagnostic(i, f"record too small: {key!r} has dimension {decl.dim} for {need} outcomes"))
                # only declared bases can carry string labels such as "cell2";
                # matched by index, as a record's dimension bounds no loop here
                declared = names.bases.get(ev.basis.name) if isinstance(ev.basis, NamedBasis) else None
                labels = () if declared is None else declared.labels
                for label in labels:
                    cell = _CELL_RE.fullmatch(label) if isinstance(label, str) else None
                    # an index with more digits than the dimension is out of
                    # range, and int() refuses very long digit strings
                    if cell and len(cell[1]) <= len(str(decl.dim)) and len(labels) <= int(cell[1]) < decl.dim:
                        out.append(Diagnostic(i, f"basis label {label!r} collides with a pointer cell name of record {key!r}"))
            written.setdefault(key, i)
            touched.update(ev.targets)
            touched.add(key)
        elif isinstance(ev, Measure):
            if ev.observer not in names.observers:
                out.append(Diagnostic(i, f"unknown observer {ev.observer!r}"))
            check_targets(i, ev.targets, allow_records=True)
            check_basis(i, ev.basis, ev.targets)
            if ev.result in bound:
                out.append(Diagnostic(i, f"result name {ev.result!r} bound twice"))
            bound.add(ev.result)
            touched.update(ev.targets)
        elif isinstance(ev, ReadRecord):
            if ev.observer not in names.observers:
                out.append(Diagnostic(i, f"unknown observer {ev.observer!r}"))
            key = record_key(ev.agent, ev.record)
            if key not in names.records:
                out.append(Diagnostic(i, f"unknown record {key!r}"))
            elif key not in written:
                out.append(Diagnostic(i, f"record never written: {key!r}"))
            if ev.basis is not None and key in names.records:
                check_basis(i, ev.basis, (key,))
            if ev.result in bound:
                out.append(Diagnostic(i, f"result name {ev.result!r} bound twice"))
            bound.add(ev.result)
            touched.add(key)
        elif isinstance(ev, DeclarePartition):
            seen: set[str] = set()
            for g in ev.groups:
                for member in g:
                    if member not in names.agents:
                        out.append(Diagnostic(i, f"unknown agent in partition group: {member!r}"))
                    if member in seen:
                        out.append(Diagnostic(i, f"partition groups overlap on {member!r}"))
                    seen.add(member)
        if getattr(ev, "concurrent", False):
            if i == 0 or not isinstance(s.timeline[i - 1], (Interact, Measure, ReadRecord)):
                out.append(Diagnostic(i, "concurrent without a preceding measurement event"))
    return out
