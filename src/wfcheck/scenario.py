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

import re
from dataclasses import dataclass
from typing import Union

from . import qcore

Label = qcore.Label

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>{_NUM})?(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$|^(?P<only_re>{_NUM})$|^(?P<only_im>{_NUM})i$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(rf"^{_NUM}$")

LITERAL_NORM_TOL = 1e-8

KEYWORDS = {
    "scenario", "system", "agent", "observer", "prepare", "basis",
    "interact", "measure", "read", "partition",
}


class ScenarioError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Diagnostic:
    event_index: int | None
    reason: str


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


def pointer_cells(n: int, dim: int) -> tuple[str, ...]:
    """Labels of the pointer states past a writer's n outcomes in a record of dimension dim."""
    return tuple(f"cell{j}" for j in range(n, dim))


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


_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<punct>[\[\](),;])|(?P<word>[^\s\[\](),;#]+)")


def _tokenize(line: str, line_no: int) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(line):
        if line[pos] == "#":
            break
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ScenarioError(f"unreadable character {line[pos]!r}", line_no, pos + 1)
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

    def take_ident(self, what: str = "identifier") -> str:
        tok = self.take(None)
        if not _IDENT_RE.match(tok):
            self.pos -= 1
            raise self.err(f"expected {what}, found {tok!r}")
        return tok

    def take_int(self, what: str = "integer") -> int:
        tok = self.take(None)
        if not _INT_RE.match(tok):
            self.pos -= 1
            raise self.err(f"expected {what}, found {tok!r}")
        return int(tok)

    def take_float(self, what: str = "number") -> float:
        tok = self.take(None)
        if not _FLOAT_RE.match(tok):
            self.pos -= 1
            raise self.err(f"expected {what}, found {tok!r}")
        return float(tok)

    def take_complex(self) -> complex:
        tok = self.take(None)
        m = _COMPLEX_RE.match(tok)
        if m is None:
            self.pos -= 1
            raise self.err(f"expected complex literal like 0.5+0.5i, found {tok!r}")
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
# parser


class _ParseState:
    def __init__(self) -> None:
        self.name: str | None = None
        self.systems: list[tuple[str, int]] = []
        self.agents: list[AgentDecl] = []
        self.observers: list[ObserverDecl] = []
        self.bases: list[BasisDecl] = []
        self.timeline: list[Event] = []

    def known_ids(self) -> set[str]:
        out = {sid for sid, _ in self.systems}
        out |= {a.name for a in self.agents}
        out |= {o.name for o in self.observers}
        out |= {b.name for b in self.bases}
        for a in self.agents:
            out |= {record_key(a.name, r.name) for r in a.records}
        return out

    def system_dim(self, sid: str) -> int | None:
        for name, dim in self.systems:
            if name == sid:
                return dim
        return None

    def record_decl(self, agent: str, record: str) -> RecordDecl | None:
        for a in self.agents:
            if a.name == agent:
                for r in a.records:
                    if r.name == record:
                        return r
        return None

    def target_dim(self, target: str) -> int | None:
        if "." in target:
            agent, _, rec = target.partition(".")
            decl = self.record_decl(agent, rec)
            return decl.dim if decl else None
        return self.system_dim(target)


def parse(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with line/column."""
    st = _ParseState()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no)
        keyword = cur.take()
        if keyword not in KEYWORDS:
            cur.pos -= 1
            raise cur.err(f"unknown keyword {keyword!r}")
        if st.name is None and keyword != "scenario":
            raise ScenarioError("no scenario declared", line_no, tokens[0].column)
        if keyword == "scenario":
            _parse_scenario(cur, st)
        elif keyword == "system":
            _parse_system(cur, st)
        elif keyword == "agent":
            _parse_agent(cur, st)
        elif keyword == "observer":
            _parse_observer(cur, st)
        elif keyword == "basis":
            _parse_basis_decl(cur, st)
        elif keyword == "prepare":
            st.timeline.append(_parse_prepare(cur, st))
        elif keyword == "interact":
            st.timeline.append(_parse_interact(cur, st))
        elif keyword == "measure":
            st.timeline.append(_parse_measure(cur, st))
        elif keyword == "read":
            st.timeline.append(_parse_read(cur, st))
        elif keyword == "partition":
            st.timeline.append(_parse_partition(cur, st))
    if st.name is None:
        raise ScenarioError("no scenario declared", 1, 1)
    return Scenario(
        name=st.name,
        systems=tuple(st.systems),
        agents=tuple(st.agents),
        observers=tuple(st.observers),
        bases=tuple(st.bases),
        timeline=tuple(st.timeline),
    )


def _check_fresh(cur: _Cursor, st: _ParseState, name: str) -> None:
    if name in st.known_ids():
        raise cur.err(f"duplicate declaration of {name!r}")


def _parse_scenario(cur: _Cursor, st: _ParseState) -> None:
    if st.name is not None:
        raise cur.err("duplicate scenario declaration")
    st.name = cur.take_ident("scenario name")
    cur.end()


def _parse_system(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("system identifier")
    _check_fresh(cur, st, name)
    dim = cur.take_int("dimension")
    if dim < 2:
        raise cur.err(f"system dimension must be >= 2, got {dim}")
    cur.end()
    st.systems.append((name, dim))


def _parse_agent(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("agent name")
    _check_fresh(cur, st, name)
    records: list[RecordDecl] = []
    while not cur.at_end():
        cur.take("record")
        rec = cur.take_ident("record identifier")
        if any(r.name == rec for r in records):
            raise cur.err(f"duplicate declaration of {record_key(name, rec)!r}")
        dim = cur.take_int("dimension")
        if dim < 2:
            raise cur.err(f"record dimension must be >= 2, got {dim}")
        cur.take("init")
        init = cur.take_int("init index")
        if not 0 <= init < dim:
            raise cur.err(f"init index {init} out of range for dimension {dim}")
        records.append(RecordDecl(rec, dim, init))
    if not records:
        raise cur.err("an agent needs at least one record")
    st.agents.append(AgentDecl(name, tuple(records)))


def _parse_observer(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("observer name")
    _check_fresh(cur, st, name)
    cur.end()
    st.observers.append(ObserverDecl(name))


def _parse_label(cur: _Cursor) -> Label:
    tok = cur.take(None)
    if _INT_RE.match(tok):
        return int(tok)
    if _FLOAT_RE.match(tok):
        return float(tok)
    return tok


def _parse_basis_decl(cur: _Cursor, st: _ParseState) -> None:
    name = cur.take_ident("basis name")
    _check_fresh(cur, st, name)
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
    if len(labels) != len(set(labels)):  # by value, as BasisSpec compares: 1 == 1.0
        raise cur.err("basis labels must be pairwise distinct")
    if len(vectors) != dim or len(labels) != dim:
        raise cur.err(f"dimension mismatch: basis {name!r} declares dimension {dim} but has {len(vectors)} vectors and {len(labels)} labels")
    for v in vectors:
        if len(v) != dim:
            raise cur.err(f"dimension mismatch: vector of length {len(v)} in basis of dimension {dim}")
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            ip = sum(a.conjugate() * b for a, b in zip(vi, vj))
            want = 1.0 if i == j else 0.0
            if abs(ip - want) > LITERAL_NORM_TOL:
                raise cur.err(f"basis {name!r} vectors are not orthonormal (rows {i} and {j})")
    st.bases.append(BasisDecl(name, dim, tuple(labels), tuple(vectors)))


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
    if "." in tok:
        agent, _, rec = tok.partition(".")
        if st.record_decl(agent, rec) is None:
            cur.pos -= 1
            raise cur.err(f"unknown identifier {tok!r}")
        return tok
    if st.system_dim(tok) is None:
        cur.pos -= 1
        raise cur.err(f"unknown identifier {tok!r}")
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
    if tok == "ghz":
        return GhzState()
    if tok == "schmidt":
        cur.take("(")
        c0 = cur.take_float("amplitude")
        cur.take(",")
        c1 = cur.take_float("amplitude")
        cur.take(")")
        norm = c0 * c0 + c1 * c1
        if abs(norm - 1.0) > LITERAL_NORM_TOL:
            raise cur.err(f"unnormalized state literal: schmidt amplitudes square-sum to {norm!r}")
        return SchmidtState(c0, c1)
    if tok == "state":
        amps = _parse_vector(cur)
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > LITERAL_NORM_TOL:
            raise cur.err(f"unnormalized state literal: squared norm is {norm!r}")
        return RawState(amps)
    cur.pos -= 1
    raise cur.err(f"expected a state expression (ghz, schmidt(...), state [...]), found {tok!r}")


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
    if any(b.name == tok for b in st.bases):
        return NamedBasis(tok)
    cur.pos -= 1
    raise cur.err(f"unknown identifier {tok!r} (expected a basis expression)")


def _parse_prepare(cur: _Cursor, st: _ParseState) -> Prepare:
    state = _parse_state_expr(cur)
    cur.take("on")
    targets = _parse_target_list(cur, st)
    cur.end()
    if isinstance(state, RawState):
        want = 1
        for t in targets:
            dim = st.target_dim(t)
            want *= dim if dim else 1
        if len(state.amplitudes) != want:
            raise cur.err(f"dimension mismatch: {len(state.amplitudes)} amplitudes for a target space of dimension {want}")
    return Prepare(state, targets)


def _take_concurrent(cur: _Cursor) -> bool:
    if cur.peek() == "concurrent":
        cur.take("concurrent")
        return True
    return False


def _parse_interact(cur: _Cursor, st: _ParseState) -> Interact:
    agent = cur.take_ident("agent name")
    if not any(a.name == agent for a in st.agents):
        cur.pos -= 1
        raise cur.err(f"unknown identifier {agent!r}")
    cur.take("on")
    targets = _parse_target_list(cur, st)
    cur.take("basis")
    basis = _parse_basis_expr(cur, st)
    cur.take("record")
    rec = cur.take_ident("record identifier")
    if st.record_decl(agent, rec) is None:
        cur.pos -= 1
        raise cur.err(f"unknown identifier {record_key(agent, rec)!r}")
    concurrent = _take_concurrent(cur)
    cur.end()
    return Interact(agent, targets, basis, rec, concurrent)


def _parse_measure(cur: _Cursor, st: _ParseState) -> Measure:
    observer = cur.take_ident("observer name")
    if not any(o.name == observer for o in st.observers):
        cur.pos -= 1
        raise cur.err(f"unknown identifier {observer!r}")
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
    observer = cur.take_ident("observer name")
    if not any(o.name == observer for o in st.observers):
        cur.pos -= 1
        raise cur.err(f"unknown identifier {observer!r}")
    cur.take("record")
    qualified = cur.take(None)
    agent, dot, rec = qualified.partition(".")
    if not dot or st.record_decl(agent, rec) is None:
        cur.pos -= 1
        raise cur.err(f"unknown identifier {qualified!r} (expected agent.record)")
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
        return _fmt_float(label)
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


def basis_expr_dim(s: Scenario, e: BasisExpr, target_dim: int) -> int | None:
    """Dimension the expression resolves to on a target of ``target_dim``.

    Returns None when the expression cannot fit the target at all.
    """
    if isinstance(e, PresetBasis):
        if e.name == "basis1":
            return target_dim
        return 2  # basis3/basis2 are qubit bases
    if isinstance(e, LiftedBasis):
        inner_dim = basis_expr_dim(s, e.inner, 2)
        outer_dim = basis_expr_dim(s, e.outer, 2)
        if inner_dim != 2 or outer_dim != 2:
            return None
        return 4
    for b in s.bases:
        if b.name == e.name:
            return b.dim
    return None


def validate(s: Scenario) -> list[Diagnostic]:
    """Semantic diagnostics; an empty list means the scenario can run."""
    out: list[Diagnostic] = []
    system_ids = {sid for sid, _ in s.systems}
    dims: dict[str, int] = dict(s.systems)
    record_decls: dict[str, RecordDecl] = {}
    record_owner: dict[str, str] = {}
    for a in s.agents:
        for r in a.records:
            key = record_key(a.name, r.name)
            record_decls[key] = r
            record_owner[key] = a.name
            dims[key] = r.dim
    observer_names = {o.name for o in s.observers}
    agent_names = {a.name for a in s.agents}

    prepared: set[str] = set()
    touched: set[str] = set()
    written: dict[str, int] = {}  # record key -> writing event index
    bound: set[str] = set()

    def check_targets(i: int, targets: tuple[str, ...], allow_records: bool) -> None:
        for t in targets:
            if t in system_ids:
                if t not in prepared:
                    out.append(Diagnostic(i, f"unprepared target {t!r}"))
            elif t in record_decls:
                if not allow_records:
                    out.append(Diagnostic(i, f"interact target {t!r} must be a system"))
            else:
                out.append(Diagnostic(i, f"unknown identifier {t!r}"))

    def target_space_dim(targets: tuple[str, ...]) -> int:
        d = 1
        for t in targets:
            d *= dims.get(t, 1)
        return d

    def declared_labels(e: BasisExpr) -> tuple[Label, ...]:
        # only declared bases can carry string labels such as "cell2"
        if isinstance(e, NamedBasis):
            for b in s.bases:
                if b.name == e.name:
                    return b.labels
        return ()

    def check_basis(i: int, e: BasisExpr, targets: tuple[str, ...]) -> None:
        want = target_space_dim(targets)
        got = basis_expr_dim(s, e, want)
        if got is None or got != want:
            out.append(Diagnostic(i, f"basis/target mismatch: basis of dimension {got} on a target space of dimension {want}"))
        elif isinstance(e, LiftedBasis) and (len(targets) != 2 or any(dims.get(t) != 2 for t in targets)):
            out.append(Diagnostic(i, f"lifted(...) needs a (system, record) pair of dimension-2 targets, got {', '.join(targets)}"))

    for i, ev in enumerate(s.timeline):
        if isinstance(ev, Prepare):
            for t in ev.targets:
                if t in record_decls:
                    out.append(Diagnostic(i, f"prepare target {t!r} is a record; records start in their declared init state"))
                elif t not in system_ids:
                    out.append(Diagnostic(i, f"unknown identifier {t!r}"))
                elif t in prepared:
                    out.append(Diagnostic(i, f"target {t!r} prepared twice"))
                elif t in touched:
                    out.append(Diagnostic(i, f"prepare of {t!r} after it was already used"))
            if isinstance(ev.state, GhzState):
                if len(ev.targets) != 3 or any(dims.get(t) != 2 for t in ev.targets):
                    out.append(Diagnostic(i, "state/target mismatch: ghz needs three dimension-2 targets"))
            if isinstance(ev.state, SchmidtState):
                if len(ev.targets) != 2 or len({dims.get(t) for t in ev.targets}) != 1 or dims.get(ev.targets[0]) != 2:
                    out.append(Diagnostic(i, "state/target mismatch: schmidt(c0, c1) needs two dimension-2 targets"))
            prepared.update(t for t in ev.targets if t in system_ids)
        elif isinstance(ev, Interact):
            if ev.agent not in agent_names:
                out.append(Diagnostic(i, f"unknown agent {ev.agent!r}"))
            check_targets(i, ev.targets, allow_records=False)
            check_basis(i, ev.basis, ev.targets)
            key = record_key(ev.agent, ev.record)
            decl = record_decls.get(key)
            if decl is None:
                out.append(Diagnostic(i, f"unknown record {key!r}"))
            else:
                if key in written:
                    out.append(Diagnostic(i, f"record {key!r} written twice"))
                need = target_space_dim(ev.targets)
                if decl.dim < need:
                    out.append(Diagnostic(i, f"record too small: {key!r} has dimension {decl.dim} for {need} outcomes"))
                labels = declared_labels(ev.basis)
                cells = pointer_cells(len(labels), decl.dim)
                for label in labels:
                    if label in cells:
                        out.append(Diagnostic(i, f"basis label {label!r} collides with a pointer cell name of record {key!r}"))
            written.setdefault(key, i)
            touched.update(ev.targets)
            touched.add(key)
        elif isinstance(ev, Measure):
            if ev.observer not in observer_names:
                out.append(Diagnostic(i, f"unknown observer {ev.observer!r}"))
            check_targets(i, ev.targets, allow_records=True)
            check_basis(i, ev.basis, ev.targets)
            if ev.result in bound:
                out.append(Diagnostic(i, f"result name {ev.result!r} bound twice"))
            bound.add(ev.result)
            touched.update(ev.targets)
        elif isinstance(ev, ReadRecord):
            if ev.observer not in observer_names:
                out.append(Diagnostic(i, f"unknown observer {ev.observer!r}"))
            key = record_key(ev.agent, ev.record)
            if key not in record_decls:
                out.append(Diagnostic(i, f"unknown record {key!r}"))
            elif key not in written:
                out.append(Diagnostic(i, f"record never written: {key!r}"))
            if ev.basis is not None and key in record_decls:
                check_basis(i, ev.basis, (key,))
            if ev.result in bound:
                out.append(Diagnostic(i, f"result name {ev.result!r} bound twice"))
            bound.add(ev.result)
            touched.add(key)
        elif isinstance(ev, DeclarePartition):
            seen: set[str] = set()
            for g in ev.groups:
                for member in g:
                    if member not in agent_names:
                        out.append(Diagnostic(i, f"unknown agent in partition group: {member!r}"))
                    if member in seen:
                        out.append(Diagnostic(i, f"partition groups overlap on {member!r}"))
                    seen.add(member)
        if getattr(ev, "concurrent", False):
            if i == 0 or not isinstance(s.timeline[i - 1], (Interact, Measure, ReadRecord)):
                out.append(Diagnostic(i, "concurrent without a preceding measurement event"))
    return out
