"""Scenario language: parse/print round trips, errors, semantic diagnostics."""

import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcheck import scenario as sc

EPR_TEXT = """
# correlated pair, one inside observer and one outside
scenario epr
system S1 2
system S2 2
agent alice record A 2 init 0
observer bob
prepare schmidt(0.5477225575051661, 0.8366600265340756) on S1, S2
interact alice on S1 basis basis1 record A
measure bob on S2 basis basis1 result rb
partition joint group alice
"""

GHZ_TEXT = """
scenario ghz
system S1 2
system S2 2
system S3 2
agent alice record A1 2 init 0 record A2 2 init 0 record A3 2 init 0
observer wigner
prepare ghz on S1, S2, S3
interact alice on S1 basis basis3 record A1
interact alice on S2 basis basis3 record A2
interact alice on S3 basis basis3 record A3
measure wigner on S1, alice.A1 basis lifted(basis2, basis3) result b1
measure wigner on S2, alice.A2 basis lifted(basis2, basis3) result b2 concurrent
measure wigner on S3, alice.A3 basis lifted(basis2, basis3) result b3 concurrent
"""


def test_round_trip_epr():
    s = sc.parse(EPR_TEXT)
    text = sc.dumps(s)
    again = sc.parse(text)
    assert again == s
    assert sc.dumps(again) == text


def test_round_trip_ghz_with_all_constructs():
    s = sc.parse(GHZ_TEXT)
    assert sc.parse(sc.dumps(s)) == s
    m = s.timeline[4]
    assert isinstance(m, sc.Measure)
    assert m.basis == sc.LiftedBasis(sc.PresetBasis("basis2"), sc.PresetBasis("basis3"))
    assert not m.concurrent and s.timeline[5].concurrent and s.timeline[6].concurrent


def test_canonical_print_golden():
    text = """scenario tiny
system S 4
agent a record R 4 init 0
observer o
prepare state [0.5+0i, 0+0.5i, -0.5+0i, 0-0.5i] on S
interact a on S basis basis1 record R
read o record a.R result r
"""
    s = sc.parse(text)
    assert sc.dumps(s) == text


def test_complex_literal_forms():
    # frozen hand-computed values for each accepted literal shape
    table = {
        "1": 1 + 0j,
        "0.5i": 0.5j,
        "-0.5-0.5i": complex(-0.5, -0.5),
        "1e-1+2.5i": complex(0.1, 2.5),
        "1+0i": 1 + 0j,
        "-1i": -1j,
        ".5+.5i": complex(0.5, 0.5),
    }
    for lit, want in table.items():
        pad = math.sqrt(max(0.0, 1.0 - abs(want) ** 2))
        if abs(want) > 1:
            continue
        text = f"scenario t\nsystem S 2\nprepare state [{lit}, {pad}] on S\n"
        if abs(abs(want) ** 2 + pad * pad - 1) > 1e-12:
            continue
        s = sc.parse(text)
        assert s.timeline[0].state.amplitudes[0] == want, lit


def test_bare_literal_forms_direct():
    cur = sc._Cursor(sc._tokenize("0.25-0.75i"), 1)
    assert cur.take_complex() == complex(0.25, -0.75)
    cur = sc._Cursor(sc._tokenize("3e-2"), 1)
    assert cur.take_complex() == complex(0.03, 0.0)
    cur = sc._Cursor(sc._tokenize("nope"), 1)
    with pytest.raises(sc.ScenarioError):
        cur.take_complex()


def test_every_character_but_hash_tokenizes():
    # the token groups match at every position without "#", so the tokenizer
    # has no unreadable character; each non-space token is kept verbatim
    line = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c) != "#")
    tokens = sc._tokenize(line)
    assert "".join(tok.text for tok in tokens) == re.sub(r"\s+", "", line)


def test_float_print_round_trips_exactly():
    s = sc.parse(EPR_TEXT)
    prep = s.timeline[0]
    again = sc.parse(sc.dumps(s)).timeline[0]
    # 17 significant digits reproduce the double exactly, not approximately
    assert again.state.c0 == prep.state.c0
    assert again.state.c1 == prep.state.c1


def test_random_raw_states_round_trip():
    rng = random.Random(20260814)
    for _ in range(40):
        dim = rng.choice([2, 3, 4])
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        amps = tuple(a / norm for a in amps)
        s = sc.Scenario(
            name="r",
            systems=(("S", dim),),
            agents=(),
            observers=(),
            bases=(),
            timeline=(sc.Prepare(sc.RawState(amps), ("S",)),),
        )
        assert sc.parse(sc.dumps(s)) == s


@pytest.mark.parametrize("labels,want", [
    ("a, b, c", ("a", "b", "c")),
    ("0, 2.5, -1", (0, 2.5, -1)),  # numeric labels print as the numbers they parse to
], ids=["names", "numeric_labels"])
def test_named_basis_declaration(labels, want):
    text = f"""scenario named
system S 3
observer o
basis tri on 3 labels {labels} vectors [1+0i, 0+0i, 0+0i] ; [0+0i, 1+0i, 0+0i] ; [0+0i, 0+0i, 1+0i]
prepare state [1+0i, 0+0i, 0+0i] on S
measure o on S basis tri result r
"""
    s = sc.parse(text)
    assert s.bases[0].labels == want
    assert [type(label) for label in s.bases[0].labels] == [type(label) for label in want]
    assert s.bases[0].vectors[1] == (0j, 1 + 0j, 0j)
    assert sc.validate(s) == []
    assert f"labels {labels} vectors" in sc.dumps(s)
    assert sc.parse(sc.dumps(s)) == s


def test_comments_and_blank_lines_ignored():
    a = sc.parse("scenario t\nsystem S 2\nprepare ghz on S, S, S\n".replace("ghz on S, S, S", "state [1+0i, 0+0i] on S"))
    b = sc.parse("# header\n\nscenario t   # trailing note\n\nsystem S 2  # a qubit\nprepare state [1+0i, 0+0i] on S\n")
    assert a == b


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("scenario x\nsystem S 2\nsystem S 2\n", "duplicate declaration", 3),
        ("scenario x\nsystem S 2\nprepare state [1+0i, 1+0i] on S\n", "unnormalized state literal", 3),
        ("scenario x\nsystem S 2\nprepare state [1+0i, 0+0i, 0+0i] on S\n", "dimension mismatch", 3),
        ("scenario x\nsystem S 2\nmeasure bob on S basis basis1 result r\n", "unknown identifier 'bob'", 3),
        ("scenario x\nfrobnicate S 2\n", "unknown keyword", 2),
        ("system S 2\n", "no scenario declared", 1),
        ("", "no scenario declared", 1),
        ("scenario x\nsystem S 1\n", "must be >= 2", 2),
        ("scenario x\nagent a record R 2 init 5\n", "out of range", 2),
        ("scenario x\nagent a\n", "at least one record", 2),
        ("scenario x\nbasis b on 2 labels 0, 1 vectors [1+0i, 0+0i] ; [1+0i, 0+0i]\n", "not orthonormal", 2),
        ("scenario x\nbasis b on 2 labels 0, 1 vectors [1+0i, 0+0i]\n", "dimension mismatch", 2),
        ("scenario x\nbasis b on 2 labels 0, 0 vectors [1+0i, 0+0i] ; [0+0i, 1+0i]\n", "distinct", 2),
        ("scenario x\nbasis b on 2 labels 1, 1.0 vectors [1+0i, 0+0i] ; [0+0i, 1+0i]\n", "distinct", 2),
        ("scenario x\nsystem S 2\nobserver o\nmeasure o on S basis nosuch result r\n", "unknown identifier 'nosuch'", 4),
        ("scenario x\nsystem S 2\nprepare state [1+0i, 0+0i] on S extra\n", "trailing", 3),
        ("scenario x\nsystem S 2\nobserver o\nread o record a.R result r\n", "unknown identifier 'a.R'", 4),
        ("scenario x\nagent a record R 2 init 0\ninteract a on Q basis basis1 record R\n", "unknown identifier 'Q'", 3),
        ("scenario x\nagent a record R 2 init 0\nsystem S 2\ninteract a on S basis basis1 record Z\n", "unknown identifier 'a.Z'", 4),
        ("scenario x\nscenario y\n", "duplicate scenario", 2),
        ("scenario x\nsystem S 2\nprepare schmidt(0.6, 0.8) on S, S\n", "repeated target", 3),
        ("scenario x\nsystem S 2\nprepare schmidt(0.3, 0.4) on S\n", "unnormalized state literal", 3),
        ("scenario x\nbasis basis3 on 2 labels 0, 1 vectors [1+0i, 0+0i] ; [0+0i, 1+0i]\n", "built-in", 2),
        ("scenario x\nsystem S 2\nprepare state [1+0i, 0*0i] on S\n", "complex literal", 3),
        # literals the kernel would reject at its 1e-10 tolerance
        ("scenario x\nsystem S 2\nprepare state [0.6+0i, 0.800000003+0i] on S\n", "unnormalized state literal", 3),
        ("scenario x\nbasis b on 2 labels 0, 1 vectors [1+0i, 3e-9+0i] ; [0+0i, 1+0i]\n", "not orthonormal", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(sc.ScenarioError) as exc:
        sc.parse(text)
    assert fragment in exc.value.message
    assert exc.value.line == line


def test_error_position_exact():
    with pytest.raises(sc.ScenarioError) as exc:
        sc.parse("scenario x\nfrobnicate S 2\n")
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert "line 2, column 1" in str(exc.value)


@pytest.mark.parametrize("text,message,line,column", [
    ("scenario x\nsystem S 2\nprepare ghz x S\n", "expected 'on', found 'x'", 3, 13),
    ("scenario x\nagent a record R 2 init 0 record R 2 init 0\n", "duplicate declaration of 'a.R'", 2, 36),
    ("scenario x\nsystem S 2\nagent S record R 2 init 0\n", "duplicate declaration of 'S'", 3, 9),
    ("scenario x\nagent a record R 2 init 0\npartition p\n", "partition needs at least one group", 3, 12),
    ("scenario x\nsystem S\n", "unexpected end of line", 2, 9),
    ("scenario x\nsystem S 2\nobserver o\nmeasure o on S, S basis basis1 result r\n", "repeated target", 4, 19),
    ("scenario x\nsystem S 2\nprepare state [1, 0] on S, a.R\n", "unknown identifier 'a.R'", 3, 28),
], ids=["take_expected", "record_twice", "agent_named_as_system", "empty_partition", "end_of_line",
        "repeated_target", "unknown_record_target"])
def test_error_positions(text, message, line, column):
    with pytest.raises(sc.ScenarioError) as exc:
        sc.parse(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


def test_validate_clean_scenarios():
    assert sc.validate(sc.parse(EPR_TEXT)) == []
    assert sc.validate(sc.parse(GHZ_TEXT)) == []


def _one_diag(text: str) -> sc.Diagnostic:
    diags = sc.validate(sc.parse(text))
    assert len(diags) == 1, diags
    return diags[0]


HEADER = """scenario v
system S 2
system T 2
system Q 4
agent a record R 2 init 0 record R2 2 init 0
observer o
"""


@pytest.mark.parametrize(
    "body,fragment,index",
    [
        ("interact a on S basis basis1 record R\n", "unprepared target", 0),
        ("prepare state [1+0i, 0+0i] on S\nread o record a.R result r\n", "record never written", 1),
        ("prepare state [1+0i, 0+0i] on S\nmeasure o on S basis lifted(basis2, basis3) result r\n", "basis/target mismatch", 1),
        ("prepare state [1+0i, 0+0i, 0+0i, 0+0i] on Q\nmeasure o on Q basis lifted(basis3, basis1) result r\n", "lifted(...) needs", 1),
        ("prepare state [1+0i, 0+0i] on S\nprepare state [1+0i, 0+0i] on T\ninteract a on S basis basis1 record R\ninteract a on T basis basis1 record R\n", "written twice", 3),
        ("prepare state [1+0i, 0+0i] on S\nmeasure o on S basis basis1 result r\nmeasure o on S basis basis1 result r\n", "bound twice", 2),
        ("prepare state [1+0i, 0+0i] on S\nprepare state [1+0i, 0+0i] on S\n", "prepared twice", 1),
        ("prepare state [1+0i, 0+0i] on S\nmeasure o on S basis basis1 result r\nprepare state [1+0i, 0+0i] on S\n", "prepared twice", 2),
        ("partition p group a group a\n", "overlap", 0),
        ("partition p group z\n", "unknown agent", 0),
        ("prepare ghz on S, T\n", "state/target mismatch", 0),
        ("prepare schmidt(0.6, 0.8) on S, Q\n", "schmidt(c0, c1) needs two dimension-2 targets", 0),
        ("prepare state [1+0i, 0+0i] on S\nprepare state [1+0i, 0+0i] on T\ninteract a on S, T basis basis1 record R\n", "record too small", 2),
        ("prepare state [1+0i, 0+0i] on S\nmeasure o on S basis basis1 result r concurrent\n", "concurrent without", 1),
        ("prepare state [1+0i, 0+0i] on S\ninteract a on a.R basis basis1 record R2\n", "must be a system", 1),
        ("prepare state [1+0i, 0+0i] on a.R\n", "is a record", 0),
    ],
)
def test_validate_diagnostics(body, fragment, index):
    d = _one_diag(HEADER + body)
    assert fragment in d.reason
    assert d.event_index == index


def test_validate_pointer_cell_label_collision():
    # a dimension-3 record written by a 2-outcome basis keeps cell2 as its
    # third pointer label, so a writer label "cell2" would name two cells
    text = (
        "scenario v\nsystem S 2\nagent a record R 3 init 0\n"
        "basis mine on 2 labels {labels} vectors [1, 0] ; [0, 1]\n"
        "prepare state [1+0i, 0+0i] on S\n"
        "interact a on S basis mine record R\n"
    )
    d = _one_diag(text.format(labels="x, cell2"))
    assert d.event_index == 1
    assert d.reason == "basis label 'cell2' collides with a pointer cell name of record 'a.R'"
    # cell1 is a writer slot, not a pointer cell, so it does not collide
    assert sc.validate(sc.parse(text.format(labels="x, cell1"))) == []


def test_validate_never_lists_pointer_cells(monkeypatch):
    # a label is matched to a pointer cell by its index: listing the cells of
    # a record of dimension 10**20 would exhaust memory
    monkeypatch.setattr(sc, "pointer_cells", None)
    text = (
        "scenario v\nsystem S 2\nagent a record R 100000000000000000000 init 0\n"
        "basis mine on 2 labels cell1, cell7 vectors [1, 0] ; [0, 1]\n"
        "prepare state [1+0i, 0+0i] on S\n"
        "interact a on S basis mine record R\n"
    )
    assert [str(d) for d in sc.validate(sc.parse(text))] == [
        "event 1: basis label 'cell7' collides with a pointer cell name of record 'a.R'"]


def test_validate_reports_undeclared_names_of_a_code_built_scenario():
    # the parser refuses these names, so only a scenario built in code has them
    s = sc.Scenario(
        "v", (("S", 2),), (sc.AgentDecl("a", (sc.RecordDecl("R", 2, 0),)),), (sc.ObserverDecl("o"),), (),
        (sc.Prepare(sc.RawState((1 + 0j, 0j)), ("S",)),
         sc.Interact("ghost", ("T",), sc.PresetBasis("basis1"), "R"),
         sc.Measure("nobody", ("T",), sc.PresetBasis("basis1"), "m"),
         sc.ReadRecord("nobody", "ghost", "R", None, "r")),
    )
    assert [str(d) for d in sc.validate(s)] == [
        "event 1: unknown agent 'ghost'",
        "event 1: unknown identifier 'T'",
        "event 1: unknown record 'ghost.R'",
        "event 2: unknown observer 'nobody'",
        "event 2: unknown identifier 'T'",
        "event 3: unknown observer 'nobody'",
        "event 3: unknown record 'ghost.R'",
    ]


def test_validate_prepare_after_use():
    text = HEADER + "prepare state [1+0i, 0+0i] on S\nmeasure o on S basis basis1 result r\n"
    s = sc.parse(text)
    assert sc.validate(s) == []
    # measuring then re-preparing the same system is flagged
    reuse = sc.Scenario(s.name, s.systems, s.agents, s.observers, s.bases,
                        s.timeline + (sc.Prepare(sc.RawState((1 + 0j, 0j)), ("S",)),))
    diags = sc.validate(reuse)
    assert len(diags) == 1 and "prepared twice" in diags[0].reason


def test_validate_concurrent_chain_ok():
    text = HEADER + (
        "prepare state [1+0i, 0+0i] on S\n"
        "prepare state [1+0i, 0+0i] on T\n"
        "measure o on S basis basis1 result r1\n"
        "measure o on T basis basis1 result r2 concurrent\n"
    )
    assert sc.validate(sc.parse(text)) == []


def test_layout_of_order():
    s = sc.parse(GHZ_TEXT)
    layout = sc.layout_of(s)
    assert layout.ids == ("S1", "S2", "S3", "alice.A1", "alice.A2", "alice.A3")
    assert layout.total_dimension == 64


def test_read_with_explicit_basis_round_trip():
    text = HEADER + (
        "prepare state [1+0i, 0+0i] on S\n"
        "interact a on S basis basis1 record R\n"
        "read o record a.R basis basis1 result r\n"
    )
    s = sc.parse(text)
    assert sc.validate(s) == []
    ev = s.timeline[-1]
    assert isinstance(ev, sc.ReadRecord) and ev.basis == sc.PresetBasis("basis1")
    assert sc.parse(sc.dumps(s)) == s


def test_measure_record_target_allowed():
    text = HEADER + (
        "prepare state [1+0i, 0+0i] on S\n"
        "interact a on S basis basis1 record R\n"
        "measure o on S, a.R basis lifted(basis2, basis3) result w\n"
    )
    assert sc.validate(sc.parse(text)) == []


def test_overflowing_literals():
    # an entry whose square or modulus overflows fails the norm test
    for entry, column in (("1e200+0i", 29), ("1.5e308+1.5e308i", 37)):
        with pytest.raises(sc.ScenarioError) as exc:
            sc.parse(f"scenario x\nsystem S 2\nprepare state [{entry}, 0] on S\n")
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "unnormalized state literal: squared norm is inf", 3, column)
    with pytest.raises(sc.ScenarioError, match="not orthonormal"):
        sc.parse("scenario x\nbasis b on 2 labels 0, 1 vectors [1, 0] ; [1.5e308+1.5e308i, 0]\n")
    # a label that overflows to inf prints as a literal that parses back to it
    s = sc.parse("scenario x\nbasis b on 2 labels 1e999, -1e999 vectors [1, 0] ; [0, 1]\n")
    assert s.bases[0].labels == (math.inf, -math.inf)
    assert sc.parse(sc.dumps(s)) == s


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length")
@pytest.mark.parametrize("line", [
    "system S {n}",
    "agent a record R {n} init 0",
    "agent a record R 2 init {n}",
    "basis b on {n} labels 0, 1 vectors [1, 0] ; [0, 1]",
    "basis b on 2 labels 0, {n} vectors [1, 0] ; [0, 1]",
])
def test_long_integer_tokens(line):
    # int() converts at most 4300 digits by default; the parser says where
    with pytest.raises(sc.ScenarioError) as exc:
        sc.parse("scenario x\n" + line.format(n="9" * 5000) + "\n")
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "integer of 5000 digits is too long", 2, line.index("{n}") + 1)


def test_long_pointer_cell_label_validates():
    # a cellJ label whose index has more digits than int() converts is far
    # past the record's dimension, so it names no pointer cell
    text = HEADER + (
        f"basis b on 2 labels cell{'9' * 5000}, 0 vectors [1, 0] ; [0, 1]\n"
        "prepare state [1+0i, 0+0i] on S\n"
        "interact a on S basis b record R\n"
    )
    assert sc.validate(sc.parse(text)) == []


@pytest.mark.parametrize("label", [math.inf, -math.inf, math.nan])
def test_non_finite_label_is_reported_where_its_basis_is_used(label):
    text = HEADER + (
        "basis b on 2 labels 0, 1 vectors [1, 0] ; [0, 1]\n"
        "prepare state [1+0i, 0+0i] on S\n"
        "measure o on S basis b result r\n"
    )
    s = sc.parse(text)
    s = sc.Scenario(s.name, s.systems, s.agents, s.observers,
                    (sc.BasisDecl("b", 2, (label, 1), s.bases[0].vectors),), s.timeline)
    assert [str(d) for d in sc.validate(s)] == [f"event 1: basis 'b' has a non-finite label {label!r}"]
    # an unused declaration reaches no output
    unused = sc.Scenario(s.name, s.systems, s.agents, s.observers, s.bases, s.timeline[:1])
    assert sc.validate(unused) == []


# the bundled files plus the statements they lack: a basis declaration, a
# partition, a concurrent readout and a readout in a declared basis
FUZZ_BASES = [sc.bundled_scenario_text(name) for name in sc.BUNDLED_SCENARIOS] + ["""scenario extra
system S 3
system T 2
agent alice record A 3 init 0 record B 2 init 1
observer bob
basis tri on 3 labels 0, 2.5, up vectors [1+0i, 0+0i, 0+0i] ; [0+0i, 0.6+0.8i, 0+0i] ; [0+0i, 0+0i, -1i]
prepare state [0.6+0i, 0+0.8i, 0] on S
prepare state [1, 0] on T
partition p group alice
interact alice on S basis tri record A
interact alice on T basis basis3 record B concurrent
read bob record alice.A basis tri result ra
measure bob on T, alice.B basis lifted(basis2, basis3) result rb
read bob record alice.B result rc concurrent
"""]
FUZZ_TOKEN = r"[\[\](),;]|[^\s\[\](),;]+"
# keywords and clause words, punctuation and the comment sign, and numbers of
# every literal shape, overflowing ones included; names come from the base text
FUZZ_WORDS = (
    "scenario system agent observer prepare basis interact measure read partition "
    "on record result init labels vectors group concurrent ghz schmidt state lifted "
    "basis1 basis2 basis3 cell2 x alice.Z a.b.c"
).split()
FUZZ_PUNCTUATION = "[ ] ( ) , ; #".split()
FUZZ_NUMBERS = (
    "0 1 2 3 -1 +2 0.5 .5 1. 0.6 0.8 1e-1 2.5 1e200 1e999 -1e999 99999999999999999999 "
    "0.6+0.8i 1+0i 0-1i 0.5i -0.5-0.5i 1e200+0i 1.5e308+1.5e308i 1e999i"
).split()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_scenarios_parse_or_fail_cleanly(data):
    # replace, insert or delete tokens, or copy, delete or swap lines: each
    # text parses and round-trips, or fails with a position inside it
    lines = data.draw(st.sampled_from(FUZZ_BASES)).splitlines()
    names = sorted({t for line in lines for t in re.findall(FUZZ_TOKEN, line)})
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["replace", "insert", "delete", "copy line", "drop line", "swap lines"]))
        if op == "copy line":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        elif op == "drop line":
            if len(lines) > 1:
                del lines[i]
        elif op == "swap lines":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = re.findall(FUZZ_TOKEN, lines[i])
            k = data.draw(st.integers(0, len(tokens)))
            word = data.draw(st.sampled_from((FUZZ_WORDS, FUZZ_PUNCTUATION, FUZZ_NUMBERS, names)).flatmap(st.sampled_from))
            if op == "insert" or k == len(tokens):
                tokens.insert(k, word)
            elif op == "replace":
                tokens[k] = word
            else:
                del tokens[k]
            lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    try:
        s = sc.parse(text)
    except sc.ScenarioError as exc:
        assert 1 <= exc.line <= len(lines)
        assert exc.column >= 1
    else:
        assert isinstance(sc.validate(s), list)
        assert sc.parse(sc.dumps(s)) == s
