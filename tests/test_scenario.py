"""Scenario language: parse/print round trips, errors, semantic diagnostics."""

import math
import random

import pytest

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
    cur = sc._Cursor(sc._tokenize("0.25-0.75i", 1), 1)
    assert cur.take_complex() == complex(0.25, -0.75)
    cur = sc._Cursor(sc._tokenize("3e-2", 1), 1)
    assert cur.take_complex() == complex(0.03, 0.0)
    cur = sc._Cursor(sc._tokenize("nope", 1), 1)
    with pytest.raises(sc.ScenarioError):
        cur.take_complex()


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


def test_named_basis_declaration():
    text = """scenario named
system S 3
observer o
basis tri on 3 labels a, b, c vectors [1+0i, 0+0i, 0+0i] ; [0+0i, 1+0i, 0+0i] ; [0+0i, 0+0i, 1+0i]
prepare state [1+0i, 0+0i, 0+0i] on S
measure o on S basis tri result r
"""
    s = sc.parse(text)
    assert s.bases[0].labels == ("a", "b", "c")
    assert s.bases[0].vectors[1] == (0j, 1 + 0j, 0j)
    assert sc.validate(s) == []
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
