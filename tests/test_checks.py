"""Checks: closed-form oracles, engine cross-checks, GF(2) search oracle."""

import math
import random

import numpy as np
import pytest

from wfcheck import checks
from wfcheck import interpret as it
from wfcheck import scenario as sc


def random_amplitudes(rng, d):
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)])
    return v / np.linalg.norm(v)


class TestCplProbabilityCheck:
    def test_deterministic_preparation_consistent(self):
        r = checks.cpl_probability_check([1, 0], 0)
        assert r.verdict == "consistent"
        assert r.findings[0].discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair(self):
        r = checks.cpl_probability_check([math.sqrt(0.5), math.sqrt(0.5)], 0)
        assert r.verdict == "contradiction"
        assert r.findings[0].discrepancy == pytest.approx(0.5, abs=1e-12)

    def test_skewed_pair_frozen(self):
        r = checks.cpl_probability_check([math.sqrt(0.3), math.sqrt(0.7)], 1)
        assert r.verdict == "contradiction"
        assert r.findings[0].discrepancy == pytest.approx(0.3, abs=1e-12)
        assert dict(r.findings[0].values)["cpl"] == 0.0

    def test_closed_form_random(self):
        rng = random.Random(20260814)
        for _ in range(20):
            d = rng.choice([2, 4, 8])
            c = random_amplitudes(rng, d)
            ra = rng.randrange(d)
            want = float(sum(abs(c[j]) ** 2 for j in range(d) if j != ra))
            r = checks.cpl_probability_check(c, ra)
            assert r.findings[0].discrepancy == pytest.approx(want, abs=1e-12)

    def test_register_interaction_leaves_record_reduction(self):
        r = checks.cpl_probability_check([math.sqrt(0.3), math.sqrt(0.7)], 0)
        assert r.findings[1].discrepancy <= 1e-12

    def test_matches_engine_readout(self):
        # independent route: run the same chain as a scenario and condition
        rng = random.Random(7)
        for d in (2, 4):
            probs = [rng.random() for _ in range(d)]
            total = sum(probs)
            c = [math.sqrt(p / total) for p in probs]
            amp_text = ", ".join(f"{x!r}+0i" for x in c)
            text = f"""scenario chain
system S {d}
agent alice record A {d} init 0
observer bob
prepare state [{amp_text}] on S
interact alice on S basis basis1 record A
read bob record alice.A result rb
"""
            s = sc.parse(text)
            for ra in range(d):
                dist = it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb",
                                                 {"alice.A": ra})
                engine_wrong = sum(p for j, p in dist.items() if j != ra)
                r = checks.cpl_probability_check(c, ra)
                assert r.findings[0].discrepancy == pytest.approx(engine_wrong, abs=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError, match="normalized"):
            checks.cpl_probability_check([0.5, 0.5], 0)
        with pytest.raises(ValueError, match="out of range"):
            checks.cpl_probability_check([1, 0], 2)
        with pytest.raises(ValueError, match="at least two"):
            checks.cpl_probability_check([1.0], 0)
        with pytest.raises(ValueError, match="normalized"):
            checks.cpl_probability_check([math.nan, 1.0], 0)


class TestEprCorrelationCheck:
    def test_frozen_table(self):
        r = checks.epr_correlation_check([math.sqrt(0.3), math.sqrt(0.7)])
        values = dict(r.findings[0].values)
        assert values["orthodox"] == pytest.approx(1.0, abs=1e-12)
        assert values["rqm5/separate"] == pytest.approx(0.58, abs=1e-12)
        assert values["rqm5/joint"] == pytest.approx(1.0, abs=1e-12)
        assert r.verdict == "ambiguity"

    def test_closed_form_random(self):
        rng = random.Random(99)
        for _ in range(10):
            p = rng.uniform(0.05, 0.45)
            c = [math.sqrt(p), math.sqrt(1 - p)]
            r = checks.epr_correlation_check(c)
            values = dict(r.findings[0].values)
            want = p * p + (1 - p) * (1 - p)
            assert values["rqm5/separate"] == pytest.approx(want, abs=1e-12)
            assert values["orthodox"] == pytest.approx(1.0, abs=1e-12)
            assert values["rqm5/joint"] == pytest.approx(1.0, abs=1e-12)

    def test_conditioning_invariance_entrywise(self):
        r = checks.epr_correlation_check([math.sqrt(0.3), math.sqrt(0.7)])
        assert r.findings[1].discrepancy <= 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError, match="nonzero"):
            checks.epr_correlation_check([1, 0])
        with pytest.raises(ValueError, match="distinct"):
            u = math.sqrt(0.5)
            checks.epr_correlation_check([u, u])
        with pytest.raises(ValueError, match="normalized"):
            checks.epr_correlation_check([0.6, 0.7])
        with pytest.raises(ValueError, match="exactly two"):
            checks.epr_correlation_check([1.0])
        with pytest.raises(ValueError, match="normalized"):
            checks.epr_correlation_check([math.nan, 1.0])


class TestGhzCheck:
    def test_verdict_and_search(self):
        r = checks.ghz_check()
        assert r.verdict == "contradiction"
        assert r.assignment_search.domain_size == 8
        assert r.assignment_search.satisfying == ()
        assert r.assignment_search.formal_square == "(A1*A2*A3)^2 = -1"
        assert r.assignment_search.formal_product_value == "±i"

    def test_parities_exact(self):
        r = checks.ghz_check()
        for f in r.findings[:-1]:
            assert f.discrepancy <= 1e-12, f.claim

    def test_fact_holder_invariance(self):
        a = checks.ghz_check("agent")
        b = checks.ghz_check("both")
        assert a.verdict == b.verdict == "contradiction"
        assert a.findings == b.findings
        assert a.assignment_search == b.assignment_search

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="fact holder"):
            checks.ghz_check("neither")

    def test_matches_engine_joint(self):
        # dual route: the full scenario engine reproduces the all-pairs support
        text = """scenario ghz
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
measure wigner on S2, alice.A2 basis lifted(basis2, basis3) result b2
measure wigner on S3, alice.A3 basis lifted(basis2, basis3) result b3
"""
        joint = it.exact_joint(sc.parse(text), it.RuleSet.rqm5())
        triples: dict = {}
        for k, p in joint.items():
            triples[k[3:]] = triples.get(k[3:], 0.0) + p
        # four even-parity sign patterns, a quarter each
        assert len(triples) == 4
        for pattern, p in triples.items():
            assert pattern[0] * pattern[1] * pattern[2] == 1
            assert p == pytest.approx(0.25, abs=1e-12)


def gf2_solution_count(constraints, variables):
    """Independent oracle: rank argument over GF(2), bitmask elimination."""
    order = {v: i for i, v in enumerate(variables)}
    basis = {}  # pivot bit -> (vector, rhs)
    for con in constraints:
        vec = 0
        for v in con.variables:
            vec ^= 1 << order[v]
        rhs = 1 if con.required == -1 else 0
        for piv in sorted(basis, reverse=True):
            if vec >> piv & 1:
                bv, br = basis[piv]
                vec ^= bv
                rhs ^= br
        if vec == 0:
            if rhs:
                return 0
            continue
        basis[vec.bit_length() - 1] = (vec, rhs)
    return 2 ** (len(variables) - len(basis))


class TestParitySearch:
    def test_single_variable(self):
        r = checks.parity_search([checks.ParityConstraint(("x",), 1, "unit")], variables=("x",))
        assert r.domain_size == 2
        assert r.satisfying == ((("x", 1),),)

    def test_empty_constraints_over_three(self):
        r = checks.parity_search([], variables=("a", "b", "c"))
        assert r.domain_size == 8
        assert len(r.satisfying) == 8
        assert r.formal_square is None and r.formal_product_value is None

    def test_substituted_system_empty(self):
        r = checks.parity_search(checks.substituted_parity_constraints(),
                                 variables=("A1", "A2", "A3"))
        assert r.domain_size == 8
        assert r.satisfying == ()
        assert r.formal_square == "(A1*A2*A3)^2 = -1"

    def test_formal_certificate_only_when_infeasible(self):
        feasible = [checks.ParityConstraint(("a", "b"), 1, "t")]
        assert checks.parity_search(feasible, variables=("a", "b")).formal_square is None
        infeasible = [checks.ParityConstraint(("a", "a"), -1, "t")]
        r = checks.parity_search(infeasible, variables=("a",))
        assert r.satisfying == ()
        assert r.formal_square == "(a)^2 = -1"

    def test_variable_limit(self):
        names = tuple(f"v{i}" for i in range(21))
        with pytest.raises(ValueError, match="exceed"):
            checks.parity_search([], variables=names)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variables"):
            checks.parity_search([checks.ParityConstraint(("z",), 1, "t")],
                                 variables=("a",))

    def test_constraint_validation(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            checks.ParityConstraint(("a",), 0, "t")
        with pytest.raises(ValueError, match="at least one"):
            checks.ParityConstraint((), 1, "t")

    def test_agrees_with_gf2_oracle_on_random_systems(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 10)
            variables = tuple(f"v{i}" for i in range(n))
            cons = []
            for _ in range(rng.randint(0, 6)):
                size = rng.randint(1, 6)
                vs = tuple(rng.choice(variables) for _ in range(size))
                cons.append(checks.ParityConstraint(vs, rng.choice([1, -1]), "rand"))
            got = checks.parity_search(cons, variables=variables)
            want = gf2_solution_count(cons, variables)
            assert len(got.satisfying) == want, (cons, variables)
            assert (got.formal_square is not None) == (want == 0 and bool(cons))

    def test_satisfying_assignments_verify(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 6)
            variables = tuple(f"v{i}" for i in range(n))
            cons = [
                checks.ParityConstraint(
                    tuple(rng.choice(variables) for _ in range(rng.randint(1, 4))),
                    rng.choice([1, -1]), "rand")
                for _ in range(rng.randint(1, 4))
            ]
            result = checks.parity_search(cons, variables=variables)
            for assignment in result.satisfying:
                values = dict(assignment)
                assert all(con.satisfied_by(values) for con in cons)


class TestReportInvariants:
    def test_contradiction_requires_discrepancy(self):
        with pytest.raises(ValueError, match="above tolerance"):
            checks.ContradictionReport(
                name="x", rule_sets=("rqm5",),
                findings=(checks.Finding("c", (("rqm5", 0.0),), 0.0),),
                verdict="contradiction", narrative="n")

    def test_verdict_vocabulary(self):
        with pytest.raises(ValueError, match="verdict"):
            checks.ContradictionReport(
                name="x", rule_sets=(), findings=(), verdict="undecided", narrative="n")
