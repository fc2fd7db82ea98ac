"""Rule-set engine: collapse vs relative facts vs cross-perspective links.

Expected values are frozen from hand derivations.  For a correlated pair
sum_l c_l |l>|l> with c^2 = (0.3, 0.7):

* orthodox collapse forces every later readout to match, P(match) = 1;
* relative facts with separate conditioning pools make the two outcomes
  independent, P(match) = sum c^4 = 0.09 + 0.49 = 0.58;
* one shared pool restores P(match) = 1.

For a record readout of the same preparation, the stable readout is Born
distributed over the pointer regardless of the writer's fact, so
P(different) = sum over other labels of c^2 = 0.42 unconditioned; the
cross-perspective pin forces agreement instead.
"""

import math

import numpy as np
import pytest

from wfcheck import interpret as it
from wfcheck import qcore
from wfcheck import scenario as sc

C0 = math.sqrt(0.3)
C1 = math.sqrt(0.7)

PAIR = f"""
scenario pair
system S1 2
system S2 2
agent alice record A 2 init 0
agent bob record B 2 init 0
prepare schmidt({C0!r}, {C1!r}) on S1, S2
interact alice on S1 basis basis1 record A
interact bob on S2 basis basis1 record B
"""

PAIR_JOINT = PAIR.replace("prepare", "partition shared group alice, bob\nprepare")

READBACK = f"""
scenario readback
system S 2
agent alice record A 2 init 0
observer bob
prepare state [{C0!r}+0i, {C1!r}+0i] on S
interact alice on S basis basis1 record A
read bob record alice.A result rb
"""

GHZ = """
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

GHZ_MIXED = GHZ.replace(
    "measure wigner on S2, alice.A2 basis lifted(basis2, basis3) result b2 concurrent\n"
    "measure wigner on S3, alice.A3 basis lifted(basis2, basis3) result b3 concurrent",
    "read wigner record alice.A2 result a2\nread wigner record alice.A3 result a3",
)

EPR_STABLE = f"""
scenario epr_stable
system S1 2
system S2 2
agent alice record A 2 init 0
observer bob
prepare schmidt({C0!r}, {C1!r}) on S1, S2
interact alice on S1 basis basis1 record A
measure bob on S2 basis basis1 result rb
"""


def _match_probability(joint, i=0, j=1):
    return sum(p for k, p in joint.items() if k[i] == k[j])


class TestRuleSet:
    def test_constructors(self):
        assert it.RuleSet.orthodox().kind == "orthodox"
        assert it.RuleSet.rqm5().kind == "rqm5"
        assert it.RuleSet.rqm5_cpl().kind == "cpl"
        assert it.RuleSet.rqm5("both").fact_holder == "both"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            it.RuleSet("copenhagen")
        with pytest.raises(ValueError):
            it.RuleSet("rqm5", "nobody")


class TestPairScenario:
    def test_orthodox_match_certain(self):
        joint = it.exact_joint(sc.parse(PAIR), it.RuleSet.orthodox())
        assert _match_probability(joint) == pytest.approx(1.0, abs=1e-12)

    def test_rqm5_separate_pools_independent(self):
        joint = it.exact_joint(sc.parse(PAIR), it.RuleSet.rqm5())
        assert _match_probability(joint) == pytest.approx(0.58, abs=1e-12)
        # frozen joint table: product of marginals
        want = {(0, 0): 0.09, (0, 1): 0.21, (1, 0): 0.21, (1, 1): 0.49}
        assert set(joint) == set(want)
        for k, v in want.items():
            assert joint[k] == pytest.approx(v, abs=1e-12)

    def test_rqm5_shared_pool_correlated(self):
        joint = it.exact_joint(sc.parse(PAIR_JOINT), it.RuleSet.rqm5())
        assert _match_probability(joint) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_preparation_deterministic(self):
        text = PAIR.replace(f"schmidt({C0!r}, {C1!r})", "schmidt(1, 0)")
        for rules in (it.RuleSet.orthodox(), it.RuleSet.rqm5(), it.RuleSet.rqm5_cpl()):
            joint = it.exact_joint(sc.parse(text), rules)
            assert joint == {(0, 0): pytest.approx(1.0, abs=1e-12)}


class TestReadback:
    def test_orthodox_readout_matches(self):
        joint = it.exact_joint(sc.parse(READBACK), it.RuleSet.orthodox())
        assert _match_probability(joint) == pytest.approx(1.0, abs=1e-12)

    def test_rqm5_readout_born_distributed(self):
        s = sc.parse(READBACK)
        mismatch = 1.0 - _match_probability(it.exact_joint(s, it.RuleSet.rqm5()))
        assert mismatch == pytest.approx(2 * 0.3 * 0.7, abs=1e-12)
        dist = it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb")
        assert dist[0] == pytest.approx(0.3, abs=1e-12)
        assert dist[1] == pytest.approx(0.7, abs=1e-12)

    def test_rqm5_conditioning_invariance(self):
        s = sc.parse(READBACK)
        base = it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb")
        for v in (0, 1):
            cond = it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb", {"alice.A": v})
            for label in base:
                assert cond[label] == pytest.approx(base[label], abs=1e-12)

    def test_cpl_pin_deterministic(self):
        s = sc.parse(READBACK)
        for v in (0, 1):
            cond = it.predicted_distribution(s, it.RuleSet.rqm5_cpl(), "bob", "rb", {"alice.A": v})
            assert cond == {v: pytest.approx(1.0, abs=1e-12)}
        for seed in range(25):
            r = it.run(s, it.RuleSet.rqm5_cpl(), seed=seed)
            assert r.results["rb"] == r.ledger.value_for("alice.A")
            assert len(r.pins) == 1 and not r.pins[0].anomalous

    def test_cpl_pin_records_overridden_born_weight(self):
        s = sc.parse(READBACK)
        weights = set()
        for seed in range(40):
            r = it.run(s, it.RuleSet.rqm5_cpl(), seed=seed)
            weights.add(round(r.pins[0].born_weight, 12))
        assert weights <= {0.3, 0.7}

    def test_explicit_basis_read_not_pinned(self):
        text = READBACK.replace("read bob record alice.A result rb",
                                "read bob record alice.A basis basis3 result rb")
        s = sc.parse(text)
        r = it.run(s, it.RuleSet.rqm5_cpl(), seed=1)
        assert r.pins == ()
        dist = it.predicted_distribution(s, it.RuleSet.rqm5_cpl(), "bob", "rb")
        assert set(dist) == {1, -1}

    def test_conditioning_on_unwritten_record_rejected(self):
        s = sc.parse(READBACK)
        with pytest.raises(ValueError, match="unwritten record"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb", {"alice.Z": 0})

    def test_unbound_result_rejected(self):
        s = sc.parse(READBACK)
        with pytest.raises(ValueError, match="not bound"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "nope")
        with pytest.raises(ValueError, match="bound by"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "alice", "rb")


class TestPerspectives:
    def test_initial_product_state(self):
        s = sc.parse(READBACK)
        p = it.perspective(s, it.RuleSet.rqm5(), "bob", after=-1)
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        assert np.allclose(p.state.amplitudes, amps, atol=1e-12)

    def test_outside_observer_faces_entangled_vector(self):
        # hand value: sum_l c_l |l>_S |l>_A on the (S, alice.A) layout
        s = sc.parse(READBACK)
        p = it.perspective(s, it.RuleSet.rqm5(), "bob", after=1)
        want = np.zeros(4, dtype=complex)
        want[0] = C0
        want[3] = C1
        assert isinstance(p.state, qcore.StateVector)
        assert np.allclose(p.state.amplitudes, want, atol=1e-12)
        assert p.knowledge == ()

    def test_orthodox_ignorance_mixture(self):
        # hand value: diag(0.3, 0, 0, 0.7) on the (S, alice.A) layout
        s = sc.parse(READBACK)
        p = it.perspective(s, it.RuleSet.orthodox(), "bob", after=1)
        assert isinstance(p.state, qcore.DensityMatrix)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 0.3
        want[3, 3] = 0.7
        assert np.allclose(p.state.matrix, want, atol=1e-12)

    def test_agent_conditions_on_own_fact(self):
        s = sc.parse(READBACK)
        p = it.perspective(s, it.RuleSet.rqm5(), "alice", after=1, given={"alice.A": 1})
        want = np.zeros(4, dtype=complex)
        want[3] = 1.0
        assert np.allclose(p.state.amplitudes, want, atol=1e-12)
        assert p.knowledge == (("alice.A", 1),)

    def test_agent_ignorance_form_is_mixture(self):
        s = sc.parse(READBACK)
        p = it.perspective(s, it.RuleSet.rqm5(), "alice", after=1)
        assert isinstance(p.state, qcore.DensityMatrix)
        assert p.state.matrix[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert p.state.matrix[3, 3] == pytest.approx(0.7, abs=1e-12)

    def test_unknown_observer_rejected(self):
        with pytest.raises(ValueError, match="unknown observer"):
            it.perspective(sc.parse(READBACK), it.RuleSet.rqm5(), "nobody")

    def test_after_must_respect_groups(self):
        s = sc.parse(GHZ)
        with pytest.raises(ValueError, match="concurrent group"):
            it.perspective(s, it.RuleSet.rqm5(), "wigner", after=4)

    def test_impossible_given_rejected(self):
        s = sc.parse(READBACK)
        with pytest.raises(ValueError, match="zero probability|compatible"):
            it.perspective(s, it.RuleSet.orthodox(), "bob", after=2,
                           given={"alice.A": 0, "rb": 1})

    def test_unsupported_fact_stays_known(self):
        # relative fact and stable partner outcome are sampled independently;
        # in a mismatched branch the fact cannot steer the state (the stable
        # collapse stripped its support) but the agent still holds it
        s = sc.parse(EPR_STABLE)
        rules = it.RuleSet.rqm5()
        seen_mismatch = False
        for seed in range(12):
            r = it.run(s, rules, seed=seed)
            fact = r.ledger.value_for("alice.A")
            stable = r.results["rb"]
            if fact == stable:
                continue
            seen_mismatch = True
            ps = r.perspectives["alice"]
            assert ("alice.A", fact) in ps.knowledge
            want = np.zeros(8, dtype=complex)
            want[7 * stable] = 1.0
            assert np.allclose(np.abs(ps.state.amplitudes), np.abs(want), atol=1e-12)
        assert seen_mismatch

    def test_unsupported_fact_in_timeline_mixture(self):
        s = sc.parse(EPR_STABLE)
        p = it.perspective(s, it.RuleSet.rqm5(), "alice", given={"alice.A": 0, "rb": 1})
        assert isinstance(p.state, qcore.StateVector)
        assert abs(p.state.amplitudes[7]) == pytest.approx(1.0, abs=1e-12)


class TestGhzContexts:
    def test_all_pairs_product_plus_one(self):
        joint = it.exact_joint(sc.parse(GHZ), it.RuleSet.rqm5())
        for outcome, p in joint.items():
            b1, b2, b3 = outcome[3:]
            assert b1 * b2 * b3 == 1, outcome
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_context_product_minus_one(self):
        joint = it.exact_joint(sc.parse(GHZ_MIXED), it.RuleSet.rqm5())
        for outcome, p in joint.items():
            b1, a2, a3 = outcome[3:]
            assert b1 * a2 * a3 == -1, outcome

    def test_ledger_marginals_uniform(self):
        joint = it.exact_joint(sc.parse(GHZ), it.RuleSet.rqm5())
        marg: dict = {}
        for outcome, p in joint.items():
            marg[outcome[0]] = marg.get(outcome[0], 0.0) + p
        assert marg[1] == pytest.approx(0.5, abs=1e-12)
        assert marg[-1] == pytest.approx(0.5, abs=1e-12)

    def test_cpl_mixed_context_forces_zero_probability_outcomes(self):
        # pinning both reads to the writer's facts contradicts the stable
        # basis-2 outcome half of the time; the engine reports, not crashes
        s = sc.parse(GHZ_MIXED)
        joint = it.exact_joint(s, it.RuleSet.rqm5_cpl())
        violating = sum(p for k, p in joint.items() if k[3] * k[4] * k[5] == 1)
        assert violating == pytest.approx(0.5, abs=1e-12)
        anomalous = sum(bool(it.run(s, it.RuleSet.rqm5_cpl(), seed=seed).anomalies)
                        for seed in range(60))
        assert 10 < anomalous < 50
        flagged = next(it.run(s, it.RuleSet.rqm5_cpl(), seed=seed)
                       for seed in range(60)
                       if it.run(s, it.RuleSet.rqm5_cpl(), seed=seed).anomalies)
        assert any(p.anomalous and p.born_weight <= qcore.PROB_EPS for p in flagged.pins)

    def test_fact_holder_policy_does_not_change_outcomes(self):
        ja = it.exact_joint(sc.parse(GHZ), it.RuleSet.rqm5("agent"))
        jb = it.exact_joint(sc.parse(GHZ), it.RuleSet.rqm5("both"))
        assert set(ja) == set(jb)
        for k in ja:
            assert ja[k] == pytest.approx(jb[k], abs=1e-12)

    def test_both_policy_mirrors_ledger_entries(self):
        r = it.run(sc.parse(GHZ), it.RuleSet.rqm5("both"), seed=4)
        holders = {e.agent for e in r.ledger.entries}
        assert "alice" in holders and "S1" in holders
        assert len(r.ledger.entries) == 6


class TestOrthodoxAgreement:
    AGREE = f"""
scenario agree
system S 2
agent friend record F 2 init 0
observer wigner
prepare state [{C0!r}+0i, {C1!r}+0i] on S
interact friend on S basis basis1 record F
measure wigner on S basis basis1 result w
read wigner record friend.F result f
"""

    def test_three_way_agreement_every_run(self):
        s = sc.parse(self.AGREE)
        for seed in range(40):
            r = it.run(s, it.RuleSet.orthodox(), seed=seed)
            assert r.results["w"] == r.ledger.value_for("friend.F") == r.results["f"]

    def test_agreement_with_swapped_order(self):
        swapped = self.AGREE.replace(
            "measure wigner on S basis basis1 result w\nread wigner record friend.F result f",
            "read wigner record friend.F result f\nmeasure wigner on S basis basis1 result w")
        s = sc.parse(swapped)
        for seed in range(40):
            r = it.run(s, it.RuleSet.orthodox(), seed=seed)
            assert r.results["w"] == r.ledger.value_for("friend.F") == r.results["f"]


class TestDeterminismAndSampling:
    def test_run_deterministic(self):
        s = sc.parse(GHZ)
        a = it.run(s, it.RuleSet.rqm5(), seed=123)
        b = it.run(s, it.RuleSet.rqm5(), seed=123)
        assert a.results == b.results
        assert a.ledger == b.ledger
        assert a.seed == b.seed == 123

    def test_run_varies_with_seed(self):
        s = sc.parse(GHZ)
        seen = {tuple(sorted(it.run(s, it.RuleSet.rqm5(), seed=k).results.items()))
                for k in range(30)}
        assert len(seen) > 1

    def test_run_frequencies_match_born(self):
        # chi-square against c^2 = (0.3, 0.7) at 3 sigma, df=1
        s = sc.parse(READBACK)
        n = 2000
        ones = sum(it.run(s, it.RuleSet.rqm5(), seed=k).results["rb"] for k in range(n))
        chi2 = (ones - 0.7 * n) ** 2 / (0.7 * n) + ((n - ones) - 0.3 * n) ** 2 / (0.3 * n)
        assert chi2 < 9.0

    def test_sample_tallies_deterministic_and_sized(self):
        s = sc.parse(GHZ)
        joint = it.exact_joint(s, it.RuleSet.rqm5())
        t1 = it.sample_tallies(joint, 5000, seed=9)
        t2 = it.sample_tallies(joint, 5000, seed=9)
        assert t1 == t2
        assert sum(t1.values()) == 5000

    def test_outcome_keys_order(self):
        assert it.outcome_keys(sc.parse(GHZ)) == (
            "alice.A1", "alice.A2", "alice.A3", "b1", "b2", "b3")


class TestConcurrency:
    CLASH = """scenario clash
system S 2
observer o
prepare state [1+0i, 0+0i] on S
measure o on S basis basis1 result x
measure o on S basis basis3 result y concurrent
"""

    def test_noncommuting_group_rejected(self):
        with pytest.raises(it.ConcurrencyError):
            it.exact_joint(sc.parse(self.CLASH), it.RuleSet.orthodox())

    def test_noncommuting_group_rejected_at_compile_time(self):
        s = sc.parse(self.CLASH)
        with pytest.raises(it.ConcurrencyError):
            it.run(s, it.RuleSet.rqm5(), seed=0)
        with pytest.raises(it.ConcurrencyError):
            it.perspective(s, it.RuleSet.rqm5(), "o", after=None)
        # the clashing group lies past event 0, so the prefix still runs
        ps = it.perspective(s, it.RuleSet.rqm5(), "o", after=0)
        assert isinstance(ps.state, qcore.StateVector)

    def test_commuting_group_matches_sequential(self):
        base = sc.parse(GHZ)
        seq = sc.parse(GHZ.replace(" concurrent", ""))
        for rules in (it.RuleSet.orthodox(), it.RuleSet.rqm5()):
            jg = it.exact_joint(base, rules)
            js = it.exact_joint(seq, rules)
            assert set(jg) == set(js)
            for k in jg:
                assert jg[k] == pytest.approx(js[k], abs=1e-12)

    def test_concurrent_interacts_are_simultaneous(self):
        # a shared pool normally lets the second agent condition on the first;
        # marking the interactions concurrent suppresses that
        text = f"""scenario simul
system S1 2
system S2 2
agent alice record A 2 init 0
agent bob record B 2 init 0
partition shared group alice, bob
prepare schmidt({C0!r}, {C1!r}) on S1, S2
interact alice on S1 basis basis1 record A
interact bob on S2 basis basis1 record B concurrent
"""
        joint = it.exact_joint(sc.parse(text), it.RuleSet.rqm5())
        assert _match_probability(joint) == pytest.approx(0.58, abs=1e-12)


LATE = """scenario late
system S1 2
system S2 2
agent alice record A 2 init 0
agent bob record B 2 init 0
prepare schmidt(0.6, 0.8) on S1, S2
interact alice on S1 basis basis1 record A
{mid}interact bob on S2 basis basis1 record B
{end}"""


@pytest.mark.parametrize("before_bob,want", [(True, 1.0), (False, 0.36 ** 2 + 0.64 ** 2)])
def test_partition_applies_only_to_later_interactions(before_bob, want):
    partition = "partition p group alice, bob\n"
    text = LATE.format(mid=partition, end="") if before_bob else LATE.format(mid="", end=partition)
    joint = it.exact_joint(sc.parse(text), it.RuleSet.rqm5())
    assert _match_probability(joint) == pytest.approx(want, abs=1e-12)


class TestValidationGate:
    def test_invalid_scenario_rejected(self):
        text = """scenario bad
system S 2
agent a record R 2 init 0
interact a on S basis basis1 record R
"""
        with pytest.raises(ValueError, match="does not validate"):
            it.run(sc.parse(text), it.RuleSet.rqm5(), seed=0)
