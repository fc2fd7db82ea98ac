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

import dataclasses
import gc
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfcheck
from wfcheck import interpret as it
from wfcheck import qcore
from wfcheck import scenario as sc

SCENARIOS = Path(wfcheck.__file__).parent / "scenarios"

C0 = math.sqrt(0.3)
C1 = math.sqrt(0.7)
H = math.sqrt(0.5)

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

    def test_zero_probability_conditioning_rejected(self):
        s = sc.parse((SCENARIOS / "cpl.wfs").read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match=re.escape("conditioning {'alice.A': 7} has zero probability")):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "rb", {"alice.A": 7})

    def test_ledger_without_the_record_raises_key_error(self):
        r = it.run(sc.parse(READBACK), it.RuleSet.rqm5(), seed=0)
        assert r.ledger.value_for("alice.A") in (0, 1)
        with pytest.raises(KeyError, match="no ledger entry for record 'bob.B'"):
            r.ledger.value_for("bob.B")

    def test_unbound_result_rejected(self):
        s = sc.parse(READBACK)
        with pytest.raises(ValueError, match="not bound"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "bob", "nope")
        with pytest.raises(ValueError, match="bound by"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "alice", "rb")


class TestPerspectives:
    PLUS = f"""scenario plus
system S 2
observer w
observer v
basis plus on 2 labels p, m vectors [{H!r}+0i, {H!r}+0i] ; [{H!r}+0i, {-H!r}+0i]
prepare state [0.6+0i, 0.8+0i] on S
measure w on S basis basis1 result m1
measure w on S basis plus result m2
"""

    def test_distinct_nodes_holding_one_state_mix_to_a_vector(self):
        # given m2 = p, the branches m1 = 0 and m1 = 1 hold two state nodes
        # with one state |+>: their mixture is pure
        ps = it.perspective(sc.parse(self.PLUS), it.RuleSet.orthodox(), "v", given={"m2": "p"})
        assert isinstance(ps.state, qcore.StateVector)
        assert np.allclose(ps.state.amplitudes, [H, H], atol=1e-12)

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

    @pytest.mark.parametrize("after", [3, -2])
    def test_after_outside_timeline_rejected(self, after):
        with pytest.raises(ValueError, match=f"event index {after} outside timeline of length 3"):
            it.perspective(sc.parse(READBACK), it.RuleSet.rqm5(), "bob", after=after)

    def test_after_must_respect_groups(self):
        s = sc.parse(GHZ)
        with pytest.raises(ValueError, match="concurrent group"):
            it.perspective(s, it.RuleSet.rqm5(), "wigner", after=4)

    @pytest.mark.parametrize("key,after", [("nosuch", None), ("rb", 1)])
    def test_given_key_must_be_an_outcome_by_after(self, key, after, monkeypatch):
        # refused by name before any branch is expanded
        def expand(*_):
            raise AssertionError("walked")
        monkeypatch.setattr(it, "_expand_group", expand)
        with pytest.raises(ValueError, match=f"given key {key!r} is not an outcome"):
            it.perspective(sc.parse(READBACK), it.RuleSet.rqm5(), "bob", after=after, given={key: 0})

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

    INTERACT_THEN_MEASURE = """scenario interact_then_measure
system S 2
agent alice record A 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S
interact alice on S basis basis1 record A
measure w on S basis {basis} result m concurrent
"""

    @pytest.mark.parametrize("kind", it.RULE_KINDS)
    def test_interaction_commutes_with_a_measure_of_its_basis(self, kind):
        # the premeasurement copies S's basis1 value, so it commutes with the
        # basis1 projectors of S and not with the basis3 ones
        s = sc.parse(self.INTERACT_THEN_MEASURE.format(basis="basis1"))
        assert sum(it.exact_joint(s, it.RuleSet(kind)).values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(it.ConcurrencyError, match="concurrent events 1 and 2 do not commute on \\['S'\\]"):
            it.exact_joint(sc.parse(self.INTERACT_THEN_MEASURE.format(basis="basis3")), it.RuleSet(kind))

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


def _chain(probs):
    """n systems prepared independently; friend fi copies Si into its record
    A; the outsider w reads every record."""
    n = len(probs)
    lines = ["scenario chain"] + [f"system S{i} 2" for i in range(1, n + 1)]
    lines += [f"agent f{i} record A 2 init 0" for i in range(1, n + 1)] + ["observer w"]
    lines += [f"prepare state [{math.sqrt(p)!r}+0i, {math.sqrt(1 - p)!r}+0i] on S{i}"
              for i, p in enumerate(probs, start=1)]
    lines += [f"interact f{i} on S{i} basis basis1 record A" for i in range(1, n + 1)]
    lines += [f"read w record f{i}.A result r{i}" for i in range(1, n + 1)]
    return sc.parse("\n".join(lines) + "\n")


def _chain_closed_form(probs, kind):
    """Keys are (a_1..a_n, r_1..r_n); p_i(0) = probs[i]."""
    n = len(probs)
    dist = [(p, 1 - p) for p in probs]
    want = {}
    for a in itertools.product((0, 1), repeat=n):
        for r in itertools.product((0, 1), repeat=n):
            pa = math.prod(d[v] for d, v in zip(dist, a))
            if kind == "rqm5":
                want[a + r] = pa * math.prod(d[v] for d, v in zip(dist, r))
            elif a == r:
                want[a + r] = pa
    return want


def _recording(monkeypatch, *names):
    """Record the dimension of the state each named qcore call sees."""
    dims = []
    for name in names:
        def recorded(s, *args, _fn=getattr(qcore, name)):
            dims.append(s.layout.total_dimension)
            return _fn(s, *args)
        monkeypatch.setattr(qcore, name, recorded)
    return dims


class TestChain:
    PROBS = (0.2, 0.35, 0.55, 0.7)
    PROBS8 = PROBS + (0.15, 0.6, 0.45, 0.8)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", it.RULE_KINDS)
    def test_closed_forms(self, n, kind):
        want = _chain_closed_form(self.PROBS[:n], kind)
        joint = it.exact_joint(_chain(self.PROBS[:n]), it.RuleSet(kind))
        for point in set(want) | set(joint):
            assert joint.get(point, 0.0) == pytest.approx(want.get(point, 0.0), abs=1e-12)

    @pytest.mark.parametrize("kind", it.RULE_KINDS)
    def test_closed_forms_chain8(self, kind):
        want = _chain_closed_form(self.PROBS8, kind)
        joint = it.exact_joint(_chain(self.PROBS8), it.RuleSet(kind))
        assert set(joint) == set(want)
        for point, p in want.items():
            assert abs(joint[point] - p) <= 1e-12

    @pytest.mark.parametrize("kind", ["orthodox", "cpl"])
    def test_kernel_sees_only_touched_factors(self, kind, monkeypatch):
        # each friend's pair S_i, A_i is one 4-dimensional factor; the dense
        # global state would have dimension 4^6
        n = 6
        dims = _recording(monkeypatch, "project", "born_distribution")
        it.exact_joint(_chain(self.PROBS8[:n]), it.RuleSet(kind))
        assert len(dims) <= 8 * n
        assert max(dims) <= 4

    def test_agent_view_projects_each_node_once(self, monkeypatch):
        # after the interactions all 2^5 fact branches share one state node,
        # and f1 holds one of two facts: two distinct views
        s = _chain(self.PROBS8[:5])
        after = max(i for i, ev in enumerate(s.timeline) if isinstance(ev, sc.Interact))
        dims = _recording(monkeypatch, "project")
        ps = it.perspective(s, it.RuleSet.rqm5(), "f1", after=after)
        assert len(dims) <= 2
        assert isinstance(ps.state, qcore.DensityMatrix)

    def test_rqm5_projects_each_state_node_once(self, monkeypatch):
        # the 2^4 fact branches share one state; read k splits 2^(k-1) nodes
        calls = []
        project = qcore.project

        def counting(*args):
            calls.append(1)
            return project(*args)

        monkeypatch.setattr(qcore, "project", counting)
        it.exact_joint(_chain(self.PROBS), it.RuleSet.rqm5())
        assert len(calls) <= 2 * (2 ** 4 - 1)

    def test_leaf_bound_refuses_before_any_kernel_call(self, monkeypatch):
        # 4^10 leaves exceed BRANCH_LIMIT; the plan's bound says so before
        # any branch is expanded, while a sampled run follows one path
        s = _chain((self.PROBS8 + (0.25, 0.65))[:10])
        dims = _recording(monkeypatch, "project", "born_distribution", "apply_local")
        with pytest.raises(it.TooManyBranchesError, match="exceeds 1000000 branches"):
            it.exact_joint(s, it.RuleSet.rqm5())
        assert dims == []
        assert len(it.run(s, it.RuleSet.rqm5(), seed=3).results) == 10

    def test_leaf_bound_counts_a_collapsed_record_once(self):
        # each orthodox collapse leaves its record on one pointer, so each
        # readout has one outcome: 2^10 leaves, not the 4^10 of rqm5
        s = _chain((self.PROBS8 + (0.25, 0.65))[:10])
        joint = it.exact_joint(s, it.RuleSet.orthodox())
        assert len(joint) == 1024
        assert all(point[:10] == point[10:] for point in joint)

    def test_rows_come_in_product_order(self):
        # every outcome is reachable, and the leaves come with the first
        # outcome key varying slowest
        s = _chain(self.PROBS[:3])
        joint = it.exact_joint(s, it.RuleSet.rqm5())
        assert list(joint) == list(itertools.product((0, 1), repeat=len(it.outcome_keys(s))))


SLOTS = """scenario slots
system S1 2
system S2 2
agent alice record A 2 init 0
observer bob
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.8+0i, 0.6+0i] on S2
measure bob on S1 basis basis1 result m
interact alice on S2 basis basis1 record A concurrent
read bob record alice.A result ra
"""


@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_rows_keyed_in_outcome_keys_order(kind):
    # a group draws its relative facts before its steps, so under rqm5/cpl
    # alice.A is drawn before m; rows are still keyed (m, alice.A, ra)
    s = sc.parse(SLOTS)
    assert it.outcome_keys(s) == ("m", "alice.A", "ra")
    pm, pa = (0.36, 0.64), (0.64, 0.36)
    if kind == "orthodox":  # the interaction collapses in event order
        drawn = [(m, a) for m in (0, 1) for a in (0, 1)]
    else:
        drawn = [(m, a) for a in (0, 1) for m in (0, 1)]
    want = {}
    for m, a in drawn:
        # the stable readout is Born distributed over the pointer under rqm5
        for r in (0, 1) if kind == "rqm5" else (a,):
            want[(m, a, r)] = pm[m] * pa[a] * (pa[r] if kind == "rqm5" else 1.0)
    joint = it.exact_joint(s, it.RuleSet(kind))
    assert list(joint) == list(want)
    for point, p in want.items():
        assert joint[point] == pytest.approx(p, abs=1e-12)


# a pointer projection of two of GHZ's three qubits, named out of layout order
GHZ_PAIR = """scenario ghz_pair
system S1 2
system S2 2
system S3 2
observer w
prepare ghz on S1, S2, S3
measure w on S3, S1 basis basis1 result m
measure w on S2 basis basis1 result m2
"""


@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_pointer_projection_splits_several_targets_off(kind, monkeypatch):
    # m splits (S3, S1) off as one factor in layout order; m2 then measures
    # the residual S2 alone
    s = sc.parse(GHZ_PAIR)
    dims = _recording(monkeypatch, "born_distribution")
    joint = it.exact_joint(s, it.RuleSet(kind))
    assert list(joint) == [(0, 0), (3, 1)]
    assert all(abs(p - 0.5) <= 1e-12 for p in joint.values())
    assert dims == [8, 2, 2]
    comp = it._plan(s, it.RuleSet(kind))
    for state, _, _, _ in it._walk(comp):
        assert [f.layout.ids for f in dict.fromkeys(state)] == [("S1", "S3"), ("S2",)]


# a qubit premeasured into a qutrit record: pointer cell "cell2" is unused
# until a readout in the Fourier basis f3 moves the record off its writer
# pointers
CELLS = """scenario cells
system S 2
agent alice record A 3 init 0
observer bob
basis f3 on 3 labels x, y, z vectors \
[0.5773502691896258+0i, 0.5773502691896258+0i, 0.5773502691896258+0i] ; \
[0.5773502691896258+0i, -0.28867513459481287+0.5i, -0.28867513459481287-0.5i] ; \
[0.5773502691896258+0i, -0.28867513459481287-0.5i, -0.28867513459481287+0.5i]
prepare state [0.6+0i, 0.8+0i] on S
interact alice on S basis basis1 record A
{mid}read bob record alice.A result rd
"""


@pytest.mark.parametrize("mid,leaves", [("", 4), ("read bob record alice.A basis f3 result rf\n", 18)])
def test_leaf_bound_counts_pointer_cells_once_reachable(mid, leaves, monkeypatch):
    # every counted label is reachable here, so the bound equals the leaf count
    s = sc.parse(CELLS.format(mid=mid))
    rules = it.RuleSet.rqm5()
    joint = it.exact_joint(s, rules)
    assert len(joint) == leaves
    assert any("cell2" in point for point in joint) == bool(mid)
    monkeypatch.setattr(it, "BRANCH_LIMIT", leaves)
    assert it.exact_joint(s, rules) == joint
    monkeypatch.setattr(it, "BRANCH_LIMIT", leaves - 1)
    with pytest.raises(it.TooManyBranchesError):
        it.exact_joint(s, rules)


def _marginal(joint, keys, result, conditioning):
    total, dist = 0.0, {}
    for point, p in joint.items():
        row = dict(zip(keys, point))
        if all(row[k] == v for k, v in conditioning.items()):
            total += p
            dist[row[result]] = dist.get(row[result], 0.0) + p
    return {k: v / total for k, v in dist.items()}


def _marginal_cases(s, joint):
    """(observer, result, conditioning) for every result, unconditioned and
    given each value of each record key that the table holds."""
    keys = it.outcome_keys(s)
    conditionings = [{}]
    for i, key in enumerate(keys):
        if "." in key:  # a record key
            conditionings += [{key: v} for v in dict.fromkeys(point[i] for point in joint)]
    for ev in s.timeline:
        if isinstance(ev, (sc.Measure, sc.ReadRecord)):
            for conditioning in conditionings:
                yield ev.observer, ev.result, conditioning


@pytest.mark.parametrize("make", [lambda: sc.parse(GHZ_MIXED), lambda: sc.parse(READBACK)],
                         ids=["ghz_mixed", "readback"])
@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_predicted_distribution_is_a_marginal_of_exact_joint(make, kind):
    # one block: every leaf is one table row, so the two folds add the same
    # numbers in the same order, equal bit for bit, key order included
    s = make()
    rules = it.RuleSet(kind)
    joint = it.exact_joint(s, rules)
    assert len(it._plan(s, rules).blocks) == 1
    for observer, result, conditioning in _marginal_cases(s, joint):
        got = it.predicted_distribution(s, rules, observer, result, conditioning)
        assert list(got.items()) == list(_marginal(joint, it.outcome_keys(s), result, conditioning).items())


@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_chain_marginals_fold_their_own_blocks(kind):
    # chain4 is four blocks; a marginal sums only its own blocks' rows, so
    # it stays within 1e-12 of the whole table's fold and within 1e-15 of
    # the closed form: r_i is p_i-distributed, and pinned or collapsed onto
    # the fact f_i.A outside rqm5
    s = _chain(TestChain.PROBS)
    rules = it.RuleSet(kind)
    joint = it.exact_joint(s, rules)
    for observer, result, conditioning in _marginal_cases(s, joint):
        got = it.predicted_distribution(s, rules, observer, result, conditioning)
        fold = _marginal(joint, it.outcome_keys(s), result, conditioning)
        assert list(got) == list(fold)
        assert all(abs(got[x] - fold[x]) <= 1e-12 for x in fold)
        i = int(result[1:])
        fact = conditioning.get(f"f{i}.A")
        if kind == "rqm5" or fact is None:
            p = TestChain.PROBS[i - 1]
            want = {0: p, 1: 1 - p}
        else:
            want = {fact: 1.0}
        assert set(got) == set(want)
        assert all(abs(got[x] - want[x]) <= 1e-15 for x in want)


@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_chain_marginal_does_not_depend_on_the_chain_length(kind):
    # the paper's first claim on chain(n): a fact predicts nothing about the
    # outsider's readout under rqm5, P(r1 = 0 | f1.A = 0) = p1 = 0.3.  The
    # query reads f1's block alone, so every n gives the same float
    values = []
    for n in range(1, 13):
        s = _chain((0.3,) + TestMarginalPastTheLimit.PROBS12[1:n])
        values.append(it.predicted_distribution(s, it.RuleSet(kind), "w", "r1", {"f1.A": 0}))
    assert all(list(v.items()) == list(values[0].items()) for v in values)
    want = {0: 0.3, 1: 0.7} if kind == "rqm5" else {0: 1.0}
    assert set(values[0]) == set(want)
    assert all(abs(values[0][x] - want[x]) <= 1e-15 for x in want)


@pytest.mark.parametrize("kind", it.RULE_KINDS)
def test_scenario_without_subsystems(kind):
    # no factors at all: the state is the one-dimensional vector [1]
    s = sc.parse("scenario empty\nobserver o\n")
    assert it.exact_joint(s, it.RuleSet(kind)) == {(): 1.0}
    state = it.run(s, it.RuleSet(kind), seed=0).perspectives["o"].state
    assert state.layout.subsystems == () and state.amplitudes.tolist() == [1.0]
    assert it.perspective(s, it.RuleSet(kind), "o").state.amplitudes.tolist() == [1.0]


class TestValidationGate:
    def test_invalid_scenario_rejected(self):
        text = """scenario bad
system S 2
agent a record R 2 init 0
interact a on S basis basis1 record R
"""
        with pytest.raises(ValueError, match="does not validate"):
            it.run(sc.parse(text), it.RuleSet.rqm5(), seed=0)

    SKEW = sc.BasisDecl("skew", 2, (0, 1), ((1 + 0j, 0j), (0.6 + 0j, 0.8 + 0j)))
    NAN_BASIS = sc.BasisDecl("nan", 2, (0, 1), ((complex("nan"), 0j), (0j, 1 + 0j)))
    QUBIT = sc.RawState((1 + 0j, 0j))

    # literals built in code, as library callers build them: the parser
    # would refuse them, and the kernel raises without an event index
    @pytest.mark.parametrize("bases,timeline,index,fragment", [
        ((), (sc.Prepare(sc.RawState((1 + 0j, 0j, 0j)), ("S",)),), 0,
         "dimension mismatch: 3 amplitudes for a target space of dimension 2"),
        ((), (sc.Prepare(sc.RawState((0.6 + 0j, 0.7 + 0j)), ("S",)),), 0, "unnormalized state literal"),
        ((), (sc.Prepare(sc.SchmidtState(0.3, 0.4), ("S", "T")),), 0, "unnormalized state literal"),
        ((SKEW,), (sc.Prepare(QUBIT, ("S",)), sc.Interact("a", ("S",), sc.NamedBasis("skew"), "R")), 1,
         "basis 'skew' vectors are not orthonormal (rows 0 and 1)"),
        # NaN fails every tolerance test
        ((), (sc.Prepare(sc.RawState((complex("nan"), 1 + 0j)), ("S",)),), 0, "unnormalized state literal"),
        ((), (sc.Prepare(sc.SchmidtState(math.nan, 1.0), ("S", "T")),), 0, "unnormalized state literal"),
        ((NAN_BASIS,), (sc.Prepare(QUBIT, ("S",)), sc.Interact("a", ("S",), sc.NamedBasis("nan"), "R")), 1,
         "basis 'nan' vectors are not orthonormal (rows 0 and 0)"),
    ], ids=["raw_length", "raw_norm", "schmidt_norm", "basis_not_orthonormal", "raw_nan", "schmidt_nan", "basis_nan"])
    def test_kernel_rejected_literals_do_not_validate(self, bases, timeline, index, fragment):
        s = sc.Scenario("lit", (("S", 2), ("T", 2)), (sc.AgentDecl("a", (sc.RecordDecl("R", 2, 0),)),),
                        (), bases, timeline)
        diags = sc.validate(s)
        assert [d.event_index for d in diags] == [index]
        assert fragment in diags[0].reason
        with pytest.raises(ValueError, match="does not validate"):
            it.exact_joint(s, it.RuleSet.rqm5())

    # declarations built in code: a bad init index used to raise a bare
    # IndexError while compiling, a dimension-1 system a kernel error
    @pytest.mark.parametrize("systems,record,reason", [
        ((("S", 2),), sc.RecordDecl("R", 2, 5),
         "declaration of 'a.R': init index 5 out of range for dimension 2"),
        ((("S", 2),), sc.RecordDecl("R", 1, 0), "declaration of 'a.R': record dimension must be >= 2, got 1"),
        ((("S", 1),), sc.RecordDecl("R", 2, 0), "declaration of 'S': system dimension must be >= 2, got 1"),
    ], ids=["record_init", "record_dim", "system_dim"])
    def test_bad_declarations_do_not_validate(self, systems, record, reason):
        s = sc.Scenario("decl", systems, (sc.AgentDecl("a", (record,)),), (), (),
                        (sc.Prepare(sc.RawState((1 + 0j,) + (0j,) * (systems[0][1] - 1)), ("S",)),))
        assert sc.validate(s) == [sc.Diagnostic(None, reason)]
        with pytest.raises(ValueError) as info:
            it.exact_joint(s, it.RuleSet.rqm5())
        assert str(info.value) == f"scenario 'decl' does not validate: {reason}"

    # names and targets built in code that the parser refuses: the kernel
    # failed without naming an event, or the run went on with one of them
    R = sc.RecordDecl("R", 2, 0)
    IDENTITY = sc.BasisDecl("b", 2, (0, 1), ((1 + 0j, 0j), (0j, 1 + 0j)))
    FLIPPED = sc.BasisDecl("b", 2, ("x", "y"), ((0j, 1 + 0j), (1 + 0j, 0j)))
    MEASURE = sc.Measure("o", ("S",), sc.NamedBasis("b"), "m")

    @pytest.mark.parametrize("systems,agents,observers,bases,timeline,want", [
        ((("S", 2), ("S", 2)), (sc.AgentDecl("a", (R,)),), (), (), (sc.Prepare(QUBIT, ("S",)),),
         sc.Diagnostic(None, "duplicate declaration of 'S'")),
        ((("S", 2),), (sc.AgentDecl("a", (R, R)),), (), (), (sc.Prepare(QUBIT, ("S",)),),
         sc.Diagnostic(None, "duplicate declaration of 'a.R'")),
        ((("S", 2),), (), (sc.ObserverDecl("o"),), (IDENTITY, FLIPPED), (sc.Prepare(QUBIT, ("S",)), MEASURE),
         sc.Diagnostic(None, "duplicate declaration of 'b'")),
        ((("S", 2),), (sc.AgentDecl("o", (R,)),), (sc.ObserverDecl("o"),), (IDENTITY,),
         (sc.Prepare(QUBIT, ("S",)), MEASURE), sc.Diagnostic(None, "duplicate declaration of 'o'")),
        ((("S", 2),), (), (sc.ObserverDecl("o"),), (),
         (sc.Prepare(QUBIT, ("S",)), sc.Measure("o", ("S", "S"), sc.PresetBasis("basis1"), "m")),
         sc.Diagnostic(1, "repeated target")),
        ((("S", 2),), (), (), (), (sc.Prepare(sc.SchmidtState(0.6, 0.8), ("S", "S")),),
         sc.Diagnostic(0, "repeated target")),
    ], ids=["two_systems", "two_records", "two_bases", "agent_and_observer", "measure_target", "prepare_target"])
    def test_duplicates_do_not_validate(self, systems, agents, observers, bases, timeline, want):
        s = sc.Scenario("dup", systems, agents, observers, bases, timeline)
        assert sc.validate(s) == [want]
        with pytest.raises(ValueError) as info:
            it.exact_joint(s, it.RuleSet.rqm5())
        assert str(info.value) == f"scenario 'dup' does not validate: {want}"

    def test_unused_bad_basis_declaration_validates(self):
        s = sc.Scenario("lit", (("S", 2),), (), (), (self.SKEW,), (sc.Prepare(self.QUBIT, ("S",)),))
        assert sc.validate(s) == []
        assert it.exact_joint(s, it.RuleSet.rqm5()) == {(): 1.0}


TILT = """
scenario tilt
system S 2
agent alice record A 2 init 0
observer bob
basis tilt on 2 labels up, down vectors [0.6+0i, 0.8+0i] ; [0.8+0i, -0.6+0i]
prepare state [1+0i, 0+0i] on S
interact alice on S basis tilt record A
read bob record alice.A result rb
measure bob on S basis tilt result rs
"""


@pytest.mark.parametrize("kind,want", [
    # |0> = 0.6|up> + 0.8|down>: a collapse or a pin makes all three agree
    ("orthodox", {("up",) * 3: 0.36, ("down",) * 3: 0.64}),
    ("cpl", {("up",) * 3: 0.36, ("down",) * 3: 0.64}),
    # the readout is Born distributed whatever the fact; S then follows it
    ("rqm5", {("up", "up", "up"): 0.1296, ("up", "down", "down"): 0.2304,
              ("down", "up", "up"): 0.2304, ("down", "down", "down"): 0.4096}),
])
def test_declared_basis_closed_forms(kind, want):
    joint = it.exact_joint(sc.parse(TILT), it.RuleSet(kind))
    assert set(joint) == set(want)
    for point, p in want.items():
        assert abs(joint[point] - p) <= 1e-12


def test_pin_turns_relative_fact_into_known_result():
    # given alice's fact, a pinned readout is certain and the outsider's state
    # pure; without the pin the readout stays Born distributed and mixed
    s = sc.parse((SCENARIOS / "cpl.wfs").read_text(encoding="utf-8"))
    pinned = it.perspective(s, it.RuleSet.rqm5_cpl(), "bob", given={"alice.A": 1})
    assert pinned.knowledge == (("alice.A", 1), ("rb", 1))
    assert isinstance(pinned.state, qcore.StateVector)
    free = it.perspective(s, it.RuleSet.rqm5(), "bob", given={"alice.A": 1})
    assert free.knowledge == (("alice.A", 1),)
    assert isinstance(free.state, qcore.DensityMatrix)


# ---------------------------------------------------------------------------
# independent blocks


def _block_keys(s, rules):
    comp = it._compile(s, rules)
    return [tuple(comp.slots[at] for at in block.slots) for block in comp.blocks]


def _single_walk_table(comp):
    """The table folded from one walk of the whole plan, rows in leaf order."""
    out = {}
    for _, probs, labels, _ in it._walk(comp):
        weight = 1.0
        for p in probs:
            weight *= p
        row = labels if comp.point_order is None else tuple(labels[at] for at in comp.point_order)
        out[row] = out.get(row, 0.0) + weight
    return out


def _first_block_error(comp):
    """The first error met walking the plan's blocks one at a time, in order."""
    try:
        for block in comp.blocks:
            for _ in it._walk(comp, block):
                pass
    except ValueError as exc:
        return exc
    raise AssertionError(f"no block of {comp.name!r} raises")


def _assert_raises_the_first_block_error(s, rules, walked):
    # the single walk and the table fail alike, and the table's error is
    # its first block's; every observer's perspective raises that error too
    comp = it._plan(s, rules)
    first = _first_block_error(comp)
    assert type(first) is type(walked)
    with pytest.raises(type(walked)) as info:
        it.exact_joint(s, rules)
    assert str(info.value) == str(first)
    for name in comp.observers:
        with pytest.raises(type(walked)) as info:
            it.perspective(s, rules, name)
        assert str(info.value) == str(first)


def _scenario_literals():
    """Every scenario literal in these test modules that parses and validates."""
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for text in re.findall(r'"""\n?(scenario .*?)"""', path.read_text(encoding="utf-8"), re.S):
            try:
                s = sc.parse(text.replace("\\\n", "").replace("{mid}", ""))
            except sc.ScenarioError:
                continue  # an f-string template
            if not sc.validate(s):
                found.append(s)
    return found


# alice's and bob's systems are independent, but under rqm5/cpl one pool
# makes bob's fact conditional on alice's; carol's block stays apart
PARTITIONED = """scenario partitioned
system S1 2
system S2 2
system S3 2
agent alice record A 2 init 0
agent bob record B 2 init 0
agent carol record C 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.8+0i, 0.6+0i] on S2
prepare state [0.28+0i, 0.96+0i] on S3
partition p group alice, bob
interact alice on S1 basis basis1 record A
interact carol on S3 basis basis3 record C
interact bob on S2 basis basis1 record B
read w record alice.A result ra
read w record bob.B result rb
read w record carol.C result rc
"""

# an agent conditions on its own earlier facts under rqm5/cpl
TWICE = """scenario twice
system S1 2
system S2 2
system S3 2
agent alice record A 2 init 0 record B 2 init 0
agent carol record C 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.8+0i, 0.6+0i] on S2
prepare state [0.28+0i, 0.96+0i] on S3
interact alice on S1 basis basis1 record A
interact carol on S3 basis basis3 record C
interact alice on S2 basis basis1 record B
read w record alice.A result ra
measure w on S2 basis basis2 result m
read w record alice.B result rb
read w record carol.C result rc
"""

# a concurrent group joins its events' subsystems under every rule set
CONCURRENT = """scenario concurrent
system S1 2
system S2 2
system S3 2
agent alice record A 2 init 0
observer bob
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.8+0i, 0.6+0i] on S2
prepare state [0.28+0i, 0.96+0i] on S3
measure bob on S1 basis basis1 result m
interact alice on S2 basis basis1 record A concurrent
measure bob on S3 basis basis2 result m3
read bob record alice.A result ra
"""

# under rqm5 each agent's second fact conditions on a first one that w's read
# has collapsed; alice's block draws first, so a table of both blocks raises
# alice's error, while the single walk meets bob's zero-probability branch
# (rb=1 after bob.B1=0) first, deeper in its tree
TWO_FAILURES = """scenario two_failures
system S1 2
system S2 2
system T1 2
system T2 2
agent alice record A1 2 init 0 record A2 2 init 0
agent bob record B1 2 init 0 record B2 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.6+0i, 0.8+0i] on S2
prepare state [0.6+0i, 0.8+0i] on T1
prepare state [0.6+0i, 0.8+0i] on T2
interact alice on S1 basis basis1 record A1
read w record alice.A1 result ra
interact bob on T1 basis basis1 record B1
read w record bob.B1 result rb
interact bob on T2 basis basis1 record B2
interact alice on S2 basis basis1 record A2
"""

RULE_VARIANTS = [it.RuleSet("orthodox"), it.RuleSet.rqm5(), it.RuleSet.rqm5("both"),
                 it.RuleSet.rqm5_cpl(), it.RuleSet.rqm5_cpl("both")]


@pytest.mark.parametrize("rules", RULE_VARIANTS, ids=lambda r: f"{r.kind}-{r.fact_holder}")
def test_blocks_combine_to_the_single_walk_table(rules):
    # values bit for bit and rows in the same order, on every scenario at hand
    scenarios = [sc.parse(sc.bundled_scenario_text(name)) for name in sc.BUNDLED_SCENARIOS]
    scenarios += [_chain(TestChain.PROBS8[:n]) for n in range(1, 7)]
    scenarios += [sc.parse(text) for text in (PARTITIONED, TWICE, CONCURRENT)] + _scenario_literals()
    combined = 0
    for s in scenarios:
        try:
            comp = it._compile(s, rules)
        except it.ConcurrencyError:
            continue
        try:
            want = _single_walk_table(comp)
        except ValueError as exc:
            _assert_raises_the_first_block_error(s, rules, exc)
            continue
        got = it.exact_joint(s, rules)
        assert list(got) == list(want), s.name
        assert all(type(got[row]) is float and got[row] == want[row] for row in want), s.name
        combined += len(comp.blocks) > 1
    assert combined >= 8


@pytest.mark.parametrize("text,orthodox,relative", [
    (PARTITIONED, [("alice.A", "ra"), ("carol.C", "rc"), ("bob.B", "rb")],
     [("alice.A", "bob.B", "ra", "rb"), ("carol.C", "rc")]),
    (TWICE, [("alice.A", "ra"), ("carol.C", "rc"), ("alice.B", "m", "rb")],
     [("alice.A", "alice.B", "ra", "m", "rb"), ("carol.C", "rc")]),
    (CONCURRENT, [("m", "alice.A", "ra"), ("m3",)], [("alice.A", "m", "ra"), ("m3",)]),
], ids=["partition", "interacts_twice", "concurrent"])
def test_coupled_outcomes_share_a_block(text, orthodox, relative):
    # pools condition facts only under rqm5/cpl; a concurrent group always couples
    s = sc.parse(text)
    assert _block_keys(s, it.RuleSet.orthodox()) == orthodox
    for rules in RULE_VARIANTS[1:]:
        assert _block_keys(s, rules) == relative


@pytest.mark.parametrize("rules", RULE_VARIANTS, ids=lambda r: f"{r.kind}-{r.fact_holder}")
def test_no_outcomes_is_one_float_row(rules):
    # two untouched subsystems, or none: math.prod(()) would be the int 1
    for text in ("scenario empty\nobserver o\n",
                 "scenario idle\nsystem S 2\nsystem T 2\nprepare state [0.6+0i, 0.8+0i] on S\n"
                 "prepare state [0.8+0i, 0.6+0i] on T\n"):
        joint = it.exact_joint(sc.parse(text), rules)
        assert list(joint) == [()] and type(joint[()]) is float and joint[()] == 1.0


def test_errors_follow_the_block_order():
    # each query walks only its own blocks, in the order of their first
    # outcome, and raises the first error it meets
    rules = it.RuleSet.rqm5()
    s = sc.parse(TWO_FAILURES)
    assert _block_keys(s, rules) == [("alice.A1", "ra", "alice.A2"), ("bob.B1", "rb", "bob.B2")]
    for query in (lambda: it.exact_joint(s, rules), lambda: it.predicted_distribution(s, rules, "w", "ra")):
        with pytest.raises(qcore.ZeroProbabilityError, match="'alice.A1'=0"):
            query()
    with pytest.raises(qcore.ZeroProbabilityError, match="'bob.B1'=0"):
        it.predicted_distribution(s, rules, "w", "rb")
    # perspective walks the whole plan, yet raises the tables' error; before
    # alice's second interaction (after=8) only bob's block fails
    for name in ("alice", "bob", "w"):
        with pytest.raises(qcore.ZeroProbabilityError, match="'alice.A1'=0"):
            it.perspective(s, rules, name, after=9)
        with pytest.raises(qcore.ZeroProbabilityError, match="'bob.B1'=0"):
            it.perspective(s, rules, name, after=8)
    truncated = sc.Scenario(s.name, s.systems, s.agents, s.observers, s.bases, s.timeline[:9])
    with pytest.raises(qcore.ZeroProbabilityError, match="'bob.B1'=0"):
        it.exact_joint(truncated, rules)
    # without alice's second interaction her block answers; bob's still fails
    s = sc.parse(TWO_FAILURES.replace("interact alice on S2 basis basis1 record A2\n", ""))
    got = it.predicted_distribution(s, rules, "w", "ra")
    assert list(got) == [0, 1]
    assert abs(got[0] - 0.36) <= 1e-12 and abs(got[1] - 0.64) <= 1e-12
    with pytest.raises(qcore.ZeroProbabilityError, match="'bob.B1'=0"):
        it.exact_joint(s, rules)


def test_run_checks_only_its_sampled_path():
    # the table raises, but a seeded run expands one history: a seed whose
    # reads agree with both first facts returns, any other raises
    s = sc.parse(TWO_FAILURES)
    rules = it.RuleSet.rqm5()
    returned = []
    for seed in range(8):
        try:
            result = it.run(s, rules, seed)
        except qcore.ZeroProbabilityError:
            continue
        returned.append(seed)
        ledger = {e.observable: e.outcome for e in result.ledger.entries}
        assert result.results["ra"] == ledger["alice.A1"] and result.results["rb"] == ledger["bob.B1"]
    assert 0 < len(returned) < 8


PAIR_STATES = ("schmidt(0.6, 0.8)", "schmidt(0.28, 0.96)",
               "state [0.6+0i, 0+0i, 0+0.48i, 0.64+0i]", "state [0.5+0i, 0.5+0i, 0.5+0i, -0.5+0i]")


@st.composite
def _paired_scenarios(draw):
    """Two or three qubit pairs, each coupled only by its joint preparation:
    agent ai or bi copies the pair's side a or b in basis1 or basis3, w reads
    the records (in the pointer basis or basis2) and measures the systems,
    and a partition may put two agents in one pool.  Events come in shuffled
    order, each after the preparation and the write it needs."""
    pairs = draw(st.integers(2, 3))
    lines = ["scenario paired"] + [f"system P{i}{side} 2" for i in range(pairs) for side in "ab"]
    lines += [f"agent {side}{i} record R 2 init 0" for i in range(pairs) for side in "ab"] + ["observer w"]
    events = []  # (line, what it provides, what it needs)
    for i in range(pairs):
        events.append((f"prepare {draw(st.sampled_from(PAIR_STATES))} on P{i}a, P{i}b", f"P{i}", ()))
        actions = draw(st.lists(st.tuples(st.sampled_from(["read", "measure"]), st.sampled_from("ab")),
                                min_size=1, max_size=2, unique=True))
        for kind, side in actions:
            if kind == "measure":
                basis = draw(st.sampled_from(["basis1", "basis2", "basis3"]))
                events.append((f"measure w on P{i}{side} basis {basis} result m{i}{side}", None, (f"P{i}",)))
                continue
            basis = draw(st.sampled_from(["basis1", "basis3"]))
            events.append((f"interact {side}{i} on P{i}{side} basis {basis} record R", f"{side}{i}", (f"P{i}",)))
            read = draw(st.sampled_from(["", " basis basis2"]))
            events.append((f"read w record {side}{i}.R{read} result r{i}{side}", None, (f"{side}{i}",)))
    if draw(st.booleans()):
        agents = [f"{side}{i}" for i in range(pairs) for side in "ab"]
        events.append((f"partition p group {', '.join(draw(st.permutations(agents))[:2])}", None, ()))
    done: set = set()
    waiting = []
    for event in draw(st.permutations(events)):
        waiting.append(event)
        while ready := [e for e in waiting if done.issuperset(e[2])]:
            for e in ready:
                waiting.remove(e)
                lines.append(e[0])
                done.add(e[1])
    return sc.parse("\n".join(lines) + "\n")


@settings(max_examples=40, deadline=None)
@given(_paired_scenarios())
def test_generated_blocks_combine_to_the_single_walk_table(s):
    assert sc.validate(s) == []
    keys = it.outcome_keys(s)
    for rules in RULE_VARIANTS:
        comp = it._plan(s, rules)
        try:
            want = _single_walk_table(comp)
        except ValueError as exc:
            _assert_raises_the_first_block_error(s, rules, exc)
            continue
        got = it.exact_joint(s, rules)
        assert list(got) == list(want)
        assert all(type(got[row]) is float and got[row] == want[row] for row in want)
        for seed in range(3):
            result = it.run(s, rules, seed)
            values = dict(result.results)
            values.update((e.observable, e.outcome) for e in result.ledger.entries)
            assert got.get(tuple(values[key] for key in keys), 0.0) > 0.0


def test_deep_plan_answers():
    # 1500 readouts of one record: the combine and the walk keep explicit
    # stacks, where recursion would pass Python's limit
    lines = ["scenario deep", "system S 2", "agent a record A 2 init 0", "observer w",
             "prepare state [0.6+0i, 0.8+0i] on S", "interact a on S basis basis1 record A"]
    lines += [f"read w record a.A result r{k}" for k in range(1500)]
    joint = it.exact_joint(sc.parse("\n".join(lines) + "\n"), it.RuleSet.orthodox())
    assert list(joint) == [(0,) * 1501, (1,) * 1501]
    assert joint[(0,) * 1501] == pytest.approx(0.36, abs=1e-12)
    assert joint[(1,) * 1501] == pytest.approx(0.64, abs=1e-12)


class TestMarginalPastTheLimit:
    PROBS12 = TestChain.PROBS8 + (0.25, 0.65, 0.3, 0.5)

    @pytest.mark.parametrize("fact_holder", it.FACT_HOLDERS)
    def test_walks_only_its_own_blocks(self, fact_holder, monkeypatch):
        # 4^12 leaves refuse the whole table; r1 given f1.A needs chain block 1
        # alone, and the stable readout is Born distributed whatever the fact
        s = _chain(self.PROBS12)
        rules = it.RuleSet.rqm5(fact_holder)
        with pytest.raises(it.TooManyBranchesError):
            it.exact_joint(s, rules)
        dims = _recording(monkeypatch, "project", "born_distribution", "apply_local")
        got = it.predicted_distribution(s, rules, "w", "r1", {"f1.A": 0})
        assert list(got) == [0, 1]
        assert abs(got[0] - 0.2) <= 1e-12 and abs(got[1] - 0.8) <= 1e-12
        assert 0 < len(dims) <= 5

    def test_needed_blocks_past_the_limit_are_refused_before_any_kernel_call(self, monkeypatch):
        s = _chain(self.PROBS12)
        dims = _recording(monkeypatch, "project", "born_distribution", "apply_local")
        with pytest.raises(it.TooManyBranchesError, match="exceeds 1000000 branches"):
            it.predicted_distribution(s, it.RuleSet.rqm5(), "w", "r1", {f"f{i}.A": 0 for i in range(1, 13)})
        assert dims == []


def _state_bytes(state) -> bytes:
    return (state.amplitudes if isinstance(state, qcore.StateVector) else state.matrix).tobytes()


class TestPlanCache:
    """Each scenario object is validated once and compiled once per rule set."""

    @staticmethod
    def _counting(monkeypatch):
        calls = {"validate": 0, "compile": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(sc, "validate", counted("validate", sc.validate))
        monkeypatch.setattr(it, "_compile", counted("compile", it._compile))
        return calls

    def test_repeated_calls_neither_validate_nor_compile(self, monkeypatch):
        s = _chain(TestChain.PROBS[:3])
        rules = it.RuleSet.rqm5()
        calls = self._counting(monkeypatch)
        it.exact_joint(s, rules)
        assert calls == {"validate": 1, "compile": 1}
        it.exact_joint(s, rules)
        it.run(s, rules, seed=3)
        it.predicted_distribution(s, rules, "w", "r1", {"f1.A": 0})
        it.perspective(s, rules, "w")
        assert calls == {"validate": 1, "compile": 1}
        # a truncated timeline is a plan of its own, and is not kept
        it.perspective(s, rules, "w", after=5)
        it.perspective(s, rules, "w", after=5)
        assert calls == {"validate": 1, "compile": 3}

    def test_each_rule_set_compiles_its_own_plan(self, monkeypatch):
        s = _chain(TestChain.PROBS[:2])
        calls = self._counting(monkeypatch)
        for rules in RULE_VARIANTS + RULE_VARIANTS:
            it.run(s, rules, seed=1)
        assert calls == {"validate": 1, "compile": len(RULE_VARIANTS)}
        assert [plan.rules for plan in it._plans[id(s)].values()] == RULE_VARIANTS

    @pytest.mark.parametrize("rules", RULE_VARIANTS, ids=lambda r: f"{r.kind}-{r.fact_holder}")
    def test_outputs_repeat_bit_for_bit(self, rules):
        s = _chain(TestChain.PROBS)
        want = it.exact_joint(_chain(TestChain.PROBS), rules)
        tables = [it.exact_joint(s, rules) for _ in range(10)]
        for table in (tables[0], tables[9]):
            assert list(table) == list(want)
            assert all(type(table[row]) is float and table[row] == want[row] for row in want)
        runs = [it.run(s, rules, seed=7) for _ in range(3)]
        fresh = it.run(_chain(TestChain.PROBS), rules, seed=7)
        for result in runs:
            assert (result.results, result.ledger, result.pins) == (fresh.results, fresh.ledger, fresh.pins)
            for name, view in result.perspectives.items():
                assert np.array_equal(view.state.amplitudes, fresh.perspectives[name].state.amplitudes)

    def test_invalid_scenario_raises_on_every_call(self, monkeypatch):
        s = _chain(TestChain.PROBS[:2])
        bad = dataclasses.replace(s, timeline=s.timeline + (
            sc.Measure("nobody", ("S1",), sc.PresetBasis("basis1"), "x"),))
        calls = self._counting(monkeypatch)
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown observer 'nobody'"):
                it.exact_joint(bad, it.RuleSet.orthodox())
        assert calls == {"validate": 3, "compile": 0}
        assert id(bad) not in it._plans

    def test_plans_live_as_long_as_their_scenario(self):
        gc.collect()  # scenarios of earlier tests that only a cycle still holds
        before = len(it._plans)
        s = _chain(TestChain.PROBS[:2])
        for rules in RULE_VARIANTS:
            it.exact_joint(s, rules)
        assert len(it._plans) == before + 1
        del s
        gc.collect()
        assert len(it._plans) == before

    def test_branch_limit_is_read_on_every_call(self, monkeypatch):
        s = _chain(TestChain.PROBS[:3])
        rules = it.RuleSet.rqm5()
        assert len(it.exact_joint(s, rules)) == 64
        monkeypatch.setattr(it, "BRANCH_LIMIT", 63)
        with pytest.raises(it.TooManyBranchesError, match="exceeds 63 branches"):
            it.exact_joint(s, rules)
        with pytest.raises(it.TooManyBranchesError, match="exceeds 63 branches"):
            it.perspective(s, rules, "w")

    def test_a_scenario_holding_a_list_is_validated_on_every_call(self, monkeypatch):
        s = _chain(TestChain.PROBS[:2])
        listed = dataclasses.replace(s, timeline=list(s.timeline))
        calls = self._counting(monkeypatch)
        rules = it.RuleSet.orthodox()
        assert it.exact_joint(listed, rules) == it.exact_joint(s, rules)
        assert calls == {"validate": 2, "compile": 2}
        assert id(listed) not in it._plans
        listed.timeline.append(sc.Measure("nobody", ("S1",), sc.PresetBasis("basis1"), "x"))
        for call in (lambda: it.exact_joint(listed, rules), lambda: it.perspective(listed, rules, "w")):
            with pytest.raises(ValueError, match="unknown observer 'nobody'"):
                call()

    def test_plan_tables_stop_growing_once_warm(self):
        s = _chain(TestChain.PROBS8[:7])
        for rules in (it.RuleSet.orthodox(), it.RuleSet.rqm5(), it.RuleSet.rqm5_cpl()):
            it.exact_joint(s, rules)
            it.run(s, rules, seed=0)
            comp = it._plan(s, rules)
            # layouts: each friend's merged (S_i, f_i.A) and residual S_i, and the
            # whole layout of the perspectives; pointers: one per record and label
            assert (len(comp.layouts), len(comp.pointers)) == (15, 14)
            for seed in range(1, 16):
                it.exact_joint(s, rules)
                it.run(s, rules, seed=seed)
            assert (len(comp.layouts), len(comp.pointers)) == (15, 14)

    @pytest.mark.parametrize("rules", RULE_VARIANTS, ids=lambda r: f"{r.kind}-{r.fact_holder}")
    def test_a_warm_plan_answers_as_a_fresh_one(self, rules):
        def answers(scenario):
            """Each answer as exact bytes, every call on ``scenario()``."""
            table = it.exact_joint(scenario(), rules)
            out = [[(row, p.hex()) for row, p in table.items()]]
            for seed in range(4):
                result = it.run(scenario(), rules, seed=seed)
                out.append((result.results, result.ledger, result.pins, result.anomalies,
                            [(name, _state_bytes(view.state), view.knowledge)
                             for name, view in result.perspectives.items()]))
            for observer in ("f1", "f4", "w"):
                view = it.perspective(scenario(), rules, observer)
                out.append((_state_bytes(view.state), view.knowledge))
            for given in (None, {"f2.A": 1}):
                dist = it.predicted_distribution(scenario(), rules, "w", "r2", given)
                out.append([(label, p.hex()) for label, p in dist.items()])
            return out

        warm = _chain(TestChain.PROBS)
        answers(lambda: warm)  # fills the plan's layout and pointer tables
        tables = it._plan(warm, rules)
        assert tables.layouts and tables.pointers
        assert answers(lambda: warm) == answers(lambda: _chain(TestChain.PROBS))

    def test_shared_pointer_factors_merge_no_mixture_node(self, monkeypatch):
        # alice's rqm5 view of epr mixes four branches that hold two states: her
        # fact projects the branches where it agrees with bob's result and leaves
        # the others alone.  All four hold the plan's factor for bob's SB pointer,
        # yet the mixture groups branches by factor identity, so they stay four nodes
        rules = it.RuleSet.rqm5()
        seen = []
        mixture = it._mixture
        monkeypatch.setattr(it, "_mixture", lambda comp, states: seen.append((comp, states)) or mixture(comp, states))
        s = sc.parse(sc.bundled_scenario_text("epr"))
        views = [it.perspective(s, rules, "alice") for _ in range(3)]
        views.append(it.perspective(sc.parse(sc.bundled_scenario_text("epr")), rules, "alice"))
        assert len(seen) == 4
        for comp, states in seen:
            pointers = list(comp.pointers.values())
            assert all(any(f is ptr for f in state for ptr in pointers) for _, state in states)
            assert len({state for _, state in states}) == len(states) == 4
            assert len({tuple(f.amplitudes.tobytes() for f in dict.fromkeys(state)) for _, state in states}) == 2
        assert len({_state_bytes(view.state) for view in views}) == 1

    def test_equal_scenarios_keep_their_own_plans(self):
        # labels 1 and 1.0 compare equal, so the two scenarios do too, yet
        # each reports its own labels
        text = ("scenario typed\nsystem S 2\nagent a record A 2 init 0\n"
                "basis b on 2 labels 1, 2 vectors [1+0i, 0+0i] ; [0+0i, 1+0i]\n"
                "prepare state [0.6+0i, 0.8+0i] on S\ninteract a on S basis b record A\n")
        ints, floats = sc.parse(text), sc.parse(text.replace("labels 1, 2", "labels 1.0, 2.0"))
        assert ints == floats
        rules = it.RuleSet.rqm5()
        assert [type(row[0]) for row in it.exact_joint(ints, rules)] == [int, int]
        assert [type(row[0]) for row in it.exact_joint(floats, rules)] == [float, float]


# a qubit copied into a record of dimension {dim}, and the record read
BIG = """scenario big
system S 2
agent a record R {dim} init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S
interact a on S basis basis1 record R
read w record a.R result r
"""


class TestEntryLimit:
    @pytest.mark.parametrize("dim,entries", [(6000, 12000 ** 2), (40000, 80000 ** 2)])
    def test_oversized_plan_is_refused_before_allocating(self, dim, entries):
        # 2.15 GiB and 95 GiB of premeasurement matrix
        s = sc.parse(BIG.format(dim=dim))
        refusal = rf"scenario 'big': event 1 builds an array of {entries} entries, over the limit of {it.ENTRY_LIMIT}"
        tracemalloc.start()
        try:
            for call in (lambda rules: it.exact_joint(s, rules),
                         lambda rules: it.run(s, rules, seed=0),
                         lambda rules: it.predicted_distribution(s, rules, "w", "r"),
                         lambda rules: it.perspective(s, rules, "w", after=1)):
                for rules in RULE_VARIANTS:
                    with pytest.raises(ValueError, match=f"^{refusal}$"):
                        call(rules)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22
        assert it._plans[id(s)] == {}  # validated, and no plan kept

    def test_initial_vectors_count(self, monkeypatch):
        # a record no event touches still gets an initial vector
        monkeypatch.setattr(it, "ENTRY_LIMIT", 1000)
        untouched = BIG.format(dim=2) + "agent b record Q {dim} init 3\n"
        with pytest.raises(ValueError, match="the initial state of 'b.Q' builds an array of 1001 entries"):
            it.exact_joint(sc.parse(untouched.format(dim=1001)), it.RuleSet.orthodox())
        joint = it.exact_joint(sc.parse(untouched.format(dim=1000)), it.RuleSet.orthodox())
        assert joint == pytest.approx({(0, 0): 0.36, (1, 1): 0.64}, abs=1e-12)

    def test_premeasurement_at_the_limit_is_admitted(self):
        # a qubit copied into a record of dimension 2048 needs 4096^2 entries,
        # the limit; the array is counted, not built
        s = sc.parse(BIG.format(dim=2048))
        assert it._largest_array(s, dict(sc.layout_of(s).subsystems)) == (it.ENTRY_LIMIT, "event 1")
        with pytest.raises(ValueError, match="event 1 builds an array of 16793604 entries"):
            it.exact_joint(sc.parse(BIG.format(dim=2049)), it.RuleSet.orthodox())

    def test_concurrent_events_count_their_joint_support(self):
        # the premeasurement and each measurement alone hold 4096^2 entries,
        # at the limit; the concurrency check embeds both measurements on
        # 2 x 2048 x 2 dimensions
        text = ("scenario joint\nsystem S 2\nsystem T 2\nagent a record R 2048 init 0\nobserver w\n"
                "prepare state [0.6+0i, 0.8+0i] on S\nprepare state [0.6+0i, 0.8+0i] on T\n"
                "interact a on S basis basis1 record R\n"
                "measure w on S, a.R basis basis1 result x\nmeasure w on a.R, T basis basis1 result y concurrent\n")
        s = sc.parse(text)
        assert it._largest_array(s, dict(sc.layout_of(s).subsystems)) == (8192 ** 2, "event 4")
        assert 4096 ** 2 == it.ENTRY_LIMIT
        with pytest.raises(ValueError, match="event 4 builds an array of 67108864 entries"):
            it.exact_joint(s, it.RuleSet.orthodox())

    def test_no_scenario_at_hand_comes_near_the_limit(self):
        scenarios = [sc.parse(sc.bundled_scenario_text(name)) for name in sc.BUNDLED_SCENARIOS]
        scenarios += [_chain(TestChain.PROBS8[:n]) for n in range(1, 9)] + _scenario_literals()
        for s in scenarios:
            entries, _ = it._largest_array(s, dict(sc.layout_of(s).subsystems))
            assert entries <= it.ENTRY_LIMIT >> 12, s.name


def _copies():
    """A qubit copied by four agents into records of dimension 128, then
    measured.  Built here rather than kept as a literal, since the tests
    that run every scenario literal would meet its refusals."""
    lines = ["scenario copies", "system S 2"]
    lines += [f"agent a{i} record R 128 init 0" for i in range(1, 5)]
    lines += ["observer w", "prepare state [0.6+0i, 0.8+0i] on S"]
    lines += [f"interact a{i} on S basis basis1 record R" for i in range(1, 5)]
    lines += ["measure w on S basis basis1 result r"]
    return sc.parse("\n".join(lines) + "\n")


class TestMergeLimit:
    # no compiled array of _copies() holds more than 256^2 entries, but the
    # copies merge into 2 * 128^4 amplitudes
    MERGE = (r"^scenario 'copies': merging 'S', 'a1\.R', 'a2\.R', 'a3\.R', 'a4\.R' builds an array of "
             rf"536870912 entries, over the limit of {it.ENTRY_LIMIT}$")

    def test_merged_factor_is_refused_before_allocating(self):
        # relative facts keep the copies on S, so the fourth copy merges all five
        with pytest.raises(ValueError, match=self.MERGE):
            it.exact_joint(_copies(), it.RuleSet.rqm5())

    def test_dense_perspective_is_refused_while_the_table_answers(self):
        # collapses split the records off, so the table needs no merge, but a
        # sampled history's perspectives are dense over the whole layout
        s = _copies()
        rules = it.RuleSet.orthodox()
        joint = it.exact_joint(s, rules)
        assert list(joint) == [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]
        assert joint == pytest.approx({(0, 0, 0, 0, 0): 0.36, (1, 1, 1, 1, 1): 0.64}, abs=1e-12)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=self.MERGE):
                it.run(s, rules, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24

    def test_mixed_perspective_is_refused_before_allocating(self, monkeypatch):
        # chain(7) has 2^14 amplitudes, within the limit, but f1's view mixes
        # 128 branch states into a 2^14 x 2^14 density matrix (4 GiB)
        s = _chain(TestChain.PROBS8[:7])
        with pytest.raises(ValueError, match=r"^scenario 'chain': the mixed perspective of 128 branch states builds "
                                             rf"an array of 268435456 entries, over the limit of {it.ENTRY_LIMIT}$"):
            it.perspective(s, it.RuleSet.orthodox(), "f1")
        # chain(3)'s density matrix holds 64^2 entries, admitted at the limit
        s = _chain(TestChain.PROBS8[:3])
        monkeypatch.setattr(it, "ENTRY_LIMIT", 64 ** 2)
        rho = it.perspective(s, it.RuleSet.orthodox(), "f1").state
        assert isinstance(rho, qcore.DensityMatrix) and rho.matrix.size == it.ENTRY_LIMIT
        monkeypatch.setattr(it, "ENTRY_LIMIT", 64 ** 2 - 1)
        with pytest.raises(ValueError, match="the mixed perspective of 8 branch states builds an array of 4096 entries"):
            it.perspective(s, it.RuleSet.orthodox(), "f1")


# a pointer basis whose vectors carry the phases i and -1
PHASED = """scenario phased
system S 2
system T 3
system U 2
observer w
basis ph on 2 labels 0, 1 vectors [0+1i, 0+0i] ; [0+0i, -1+0i]
prepare state [0.6+0i, 0.8+0i] on S
measure w on S basis ph result r
"""


@pytest.mark.parametrize("targets,vectors", [
    ((("U", 2),), np.eye(2)),
    ((("U", 2),), np.array([[1j, 0], [0, -1]])),
    ((("U", 2), ("S", 2)), np.diag([1j, -1, -1j, 1])),
    ((("T", 3), ("S", 2)), np.diag([1, 1j, -1, -1j, 1j, -1])),
])
def test_split_residual_is_the_row_of_the_projected_tensor(targets, vectors):
    # the split builds the rest without the projected tensor; it must equal
    # row k of that tensor over vec[k], bit for bit.  Products with the
    # phases 1, i, -1 and -i are exact, so this holds whichever routine,
    # BLAS or numpy's loops, forms the tensor
    comp = it._plan(sc.parse(PHASED), it.RuleSet.orthodox())
    factor = qcore.random_state(comp.layout, np.random.default_rng(5))
    spec = qcore.BasisSpec(targets, vectors, tuple(range(len(vectors))))
    positions = comp.layout.positions(spec.target_ids)
    for k, label in enumerate(spec.labels):
        measured, rest = it._project(comp, factor, spec, label, True)
        projected = qcore.project(factor, spec, label)
        rows = np.moveaxis(projected.tensor_view(), positions, range(len(positions))).reshape(spec.dim, -1)
        assert rest.layout.ids == tuple(i for i in comp.layout.ids if i not in spec.target_ids)
        assert np.array_equal(rest.amplitudes, rows[k] / vectors[k][k])
        assert measured.layout.ids == tuple(sorted(spec.target_ids, key=comp.order.get))


def test_declared_phases_split_like_the_pointer_states():
    s = sc.parse(PHASED)
    for kind in it.RULE_KINDS:
        comp = it._plan(s, it.RuleSet(kind))
        leaves = list(it._walk(comp))
        assert [labels for _, _, labels, _ in leaves] == [(0,), (1,)]
        assert [probs[0] for _, probs, _, _ in leaves] == pytest.approx([0.36, 0.64], abs=1e-12)
        for state, _, _, _ in leaves:
            assert [f.layout.ids for f in dict.fromkeys(state)] == [("S",), ("T",), ("U",)]
