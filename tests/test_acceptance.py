"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every expected number here is recomputed in-test from an independent route
(closed forms, explicit branch enumeration, explicit tensor construction)
rather than taken from the module under test.
"""

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import wfcheck
from wfcheck import checks, cli, qcore
from wfcheck import interpret as it
from wfcheck import scenario as sc

SCENARIOS = Path(wfcheck.__file__).parent / "scenarios"
FIXTURES = ("epr", "cpl", "ghz")


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _random_amplitudes(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_register_readout_mismatch_probability():
    rng = np.random.default_rng(20260814)
    dims = [2] * 34 + [4] * 33 + [8] * 33
    with criterion("register-readout mismatch probability reproduces the closed form"):
        for d in dims:
            c = _random_amplitudes(rng, d)
            for ra in range(d):
                report = checks.cpl_probability_check(c, ra)
                want = float(sum(abs(c[j]) ** 2 for j in range(d) if j != ra))
                values = dict(report.findings[0].values)
                assert abs(values["rqm5"] - want) <= 1e-12
                assert values["cpl"] == 0.0
                if values["rqm5"] > 1e-9:
                    assert report.verdict == "contradiction"


def test_parity_products_exact():
    with criterion("parity products exact in the joint and mixed readout contexts"):
        report = checks.ghz_check()
        # findings: all-pairs context, three mixed contexts, branchwise
        # identity, assignment search; the parity gaps are the first four
        parity = report.findings[:4]
        assert len(parity) == 4
        for finding in parity:
            assert finding.discrepancy <= 1e-12, finding.claim
        branchwise = report.findings[4]
        assert "branch" in branchwise.claim
        assert branchwise.discrepancy <= 1e-12


def test_no_classical_sign_assignment():
    with criterion("no classical sign assignment; formal square is negative"):
        for policy in ("agent", "both"):
            report = checks.ghz_check(policy)
            search = report.assignment_search
            assert search is not None
            assert search.domain_size == 8
            assert search.satisfying == ()
            assert search.formal_square == "(A1*A2*A3)^2 = -1"
            assert search.formal_product_value == "±i"
            assert report.verdict == "contradiction"


def test_pair_correlation_table():
    with criterion("pair-correlation table with partition ambiguity"):
        c = [math.sqrt(0.3), math.sqrt(0.7)]
        report = checks.epr_correlation_check(c)
        values = dict(report.findings[0].values)

        # independent oracle: enumerate the four branches explicitly
        weights = {(ra, rb): c[ra] ** 2 * c[rb] ** 2 for ra in (0, 1) for rb in (0, 1)}
        p_match = sum(w for (ra, rb), w in weights.items() if ra == rb)
        assert abs(p_match - 0.58) <= 1e-15

        assert abs(values["orthodox"] - 1.0) <= 1e-12
        assert abs(values["rqm5/separate"] - p_match) <= 1e-12
        assert abs(values["rqm5/joint"] - 1.0) <= 1e-12
        assert report.verdict == "ambiguity"
        assert report.findings[1].discrepancy <= 1e-12  # conditioning invariance

        rng = np.random.default_rng(7)
        for _ in range(5):
            p = float(rng.uniform(0.05, 0.45))
            pair = [math.sqrt(p), math.sqrt(1 - p)]
            got = dict(checks.epr_correlation_check(pair).findings[0].values)
            assert abs(got["rqm5/separate"] - (p * p + (1 - p) * (1 - p))) <= 1e-12
            assert abs(got["orthodox"] - 1.0) <= 1e-12


def test_kernel_properties():
    rng = np.random.default_rng(99)
    with criterion("kernel invariants over randomized trials"):
        for trial in range(1000):
            n_parts = int(rng.integers(2, 4))
            dims = [int(rng.integers(2, 4)) for _ in range(n_parts)]
            layout = qcore.SpaceLayout(tuple((f"q{i}", d) for i, d in enumerate(dims)))
            state = qcore.random_state(layout, rng)

            # normalization
            norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
            assert abs(norm - 1.0) <= 1e-10

            # unitarity and norm preservation
            dim = layout.total_dimension
            gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u_mat, _ = np.linalg.qr(gauss)
            assert np.max(np.abs(u_mat.conj().T @ u_mat - np.eye(dim))) <= 1e-10
            moved = qcore.apply(qcore.Unitary(layout, u_mat), state)
            assert abs(float(np.vdot(moved.amplitudes, moved.amplitudes).real) - 1.0) <= 1e-10

            # Born sum over a random orthonormal basis of the first subsystem
            d0 = dims[0]
            g0 = rng.standard_normal((d0, d0)) + 1j * rng.standard_normal((d0, d0))
            q0, _ = np.linalg.qr(g0)
            basis = qcore.BasisSpec(((layout.subsystems[0]),), q0.T.copy(), tuple(range(d0)))
            dist = qcore.born_distribution(state, basis)
            assert abs(sum(dist.values()) - 1.0) <= 1e-10

            # partial trace: unit trace, hermitian, positive
            keep = [layout.ids[0]]
            rho = qcore.partial_trace(state, keep)
            assert abs(float(np.trace(rho.matrix).real) - 1.0) <= 1e-10
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-10
            assert float(np.linalg.eigvalsh(rho.matrix).min()) >= -1e-10

        # product observable vs explicit joint construction
        qubits = qcore.SpaceLayout((("q0", 2), ("q1", 2), ("q2", 2)))
        for trial in range(100):
            state = qcore.random_state(qubits, rng)
            factor_rows = []
            factors = []
            for i in range(3):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                q, _ = np.linalg.qr(g)
                rows = q.T.copy()
                factor_rows.append(rows)
                factors.append(qcore.BasisSpec(((f"q{i}", 2),), rows, (1, -1)))
            spec = qcore.product_basis(factors)
            got = qcore.born_distribution(state, spec)
            want: dict = {}
            for i in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):
                        vec = np.kron(np.kron(factor_rows[0][i], factor_rows[1][j]),
                                      factor_rows[2][k])
                        p = abs(np.vdot(vec, state.amplitudes)) ** 2
                        key = (1 - 2 * i, 1 - 2 * j, 1 - 2 * k)
                        want[key] = want.get(key, 0.0) + p
            assert set(got) == set(want)
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-10


def test_determinism_and_format(capsys, tmp_path):
    def invoke(*args):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return code, captured.out

    with criterion("deterministic reports, canonical fixtures, exit codes"):
        # byte-identical machine output for fixed input and seed
        for name in FIXTURES:
            path = str(SCENARIOS / f"{name}.wfs")
            args = ("run", path, "--rules", "rqm5", "--seed", "11", "--format", "json")
            code1, out1 = invoke(*args)
            code2, out2 = invoke(*args)
            assert code1 == code2 == 0
            assert out1 == out2
        _, g1 = invoke("check", "ghz", "--format", "json")
        _, g2 = invoke("check", "ghz", "--format", "json")
        assert g1 == g2

        # bundled fixtures are fixed points of parse followed by print
        for name in FIXTURES:
            text = (SCENARIOS / f"{name}.wfs").read_text(encoding="utf-8")
            assert sc.dumps(sc.parse(text)) == text

        # exit-code contract over the fixture matrix
        for name in FIXTURES:
            path = str(SCENARIOS / f"{name}.wfs")
            assert invoke("parse", path)[0] == 0
            for rules in ("orthodox", "rqm5", "cpl"):
                assert invoke("run", path, "--rules", rules)[0] == 0
        assert invoke("check", "ghz")[0] == 3
        assert invoke("check", "epr")[0] == 3
        assert invoke("check", "cpl", "--c", "0.3,0.7", "--ra", "1")[0] == 3
        assert invoke("check", "cpl", "--c", "1,0", "--ra", "0")[0] == 0
        assert invoke("parse", str(SCENARIOS / "no_such.wfs"))[0] == 2
        truncated = tmp_path / "truncated.wfs"
        truncated.write_text("scenario x\nsystem S\n")
        assert invoke("parse", str(truncated))[0] == 1
        assert invoke("run", str(SCENARIOS / "epr.wfs"), "--rules", "bohm")[0] == 1


def test_sampling_sanity():
    with criterion("sampled ledger frequencies match the exact distribution"):
        n = 100_000
        text = (SCENARIOS / "epr.wfs").read_text(encoding="utf-8")
        scenario = sc.parse(text)
        rules = it.RuleSet.rqm5()
        exact = it.exact_joint(scenario, rules)
        tallies = it.sample_tallies(exact, n, seed=2026)
        keys = it.outcome_keys(scenario)
        assert keys == ("alice.A", "rb")

        # chi-square against the exact joint; 3 sigma for k cells is
        # mean (k-1) plus three standard deviations sqrt(2(k-1))
        stat = 0.0
        for outcome, p in exact.items():
            observed = tallies.get(outcome, 0)
            stat += (observed - n * p) ** 2 / (n * p)
        dof = len(exact) - 1
        assert stat <= dof + 3 * math.sqrt(2 * dof), stat

        # ledger marginal alone, same bound with one degree of freedom
        ledger_counts = {0: 0, 1: 0}
        for outcome, count in tallies.items():
            ledger_counts[outcome[0]] += count
        marginal = {0: 0.3, 1: 0.7}
        stat = sum((ledger_counts[v] - n * p) ** 2 / (n * p) for v, p in marginal.items())
        assert stat <= 1 + 3 * math.sqrt(2), stat
