from __future__ import annotations

import numpy as np
import pytest

from wfcheck import qcore as qc

SQ3 = np.sqrt(0.3)
SQ7 = np.sqrt(0.7)


def pair_layout():
    return qc.SpaceLayout((("P1", 2), ("P2", 2)))


def entangled_pair():
    return qc.StateVector(pair_layout(), qc.correlated_pair_amplitudes([SQ3, SQ7]))


# ---------------------------------------------------------------------------
# layouts, tensor assembly


def test_tensor_basis_states_big_endian():
    a = qc.StateVector(qc.SpaceLayout((("a", 2),)), [1, 0])
    b = qc.StateVector(qc.SpaceLayout((("b", 2),)), [1, 0])
    t = qc.tensor(a, b)
    assert np.allclose(t.amplitudes, [1, 0, 0, 0])
    c = qc.StateVector(qc.SpaceLayout((("b", 2),)), [0, 1])
    # first-declared subsystem varies slowest
    assert np.allclose(qc.tensor(a, c).amplitudes, [0, 1, 0, 0])
    assert np.allclose(qc.tensor(c, a).amplitudes, [0, 0, 1, 0])


def test_tensor_rejects_duplicate_ids():
    a = qc.StateVector(qc.SpaceLayout((("a", 2),)), [1, 0])
    with pytest.raises(ValueError, match="duplicate subsystem"):
        qc.tensor(a, a)


def test_layout_rejects_dimension_one():
    with pytest.raises(ValueError, match="dimension"):
        qc.SpaceLayout((("a", 1),))


def test_state_normalization_enforced():
    with pytest.raises(ValueError, match="unnormalized"):
        qc.StateVector(qc.SpaceLayout((("a", 2),)), [1, 1])


def test_apply_requires_matching_layout():
    u = qc.Unitary(qc.SpaceLayout((("a", 2),)), np.eye(2))
    s = qc.StateVector(qc.SpaceLayout((("b", 2),)), [1, 0])
    with pytest.raises(ValueError, match="layout mismatch"):
        qc.apply(u, s)


def test_unitary_validation():
    with pytest.raises(ValueError, match="not unitary"):
        qc.Unitary(qc.SpaceLayout((("a", 2),)), [[1, 0], [0, 2]])


def test_permute_roundtrip():
    rng = np.random.default_rng(11)
    lay = qc.SpaceLayout((("a", 2), ("b", 3), ("c", 2)))
    s = qc.random_state(lay, rng)
    p = qc.permute(s, ["c", "a", "b"])
    back = qc.permute(p, ["a", "b", "c"])
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_apply_local_matches_explicit_embedding():
    rng = np.random.default_rng(12)
    lay = qc.SpaceLayout((("a", 2), ("b", 2), ("c", 2)))
    s = qc.random_state(lay, rng)
    # random unitary on (c, a) via QR
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    u = qc.Unitary(qc.SpaceLayout((("c", 2), ("a", 2))), q)
    got = qc.apply_local(s, u)
    # oracle: permute state to (c, a, b), apply u (x) I, permute back
    s_perm = qc.permute(s, ["c", "a", "b"])
    full = np.kron(q, np.eye(2))
    expected = qc.permute(qc.StateVector(s_perm.layout, full @ s_perm.amplitudes), ["a", "b", "c"])
    assert np.allclose(got.amplitudes, expected.amplitudes)


# ---------------------------------------------------------------------------
# Born distributions


def hand_reduced_matrix(amps: np.ndarray, dims: tuple[int, int], keep_first: bool) -> np.ndarray:
    # independent oracle: explicit index loops, no kernel calls
    d1, d2 = dims
    psi = amps.reshape(d1, d2)
    if keep_first:
        rho = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                rho[i, j] = sum(psi[i, k] * np.conj(psi[j, k]) for k in range(d2))
    else:
        rho = np.zeros((d2, d2), dtype=complex)
        for i in range(d2):
            for j in range(d2):
                rho[i, j] = sum(psi[k, i] * np.conj(psi[k, j]) for k in range(d1))
    return rho


def test_born_on_entangled_pair_second_photon():
    s = entangled_pair()
    dist = qc.born_distribution(s, qc.computational_basis(("P2", 2)))
    # oracle: reduce to photon 2 by hand and read the diagonal
    rho = hand_reduced_matrix(s.amplitudes, (2, 2), keep_first=False)
    assert dist[0] == pytest.approx(rho[0, 0].real, abs=1e-12)
    assert dist[1] == pytest.approx(rho[1, 1].real, abs=1e-12)
    assert dist[0] == pytest.approx(0.3, abs=1e-12)
    assert dist[1] == pytest.approx(0.7, abs=1e-12)


def test_born_i_superposed_state_in_computational():
    # (|0> + i|1>)/sqrt(2) read out in the +-1-labelled computational basis
    lay = qc.SpaceLayout((("S", 2),))
    b = qc.qubit_ladder_basis(("S", 2), 1)
    s = qc.StateVector(lay, b.vectors[0])
    dist = qc.born_distribution(s, qc.computational_basis(("S", 2), labels=(1, -1)))
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert dist[-1] == pytest.approx(0.5, abs=1e-12)


def test_born_ghz_qubitwise():
    sys = (("S1", 2), ("S2", 2), ("S3", 2))
    s = qc.StateVector(qc.SpaceLayout(sys), qc.ghz_amplitudes(3))
    obs = qc.ObservableSpec.product([qc.computational_basis(t, labels=(1, -1)) for t in sys])
    dist = qc.born_distribution(s, obs)
    assert dist[(1, 1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(-1, -1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert sum(v for k, v in dist.items() if k not in ((1, 1, 1), (-1, -1, -1))) == pytest.approx(0.0, abs=1e-12)


def test_born_completeness_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lay = qc.SpaceLayout((("a", 2), ("b", 2), ("c", 2)))
        s = qc.random_state(lay, rng)
        obs = qc.ObservableSpec.product(
            [qc.qubit_ladder_basis(("a", 2), int(rng.integers(0, 3))),
             qc.qubit_ladder_basis(("b", 2), int(rng.integers(0, 3)))]
        )
        dist = qc.born_distribution(s, obs)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-15 for p in dist.values())


def test_project_then_remeasure_is_stable():
    s = entangled_pair()
    b = qc.computational_basis(("P2", 2))
    after = qc.project(s, b, 1)
    dist = qc.born_distribution(after, b)
    assert dist[1] == pytest.approx(1.0, abs=1e-12)
    # photon 1 collapsed alongside
    d1 = qc.born_distribution(after, qc.computational_basis(("P1", 2)))
    assert d1[1] == pytest.approx(1.0, abs=1e-12)


def test_project_zero_probability_is_error():
    lay = qc.SpaceLayout((("a", 2), ("b", 2)))
    s = qc.StateVector(lay, [1, 0, 0, 0])
    b = qc.computational_basis(("a", 2))
    with pytest.raises(qc.ZeroProbabilityError):
        qc.project(s, b, 1)


def test_product_observable_equals_sequential_measurement():
    # single joint readout versus chained single-factor collapse
    rng = np.random.default_rng(21)
    targets = (("a", 2), ("b", 2), ("c", 2))
    for _ in range(25):
        s = qc.random_state(qc.SpaceLayout(targets), rng)
        factors = [qc.qubit_ladder_basis(t, int(rng.integers(0, 3))) for t in targets]
        joint = qc.born_distribution(s, qc.ObservableSpec.product(factors))
        seq: dict[tuple, float] = {}
        for l0 in factors[0].labels:
            p0 = qc.born_distribution(s, factors[0])[l0]
            if p0 <= 1e-14:
                continue
            s0 = qc.project(s, factors[0], l0)
            for l1 in factors[1].labels:
                p1 = qc.born_distribution(s0, factors[1])[l1]
                if p1 <= 1e-14:
                    continue
                s1 = qc.project(s0, factors[1], l1)
                for l2 in factors[2].labels:
                    p2 = qc.born_distribution(s1, factors[2])[l2]
                    seq[(l0, l1, l2)] = p0 * p1 * p2
        for key, p in joint.items():
            assert p == pytest.approx(seq.get(key, 0.0), abs=1e-10)


# ---------------------------------------------------------------------------
# partial trace, Schmidt


def test_partial_trace_of_entangled_pair():
    s = entangled_pair()
    rho = qc.partial_trace(s, ["P1"])
    oracle = hand_reduced_matrix(s.amplitudes, (2, 2), keep_first=True)
    assert np.allclose(rho.matrix, oracle, atol=1e-12)
    assert np.allclose(rho.matrix, np.diag([0.3, 0.7]), atol=1e-12)


def test_partial_trace_density_matrix_input():
    s = entangled_pair()
    rho_full = qc.DensityMatrix(s.layout, np.outer(s.amplitudes, s.amplitudes.conj()))
    rho = qc.partial_trace(rho_full, ["P2"])
    assert np.allclose(rho.matrix, np.diag([0.3, 0.7]), atol=1e-12)


def test_partial_trace_empty_keep_is_error():
    with pytest.raises(ValueError, match="empty keep"):
        qc.partial_trace(entangled_pair(), [])


def test_record_reduction_unchanged_by_readout_interaction():
    # writing the record's content onto a second register must not move the
    # record's own reduced matrix (tolerance 1e-12)
    c = [SQ3, SQ7]
    lay = qc.SpaceLayout((("S", 2), ("R", 2), ("B", 2)))
    amp = np.zeros(8, dtype=complex)
    for l, cl in enumerate(c):
        amp[l * 4 + l * 2 + 0] = cl  # |l>|l>|0>
    before = qc.StateVector(lay, amp)
    u = qc.build_premeasurement(qc.computational_basis(("R", 2)), ("B", 2), init_label=0)
    after = qc.apply_local(before, u)
    rho_before = qc.partial_trace(before, ["R"])
    rho_after = qc.partial_trace(after, ["R"])
    assert np.allclose(rho_before.matrix, rho_after.matrix, atol=1e-12)


def test_schmidt_of_entangled_pair():
    sd = qc.schmidt(entangled_pair(), ["P1"], ["P2"])
    assert np.allclose(sd.coefficients, [SQ7, SQ3], atol=1e-12)
    assert sd.unique


def test_schmidt_product_state_single_coefficient():
    lay = qc.SpaceLayout((("a", 2), ("b", 2)))
    s = qc.StateVector(lay, [0, 1, 0, 0])
    sd = qc.schmidt(s, ["a"], ["b"])
    assert len(sd.coefficients) == 1
    assert sd.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert sd.unique


def test_schmidt_degenerate_pair_not_unique():
    lay = qc.SpaceLayout((("a", 2), ("b", 2)))
    s = qc.StateVector(lay, qc.correlated_pair_amplitudes([np.sqrt(0.5), np.sqrt(0.5)]))
    assert not qc.schmidt(s, ["a"], ["b"]).unique


def test_schmidt_reconstruction_random():
    rng = np.random.default_rng(31)
    lay = qc.SpaceLayout((("a", 2), ("b", 3), ("c", 2)))
    for _ in range(20):
        s = qc.random_state(lay, rng)
        sd = qc.schmidt(s, ["b"], ["a", "c"])
        rebuilt = np.zeros(12, dtype=complex)
        for coeff, lv, rv in zip(sd.coefficients, sd.left, sd.right):
            rebuilt += coeff * np.kron(lv.amplitudes, rv.amplitudes)
        # reconstruction lives on (b, a, c); permute the original to compare
        ref = qc.permute(s, ["b", "a", "c"])
        assert np.allclose(rebuilt, ref.amplitudes, atol=1e-10)


# ---------------------------------------------------------------------------
# pre-measurement unitaries


def test_premeasurement_computational_copy():
    u = qc.build_premeasurement(qc.computational_basis(("S", 2)), ("R", 2), init_label=0)
    # |j>|k> -> |j>|k (+) j>
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[1, 1] = 1  # j=0: identity on record
    expect[3, 2] = expect[2, 3] = 1  # j=1: flip record
    assert np.allclose(u.matrix, expect, atol=1e-12)


def test_premeasurement_mirrored_pointer_copy_map():
    b3 = qc.qubit_ladder_basis(("S", 2), 1)
    p3 = qc.qubit_ladder_basis(("R", 2), 1)
    u = qc.build_premeasurement(b3, ("R", 2), init_label=1, pointer_basis=p3)
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4))) < 1e-12
    for j in range(2):
        inp = np.kron(b3.vectors[j], p3.vectors[0])
        out = u.matrix @ inp
        assert np.allclose(out, np.kron(b3.vectors[j], p3.vectors[j]), atol=1e-12)


def test_premeasurement_qudit_record():
    d = 4
    b = qc.computational_basis(("S", d))
    u = qc.build_premeasurement(b, ("R", d), init_label=0)
    s = qc.StateVector(
        qc.SpaceLayout((("S", d), ("R", d))),
        np.kron(np.full(d, 1 / np.sqrt(d)), np.eye(d)[0]),
    )
    out = qc.apply(u, s)
    expect = np.zeros(d * d, dtype=complex)
    for j in range(d):
        expect[j * d + j] = 1 / np.sqrt(d)
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


def test_premeasurement_record_too_small():
    with pytest.raises(ValueError, match="record too small"):
        qc.build_premeasurement(qc.computational_basis(("S", 3)), ("R", 2), init_label=0)


def test_ghz_premeasurement_matches_direct_construction():
    # oracle: expand the GHZ amplitudes in the i-superposed basis by hand and
    # build sum over branches of amp * (basis vector) x (pointer vector)
    sys = [("S1", 2), ("S2", 2), ("S3", 2)]
    rec = [("A1", 2), ("A2", 2), ("A3", 2)]
    b3 = [qc.qubit_ladder_basis(t, 1) for t in sys]
    p3 = [qc.qubit_ladder_basis(t, 1) for t in rec]

    ghz = qc.StateVector(qc.SpaceLayout(tuple(sys)), qc.ghz_amplitudes(3))
    inits = [qc.StateVector(qc.SpaceLayout((r,)), p3[i].vectors[0]) for i, r in enumerate(rec)]
    psi = qc.tensor(ghz, *inits)
    for m in range(3):
        u = qc.build_premeasurement(b3[m], rec[m], init_label=1, pointer_basis=p3[m])
        psi = qc.apply_local(psi, u)

    direct = np.zeros(64, dtype=complex)
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                amp = np.vdot(
                    np.kron(np.kron(b3[0].vectors[i0], b3[1].vectors[i1]), b3[2].vectors[i2]),
                    qc.ghz_amplitudes(3),
                )
                branch = np.kron(
                    np.kron(np.kron(b3[0].vectors[i0], b3[1].vectors[i1]), b3[2].vectors[i2]),
                    np.kron(np.kron(p3[0].vectors[i0], p3[1].vectors[i1]), p3[2].vectors[i2]),
                )
                direct += amp * branch
    # direct is ordered (S1,S2,S3,A1,A2,A3) like psi's layout
    assert np.allclose(qc.permute(psi, ["S1", "S2", "S3", "A1", "A2", "A3"]).amplitudes, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# stock bases


def test_qubit_ladder_bases_are_orthonormal():
    for depth in (0, 1, 2):
        b = qc.qubit_ladder_basis(("S", 2), depth)
        gram = b.vectors.conj() @ b.vectors.T
        assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_ladder_depth_one_has_i_phases():
    b = qc.qubit_ladder_basis(("S", 2), 1)
    r = 1 / np.sqrt(2)
    assert np.allclose(b.vectors[0], [r, 1j * r], atol=1e-12)
    assert np.allclose(b.vectors[1], [r, -1j * r], atol=1e-12)


def test_basis_requires_span_and_distinct_labels():
    with pytest.raises(ValueError, match="span"):
        qc.BasisSpec(targets=(("S", 2),), vectors=np.array([[1.0, 0.0]]), labels=(0,))
    with pytest.raises(ValueError, match="distinct"):
        qc.BasisSpec(targets=(("S", 2),), vectors=np.eye(2), labels=(0, 0))
    with pytest.raises(ValueError, match="orthonormal"):
        qc.BasisSpec(targets=(("S", 2),), vectors=np.array([[1, 0], [1, 0]], dtype=float), labels=(0, 1))


def test_lifted_basis_spans_pair_and_misses_nothing():
    inner = qc.qubit_ladder_basis(("S", 2), 1)
    outer = qc.qubit_ladder_basis(("S", 2), 2)
    lb = qc.lifted_basis(outer, inner, ("R", 2))
    assert lb.vectors.shape == (4, 4)
    assert set(lb.labels) == {1, -1, "perp1", "perp2"}
    gram = lb.vectors.conj() @ lb.vectors.T
    assert np.allclose(gram, np.eye(4), atol=1e-12)
