from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


_PHASED = st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n),
    st.lists(st.floats(0.125, 1.0), min_size=n, max_size=n),
)).map(lambda drawn: np.array(drawn[1]) * np.exp(1j * np.array(drawn[0])))


def _equals_multiply_outer(outer, a, b) -> bool:
    return outer(a, b).tobytes() == np.multiply.outer(a, b).ravel().tobytes()


@given(_PHASED, _PHASED)
@example(np.exp(1j * np.arange(8.0)), np.exp(1j * np.arange(2.0)))  # b shorter: one call per column
@example(np.exp(1j * np.arange(2.0)), np.exp(1j * np.arange(8.0)))  # a shorter: one broadcast call
@settings(max_examples=100, deadline=None)
def test_outer_is_bit_equal_to_multiply_outer(a, b):
    # both operand orders, so each draw runs both loop directions when the lengths differ
    assert _equals_multiply_outer(qc.outer, a, b)
    assert _equals_multiply_outer(qc.outer, b, a)


def test_outer_property_rejects_a_commuted_product():
    # b[j] * a[i] rounds differently from a[i] * b[j] where numpy's complex
    # multiply fuses a multiply-add (numpy 2.4 on x86-64 with FMA); where it
    # rounds both alike the commuted form is exact and there is nothing to reject
    x, y = np.exp(1j * np.arange(1.0, 65.0)), np.exp(0.5j * np.arange(1.0, 65.0))
    if (x * y).tobytes() == (y * x).tobytes():
        pytest.skip("complex multiplication rounds a*b and b*a alike here")

    def commuted(a, b):
        return np.multiply.outer(b, a).T.ravel()

    a, b = find(st.tuples(_PHASED, _PHASED), lambda pair: not _equals_multiply_outer(commuted, *pair),
                settings=settings(database=None, phases=[Phase.generate]))
    assert commuted(a, b).tobytes() != qc.outer(a, b).tobytes()


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


# the axis handling the kernel replaced (np.moveaxis there and back, the
# projected tensor from np.tensordot): the kernel must reproduce it bit for bit


def _moveaxis_rows(s, ids, dim):
    positions = s.layout.positions(ids)
    t = np.moveaxis(s.tensor_view(), positions, range(len(positions)))
    return positions, t, t.reshape(dim, -1)


def _moveaxis_apply_local(s, u):
    positions, t, flat = _moveaxis_rows(s, u.layout.ids, u.layout.total_dimension)
    out = (u.matrix @ flat).reshape(t.shape)
    return np.moveaxis(out, range(len(positions)), positions).reshape(-1)


def _moveaxis_born(s, b):
    _, _, flat = _moveaxis_rows(s, b.target_ids, b.dim)
    residuals = [vec.conj() @ flat for vec in b.vectors]
    return {label: float(np.vdot(r, r).real) for label, r in zip(b.labels, residuals)}


def _tensordot_project(s, b, outcome):
    positions, _, flat = _moveaxis_rows(s, b.target_ids, b.dim)
    vec = b.vectors[b.labels.index(outcome)]
    residual = vec.conj() @ flat
    p = float(np.vdot(residual, residual).real)
    rest = [d for i, d in enumerate(s.layout.dims) if i not in positions]
    t = np.tensordot(vec.reshape([d for _, d in b.targets]), residual.reshape(rest), axes=0)
    return np.moveaxis(t, range(len(positions)), positions).reshape(-1) / np.sqrt(p)


def _moveaxis_partial_trace(s, keep):
    _, _, mat = _moveaxis_rows(s, keep, int(np.prod([s.layout.dim_of(k) for k in keep])))
    return mat @ mat.conj().T


def _random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def _dense_on_targets(s, ids, op):
    """op (x) I on the state reordered to (targets, rest), as an explicit
    matrix, and the unnormalized result back in layout order."""
    rest = [i for i in s.layout.ids if i not in ids]
    front = qc.permute(s, list(ids) + rest)
    d_rest = int(np.prod([s.layout.dim_of(i) for i in rest]))
    out = np.kron(op, np.eye(d_rest)) @ front.amplitudes
    norm = float(np.linalg.norm(out))
    back = qc.permute(qc.StateVector(front.layout, out / norm), s.layout.ids)
    return back.amplitudes * norm


@given(
    dims=st.lists(st.integers(2, 3), min_size=1, max_size=4),
    order=st.permutations(range(4)),
    k=st.integers(1, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(dims=[2, 3, 2, 3], order=[3, 1, 0, 2], k=2, seed=7)  # two targets, reversed and not adjacent
@settings(max_examples=80, deadline=None)
def test_kernel_axis_handling_matches_moveaxis_and_dense_oracle(dims, order, k, seed):
    rng = np.random.default_rng(seed)
    layout = qc.SpaceLayout(tuple((f"s{i}", d) for i, d in enumerate(dims)))
    targets = tuple(layout.subsystems[i] for i in order if i < len(dims))[:k]
    ids = tuple(name for name, _ in targets)
    s = qc.random_state(layout, rng)
    d = int(np.prod([dim for _, dim in targets]))

    u = qc.Unitary(qc.SpaceLayout(targets), _random_unitary(rng, d))
    got = qc.apply_local(s, u).amplitudes
    assert np.array_equal(got, _moveaxis_apply_local(s, u))
    assert np.allclose(got, _dense_on_targets(s, ids, u.matrix), atol=1e-12, rtol=0)

    b = qc.BasisSpec(targets, _random_unitary(rng, d).T.copy(), tuple(range(d)))
    born = qc.born_distribution(s, b)
    assert born == _moveaxis_born(s, b)
    for label, vec in zip(b.labels, b.vectors):
        projector = np.outer(vec, vec.conj())
        dense = _dense_on_targets(s, ids, projector)
        p = float(np.vdot(dense, dense).real)
        assert born[label] == pytest.approx(p, abs=1e-12)
        got = qc.project(s, b, label).amplitudes
        assert np.array_equal(got, _tensordot_project(s, b, label))
        assert np.allclose(got, dense / np.sqrt(p), atol=1e-12, rtol=0)

    rho = qc.partial_trace(s, ids).matrix
    assert np.array_equal(rho, _moveaxis_partial_trace(s, ids))
    rest = [i for i in layout.ids if i not in ids]
    psi = qc.permute(s, list(ids) + rest).amplitudes.reshape(d, -1)
    dense_rho = np.einsum("ajbj->ab", np.einsum("aj,bk->ajbk", psi, psi.conj()))
    assert np.allclose(rho, dense_rho, atol=1e-12, rtol=0)


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
    obs = qc.product_basis([qc.computational_basis(t, labels=(1, -1)) for t in sys])
    dist = qc.born_distribution(s, obs)
    assert dist[(1, 1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(-1, -1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert sum(v for k, v in dist.items() if k not in ((1, 1, 1), (-1, -1, -1))) == pytest.approx(0.0, abs=1e-12)


def test_born_completeness_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lay = qc.SpaceLayout((("a", 2), ("b", 2), ("c", 2)))
        s = qc.random_state(lay, rng)
        obs = qc.product_basis(
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


def test_project_unknown_outcome_is_key_error():
    s = entangled_pair()
    with pytest.raises(KeyError, match="unknown outcome"):
        qc.project(s, qc.computational_basis(("P1", 2)), 2)


def test_basis_target_dimension_mismatch_is_error():
    s = qc.StateVector(qc.SpaceLayout((("a", 3), ("b", 2))), [1, 0, 0, 0, 0, 0])
    b = qc.computational_basis(("a", 2))
    with pytest.raises(ValueError, match="basis/target mismatch on subsystem 'a'"):
        qc.born_distribution(s, b)
    with pytest.raises(ValueError, match="basis/target mismatch on subsystem 'a'"):
        qc.project(s, b, 0)


def test_product_basis_label_order():
    # first factor slowest, as itertools.product
    bases = [qc.computational_basis((t, 2), labels=(1, -1)) for t in ("a", "b", "c")]
    joint = qc.product_basis(bases)
    assert joint.labels == (
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
    )
    assert joint.targets == (("a", 2), ("b", 2), ("c", 2))
    assert np.array_equal(joint.vectors, np.eye(8))


def _per_row_kron(bases):
    rows = []
    for factors in itertools.product(*(b.vectors for b in bases)):
        vec = np.ones(1, dtype=complex)
        for row in factors:
            vec = np.kron(vec, row)
        rows.append(vec)
    return np.array(rows)


def test_product_basis_non_identity_factors():
    # unequal dimensions 2, 3 and 4, none of them the identity
    ladder = qc.qubit_ladder_basis(("q", 2), 2)
    w = np.exp(2j * np.pi / 3)
    fourier = qc.BasisSpec((("t", 3),), np.array([[w ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3),
                           ("f0", "f1", "f2"))
    lifted = qc.lifted_basis(qc.qubit_ladder_basis(("s", 2), 2), qc.qubit_ladder_basis(("s", 2), 1), ("r", 2))
    for bases in ([ladder, fourier, lifted], [lifted, ladder], [fourier]):
        joint = qc.product_basis(bases)
        assert np.array_equal(joint.vectors, _per_row_kron(bases))
        assert joint.labels == tuple(itertools.product(*(b.labels for b in bases)))
        assert joint.targets == tuple(t for b in bases for t in b.targets)


@pytest.mark.parametrize("build,message", [
    (lambda: qc.StateVector(qc.SpaceLayout((("a", 2),)), [np.nan, 1]), "unnormalized input state"),
    (lambda: qc.Unitary(qc.SpaceLayout((("a", 2),)), [[np.nan, 0], [0, 1]]), "not unitary"),
    (lambda: qc.BasisSpec((("a", 2),), [[np.nan, 0], [0, 1]], (0, 1)), "not orthonormal"),
], ids=["state", "unitary", "basis"])
def test_nan_fails_constructor_tolerance(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_product_basis_rejects_overlapping_targets():
    a = qc.computational_basis(("a", 2))
    ab = qc.computational_basis((("a", 2), ("b", 2)))
    with pytest.raises(ValueError, match="overlap on subsystem 'a'"):
        qc.product_basis([ab, a])


def _complex_arrays(shape):
    entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.complex128, shape, elements=entries)


@st.composite
def _state_and_factors(draw):
    """A random state on 2-3 targets of dimension 2-3, and a random
    orthonormal basis of each target."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    targets = tuple((f"t{i}", d) for i, d in enumerate(dims))
    amp = draw(_complex_arrays(int(np.prod(dims))))
    norm = float(np.linalg.norm(amp))
    assume(norm > 0.1)
    s = qc.StateVector(qc.SpaceLayout(targets), amp / norm)
    factors = []
    for t in targets:
        q, _ = np.linalg.qr(draw(_complex_arrays((t[1], t[1]))))
        factors.append(qc.BasisSpec((t,), q.T.copy(), tuple(range(t[1]))))
    return s, factors


def _chained(s, factors, prefix=(), weight=1.0, out=None):
    """Collapse factor by factor: joint label -> (probability, collapsed state)."""
    out = {} if out is None else out
    if not factors:
        out[prefix] = (weight, s)
        return out
    for label, p in qc.born_distribution(s, factors[0]).items():
        if p > 1e-14:
            _chained(qc.project(s, factors[0], label), factors[1:], prefix + (label,), weight * p, out)
    return out


@given(_state_and_factors())
@settings(max_examples=60, deadline=None)
def test_product_observable_equals_sequential_measurement(case):
    # single joint readout versus chained single-factor collapse
    s, factors = case
    joint_basis = qc.product_basis(factors)
    joint = qc.born_distribution(s, joint_basis)
    seq = _chained(s, factors)
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-10)
    for key, p in joint.items():
        assert p == pytest.approx(seq.get(key, (0.0, None))[0], abs=1e-10)
    for key, (p, collapsed) in seq.items():
        if p > 1e-8:
            after = qc.project(s, joint_basis, key)
            assert np.allclose(after.amplitudes, collapsed.amplitudes, atol=1e-9, rtol=0)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_of_entangled_pair():
    s = entangled_pair()
    rho = qc.partial_trace(s, ["P1"])
    oracle = hand_reduced_matrix(s.amplitudes, (2, 2), keep_first=True)
    assert np.allclose(rho.matrix, oracle, atol=1e-12)
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


# ---------------------------------------------------------------------------
# pre-measurement unitaries


def test_premeasurement_computational_copy():
    u = qc.build_premeasurement(qc.computational_basis(("S", 2)), ("R", 2), init_label=0)
    # |j>|k> -> |j>|k (+) j>
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[1, 1] = 1  # j=0: identity on record
    expect[3, 2] = expect[2, 3] = 1  # j=1: flip record
    assert np.allclose(u.matrix, expect, atol=1e-12)


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
    # build sum over branches of amp * (basis vector) x (pointer vector);
    # pointers are the records' computational states, each record starts in 0
    sys = [("S1", 2), ("S2", 2), ("S3", 2)]
    rec = [("A1", 2), ("A2", 2), ("A3", 2)]
    b3 = [qc.qubit_ladder_basis(t, 1) for t in sys]
    pointer = np.eye(2, dtype=complex)

    ghz = qc.StateVector(qc.SpaceLayout(tuple(sys)), qc.ghz_amplitudes(3))
    inits = [qc.StateVector(qc.SpaceLayout((r,)), pointer[0]) for r in rec]
    psi = qc.tensor(ghz, *inits)
    for m in range(3):
        u = qc.build_premeasurement(b3[m], rec[m], init_label=0)
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
                    np.kron(np.kron(pointer[i0], pointer[i1]), pointer[i2]),
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
