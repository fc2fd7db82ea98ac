"""Dense state-vector kernel for small composite Hilbert spaces.

Everything here works on explicit complex-double arrays over a declared
tensor-product layout.  Subsystems are ordered, and amplitude indices are
big-endian in declaration order: the first declared subsystem varies
slowest.  The kernel provides tensor assembly, local unitary application,
Born-rule distributions over declared observables, projective collapse,
partial traces, Schmidt decompositions and the pre-measurement unitaries
that copy a measured basis index onto a fresh record subsystem.

All floating-point comparisons use an absolute tolerance, 1e-10 unless a
caller overrides it.  Dimensions are meant to stay small (total dimension
of a few thousand at most); nothing here is sparse or clever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

Label = Union[int, float, str]
OutcomeKey = Union[Label, tuple]

DEFAULT_ATOL = 1e-10
# Below this probability an outcome counts as unreachable: projecting on it
# is an error rather than a division by (nearly) zero.
PROB_EPS = 1e-14
# Two Schmidt coefficients closer than this count as degenerate.
DISTINCT_TOL = 1e-8


class ZeroProbabilityError(ValueError):
    """Raised when a projection targets an outcome of (numerically) zero weight."""


def _as_state_array(values: Iterable[complex]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat amplitude list, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered collection of named subsystems with fixed dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, dim in self.subsystems:
            if name in seen:
                raise ValueError(f"duplicate subsystem identifier {name!r}")
            seen.add(name)
            if dim < 2:
                raise ValueError(f"subsystem {name!r} has dimension {dim}; every dimension must be >= 2")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dimension(self) -> int:
        out = 1
        for _, dim in self.subsystems:
            out *= dim
        return out

    def position(self, name: str) -> int:
        for i, (sid, _) in enumerate(self.subsystems):
            if sid == name:
                return i
        raise KeyError(f"unknown subsystem {name!r}")

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def dim_of(self, name: str) -> int:
        return self.subsystems[self.position(name)][1]

    def sublayout(self, names: Sequence[str]) -> "SpaceLayout":
        """Layout over ``names`` in the order given."""
        return SpaceLayout(tuple((n, self.dim_of(n)) for n in names))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over a layout."""

    layout: SpaceLayout
    amplitudes: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        arr = _as_state_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", arr)
        n = self.layout.total_dimension
        if arr.shape != (n,):
            raise ValueError(f"amplitude length {arr.shape[0]} does not match layout dimension {n}")
        norm_sq = float(np.vdot(arr, arr).real)
        if abs(norm_sq - 1.0) > self.atol:
            raise ValueError(f"unnormalized input state: squared norm {norm_sq!r} differs from 1 by more than {self.atol}")
        arr.setflags(write=False)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator over a layout."""

    layout: SpaceLayout
    matrix: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", arr)
        n = self.layout.total_dimension
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} does not match layout dimension {n}")
        if not np.allclose(arr, arr.conj().T, atol=self.atol, rtol=0.0):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > self.atol:
            raise ValueError(f"density matrix trace {tr!r} differs from 1 by more than {self.atol}")
        eigs = np.linalg.eigvalsh(arr)
        if float(eigs.min()) < -10.0 * self.atol:
            raise ValueError(f"density matrix has negative eigenvalue {float(eigs.min())!r}")
        arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Unitary:
    """Unitary operator over a layout."""

    layout: SpaceLayout
    matrix: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", arr)
        n = self.layout.total_dimension
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} does not match layout dimension {n}")
        dev = float(np.max(np.abs(arr.conj().T @ arr - np.eye(n))))
        if dev > self.atol:
            raise ValueError(f"operator is not unitary: max |U†U - I| = {dev!r}")
        arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Labelled orthonormal basis of the joint space of a subsystem subset.

    ``vectors`` has one row per outcome and must span the subset's space;
    ``labels`` names the outcomes and must be pairwise distinct.
    """

    targets: tuple[tuple[str, int], ...]
    vectors: np.ndarray
    labels: tuple[Label, ...]
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=np.complex128)
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "labels", tuple(self.labels))
        d = self.dim
        if arr.ndim != 2 or arr.shape[1] != d:
            raise ValueError(f"basis vectors have shape {arr.shape}, expected (k, {d})")
        if arr.shape[0] != d:
            raise ValueError(f"basis has {arr.shape[0]} vectors but the target space has dimension {d}; a basis must span it")
        if len(self.labels) != arr.shape[0]:
            raise ValueError("one label per basis vector is required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be pairwise distinct")
        gram = arr.conj() @ arr.T
        if float(np.max(np.abs(gram - np.eye(arr.shape[0])))) > self.atol:
            raise ValueError("basis vectors are not orthonormal within tolerance")
        arr.setflags(write=False)

    @property
    def dim(self) -> int:
        d = 1
        for _, dim in self.targets:
            d *= dim
        return d

    @property
    def target_ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.targets)

    def vector_for(self, label: Label) -> np.ndarray:
        return self.vectors[self.labels.index(label)]


@dataclass(frozen=True, eq=False)
class ObservableFactor:
    basis: BasisSpec


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """One or more basis measurements on disjoint targets, read out jointly.

    With a single factor the outcome keys are the basis labels; with several
    factors they are label tuples.  ``composition`` records whether the
    observable is meant as a product of separate readouts or as one single
    measurement of the joint eigenbasis; the induced distribution is the
    same either way.
    """

    factors: tuple[ObservableFactor, ...]
    composition: str = "product"

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("an observable needs at least one factor")
        if self.composition not in ("product", "single"):
            raise ValueError(f"unknown composition {self.composition!r}")
        seen: set[str] = set()
        for f in self.factors:
            for name in f.basis.target_ids:
                if name in seen:
                    raise ValueError(f"observable factors overlap on subsystem {name!r}")
                seen.add(name)

    @classmethod
    def single(cls, basis: BasisSpec) -> "ObservableSpec":
        return cls(factors=(ObservableFactor(basis),), composition="single")

    @classmethod
    def product(cls, factors: Sequence[ObservableFactor | BasisSpec]) -> "ObservableSpec":
        fs = tuple(f if isinstance(f, ObservableFactor) else ObservableFactor(f) for f in factors)
        return cls(factors=fs, composition="product")

    @property
    def target_ids(self) -> tuple[str, ...]:
        out: list[str] = []
        for f in self.factors:
            out.extend(f.basis.target_ids)
        return tuple(out)

    def raw_outcomes(self) -> list[OutcomeKey]:
        if len(self.factors) == 1:
            return list(self.factors[0].basis.labels)
        pools: list[list[OutcomeKey]] = [[]]
        for f in self.factors:
            pools = [prev + [lab] for prev in pools for lab in f.basis.labels]
        return [tuple(p) for p in pools]


# ---------------------------------------------------------------------------
# assembly and transport


def tensor(*objects):
    """Tensor product of states or of unitaries, in the order given.

    Layouts concatenate; duplicate subsystem identifiers are rejected.
    """
    if not objects:
        raise ValueError("tensor() needs at least one argument")
    combined = SpaceLayout(tuple(sub for o in objects for sub in o.layout.subsystems))
    if all(isinstance(o, StateVector) for o in objects):
        amp = objects[0].amplitudes
        for o in objects[1:]:
            amp = np.kron(amp, o.amplitudes)
        return StateVector(combined, amp)
    if all(isinstance(o, Unitary) for o in objects):
        mat = objects[0].matrix
        for o in objects[1:]:
            mat = np.kron(mat, o.matrix)
        return Unitary(combined, mat)
    raise TypeError("tensor() arguments must be all StateVector or all Unitary")


def permute(obj: StateVector | Unitary, new_order: Sequence[str]):
    """Reorder a state's or unitary's subsystems to ``new_order``."""
    layout = obj.layout
    if sorted(new_order) != sorted(layout.ids):
        raise ValueError(f"new order {tuple(new_order)} is not a permutation of {layout.ids}")
    perm = layout.positions(new_order)
    new_layout = layout.sublayout(new_order)
    if isinstance(obj, StateVector):
        t = obj.tensor_view().transpose(perm)
        return StateVector(new_layout, t.reshape(-1))
    k = len(layout.dims)
    t = obj.matrix.reshape(layout.dims + layout.dims)
    t = t.transpose(tuple(perm) + tuple(p + k for p in perm))
    n = new_layout.total_dimension
    return Unitary(new_layout, t.reshape(n, n))


def apply(u: Unitary, s: StateVector) -> StateVector:
    """Apply a unitary whose layout matches the state's exactly."""
    if u.layout.subsystems != s.layout.subsystems:
        raise ValueError(f"layout mismatch: unitary over {u.layout.ids}, state over {s.layout.ids}")
    return StateVector(s.layout, u.matrix @ s.amplitudes)


def apply_local(s: StateVector, u: Unitary) -> StateVector:
    """Apply a unitary acting on a subset of the state's subsystems."""
    positions = s.layout.positions(u.layout.ids)
    for name in u.layout.ids:
        if s.layout.dim_of(name) != u.layout.dim_of(name):
            raise ValueError(f"layout mismatch on subsystem {name!r}")
    k = len(positions)
    t = np.moveaxis(s.tensor_view(), positions, range(k))
    front = u.layout.total_dimension
    flat = t.reshape(front, -1)
    out = (u.matrix @ flat).reshape(t.shape)
    out = np.moveaxis(out, range(k), positions)
    return StateVector(s.layout, out.reshape(-1))


# ---------------------------------------------------------------------------
# measurement


def _contraction(s: StateVector, positions: Sequence[int], vector: np.ndarray) -> np.ndarray:
    """<v| applied on the given axes; returns the residual tensor, flattened."""
    k = len(positions)
    t = np.moveaxis(s.tensor_view(), positions, range(k))
    shape_rest = t.shape[k:]
    flat = t.reshape(vector.shape[0], -1)
    return (vector.conj() @ flat).reshape(shape_rest)


def _observable_parts(s: StateVector, m: ObservableSpec) -> tuple[tuple[int, ...], list[tuple[OutcomeKey, np.ndarray]]]:
    positions: list[int] = []
    for f in m.factors:
        for name, dim in f.basis.targets:
            if s.layout.dim_of(name) != dim:
                raise ValueError(f"basis/target mismatch on subsystem {name!r}")
            positions.append(s.layout.position(name))
    raw = m.raw_outcomes()
    combos: list[tuple[OutcomeKey, np.ndarray]] = []
    for key in raw:
        labels = (key,) if len(m.factors) == 1 else key
        vec = np.ones(1, dtype=np.complex128)
        for f, lab in zip(m.factors, labels):
            vec = np.kron(vec, f.basis.vector_for(lab))
        combos.append((key, vec))
    return tuple(positions), combos


def _coerce_observable(m: ObservableSpec | BasisSpec) -> ObservableSpec:
    return ObservableSpec.single(m) if isinstance(m, BasisSpec) else m


def born_distribution(s: StateVector, m: ObservableSpec | BasisSpec) -> dict[OutcomeKey, float]:
    """Exact Born distribution of an observable, marginal over everything else."""
    m = _coerce_observable(m)
    positions, combos = _observable_parts(s, m)
    out: dict[OutcomeKey, float] = {}
    total = 0.0
    for key, vec in combos:
        residual = _contraction(s, positions, vec)
        p = float(np.vdot(residual, residual).real)
        total += p
        out[key] = p
    if abs(total - 1.0) > 100.0 * DEFAULT_ATOL:
        raise ValueError(f"Born distribution sums to {total!r}; observable does not resolve the state")
    return out


def project(s: StateVector, m: ObservableSpec | BasisSpec, outcome: OutcomeKey) -> StateVector:
    """Collapse onto one outcome and renormalize.

    Raises :class:`ZeroProbabilityError` when the outcome carries no weight.
    """
    m = _coerce_observable(m)
    positions, combos = _observable_parts(s, m)
    vec = None
    for key, v in combos:
        if key == outcome:
            vec = v
            break
    if vec is None:
        raise KeyError(f"unknown outcome {outcome!r}")
    residual = _contraction(s, positions, vec)
    p = float(np.vdot(residual, residual).real)
    if p <= PROB_EPS:
        raise ZeroProbabilityError(f"outcome {outcome!r} has probability {p!r}; cannot project")
    k = len(positions)
    t = np.tensordot(vec.reshape([d for f in m.factors for _, d in f.basis.targets]), residual, axes=0)
    t = np.moveaxis(t, range(k), positions)
    return StateVector(s.layout, t.reshape(-1) / np.sqrt(p))


def partial_trace(state: StateVector | DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (in the order given)."""
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep set")
    layout = state.layout
    keep_pos = layout.positions(keep)
    rest_pos = [i for i in range(len(layout.dims)) if i not in keep_pos]
    new_layout = layout.sublayout(keep)
    dk = new_layout.total_dimension
    if isinstance(state, StateVector):
        t = np.moveaxis(state.tensor_view(), keep_pos, range(len(keep_pos)))
        mat = t.reshape(dk, -1)
        return DensityMatrix(new_layout, mat @ mat.conj().T)
    n = len(layout.dims)
    t = state.matrix.reshape(layout.dims + layout.dims)
    order = list(keep_pos) + rest_pos
    t = t.transpose(tuple(order) + tuple(p + n for p in order))
    dr = layout.total_dimension // dk
    t = t.reshape(dk, dr, dk, dr)
    return DensityMatrix(new_layout, np.einsum("arbr->ab", t))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    coefficients: np.ndarray
    left: tuple[StateVector, ...]
    right: tuple[StateVector, ...]
    unique: bool


def schmidt(s: StateVector, left: Sequence[str], right: Sequence[str]) -> SchmidtDecomposition:
    """Schmidt decomposition across a bipartition of the full layout.

    Coefficients come back descending with zeros dropped; ``unique`` is true
    iff the nonzero coefficients are pairwise distinct beyond 1e-8.
    """
    layout = s.layout
    if sorted(list(left) + list(right)) != sorted(layout.ids):
        raise ValueError("bipartition must cover the layout with disjoint parts")
    lpos = layout.positions(left)
    rpos = layout.positions(right)
    t = np.moveaxis(s.tensor_view(), list(lpos) + list(rpos), range(len(layout.dims)))
    dl = int(np.prod([layout.dims[i] for i in lpos]))
    mat = t.reshape(dl, -1)
    u, sing, vh = np.linalg.svd(mat, full_matrices=False)
    mask = sing > DISTINCT_TOL
    sing = sing[mask]
    left_layout = layout.sublayout(left)
    right_layout = layout.sublayout(right)
    lvecs = tuple(StateVector(left_layout, u[:, i]) for i in range(len(sing)))
    rvecs = tuple(StateVector(right_layout, vh[i, :]) for i in range(len(sing)))
    unique = all(abs(sing[i] - sing[j]) > DISTINCT_TOL for i in range(len(sing)) for j in range(i + 1, len(sing)))
    return SchmidtDecomposition(sing, lvecs, rvecs, unique)


# ---------------------------------------------------------------------------
# pre-measurement (record-writing) unitaries


def build_premeasurement(
    b: BasisSpec,
    record: tuple[str, int],
    init_label: Label,
    pointer_basis: BasisSpec | None = None,
) -> Unitary:
    """Unitary that copies the measured basis index onto a fresh record.

    Acting on (targets of ``b``) x record, the operator maps the j-th basis
    vector paired with the record's init state to the same basis vector
    paired with the j-th record pointer state.  Pointer states default to
    the record's computational basis; ``init_label`` names the pointer
    state the record starts in.  Completion to a full unitary cyclically
    shifts the pointer index, so with computational pointers and init 0 the
    record index k maps to (k + j) mod d.
    """
    record_id, d = record
    n = len(b.labels)
    if d < n:
        raise ValueError(f"record too small: dimension {d} cannot hold {n} outcomes")
    if pointer_basis is None:
        rows = np.eye(d, dtype=np.complex128)
        pointer_labels: tuple[Label, ...] = tuple(range(d))
    else:
        rows = np.asarray(pointer_basis.vectors, dtype=np.complex128)
        pointer_labels = pointer_basis.labels
        if rows.shape[1] != d:
            raise ValueError("pointer basis does not live on the record space")
        if len(pointer_labels) < n:
            raise ValueError("pointer basis must provide one state per outcome")
        rows = np.vstack([rows, _orthonormal_completion(rows, d)])
    if init_label not in pointer_labels:
        raise ValueError(f"init label {init_label!r} is not a pointer state label")
    k0 = list(pointer_labels).index(init_label)
    u = np.zeros((b.dim * d, b.dim * d), dtype=np.complex128)
    for j in range(b.dim):
        if j < n:
            shift = (j - k0) % d
        else:
            shift = 0
        w = np.zeros((d, d), dtype=np.complex128)
        for k in range(d):
            w += np.outer(rows[(k + shift) % d], rows[k].conj())
        bj = b.vectors[j]
        u += np.kron(np.outer(bj, bj.conj()), w)
    layout = SpaceLayout(tuple(b.targets) + ((record_id, d),))
    return Unitary(layout, u)


# ---------------------------------------------------------------------------
# stock states and bases


def _orthonormal_completion(rows: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic orthonormal completion of a row family to a full basis."""
    have = [rows[i] for i in range(rows.shape[0])]
    out = []
    for k in range(dim):
        cand = np.zeros(dim, dtype=np.complex128)
        cand[k] = 1.0
        for v in have:
            cand = cand - v * np.vdot(v, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 0.5:
            cand = cand / norm
            have.append(cand)
            out.append(cand)
        if len(have) == dim:
            break
    return np.array(out) if out else np.zeros((0, dim), dtype=np.complex128)


def computational_basis(targets: Sequence[tuple[str, int]] | tuple[str, int], labels: Sequence[Label] | None = None) -> BasisSpec:
    """Standard basis of one subsystem or of a joint subset, labelled 0..D-1 by default."""
    if targets and isinstance(targets[0], str):
        targets = (targets,)  # type: ignore[assignment]
    targets = tuple(targets)  # type: ignore[arg-type]
    d = 1
    for _, dim in targets:
        d *= dim
    if labels is None:
        labels = tuple(range(d))
    return BasisSpec(targets=targets, vectors=np.eye(d, dtype=np.complex128), labels=tuple(labels))


def i_superposed(b: BasisSpec, labels: tuple[Label, Label] = (1, -1)) -> BasisSpec:
    """Two-outcome basis (v0 +- i v1)/sqrt(2) built from an ordered two-vector basis."""
    if len(b.labels) != 2:
        raise ValueError("i_superposed needs a two-outcome basis")
    v0, v1 = b.vectors[0], b.vectors[1]
    plus = (v0 + 1j * v1) / np.sqrt(2.0)
    minus = (v0 - 1j * v1) / np.sqrt(2.0)
    return BasisSpec(targets=b.targets, vectors=np.array([plus, minus]), labels=labels)


def qubit_ladder_basis(target: tuple[str, int], depth: int, labels: tuple[Label, Label] = (1, -1)) -> BasisSpec:
    """Single-qubit basis family: depth 0 is computational, each further depth
    superposes the previous two vectors with +-i phases."""
    if target[1] != 2:
        raise ValueError("qubit_ladder_basis is defined for dimension-2 targets")
    b = computational_basis(target, labels=labels)
    for _ in range(depth):
        b = i_superposed(b, labels=labels)
    return b


def lifted_basis(
    outer: BasisSpec,
    inner: BasisSpec,
    record: tuple[str, int],
    pointer_rows: np.ndarray | None = None,
) -> BasisSpec:
    """Image of ``outer`` on a (system, record) pair after a record-writing
    interaction in ``inner``.

    The interaction encodes the l-th inner vector as (inner_l, pointer_l);
    the lifted basis re-expresses each outer vector in inner coordinates and
    carries the coordinates onto those encoded product states.  The two
    image vectors are completed to a full basis of the pair; completion
    outcomes get string labels and zero weight on encoded states.
    """
    if outer.targets != inner.targets:
        raise ValueError("outer and inner bases must address the same target")
    n = len(inner.labels)
    record_id, d = record
    if pointer_rows is None:
        pointer_rows = np.eye(d, dtype=np.complex128)[:n]
    pointer_rows = np.asarray(pointer_rows, dtype=np.complex128)
    if pointer_rows.shape != (n, d):
        raise ValueError(f"pointer rows must have shape ({n}, {d})")
    coords = inner.vectors.conj() @ outer.vectors.T  # coords[l, k] = <inner_l|outer_k>
    dim_pair = inner.dim * d
    vecs = []
    for k in range(len(outer.labels)):
        v = np.zeros(dim_pair, dtype=np.complex128)
        for l in range(n):
            v += coords[l, k] * np.kron(inner.vectors[l], pointer_rows[l])
        vecs.append(v)
    family = np.array(vecs)
    completion = _orthonormal_completion(family, dim_pair)
    labels = tuple(outer.labels) + tuple(f"perp{i + 1}" for i in range(completion.shape[0]))
    targets = tuple(inner.targets) + ((record_id, d),)
    return BasisSpec(targets=targets, vectors=np.vstack([family, completion]), labels=labels)


def ghz_amplitudes(n: int = 3) -> np.ndarray:
    """Equal superposition of the all-0 and all-1 computational strings."""
    amp = np.zeros(2 ** n, dtype=np.complex128)
    amp[0] = 1.0 / np.sqrt(2.0)
    amp[-1] = 1.0 / np.sqrt(2.0)
    return amp


def correlated_pair_amplitudes(c: Sequence[float]) -> np.ndarray:
    """Two-subsystem state sum_l c_l |l>|l> from real coefficients."""
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    amp = np.zeros(d * d, dtype=np.complex128)
    for l in range(d):
        amp[l * d + l] = c[l]
    return amp


def random_state(layout: SpaceLayout, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state (normalized complex Gaussian amplitudes)."""
    n = layout.total_dimension
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(layout, amp / np.linalg.norm(amp))
