"""State-vector kernel for small composite Hilbert spaces.

Everything here works on explicit complex-double arrays over a declared
tensor-product layout.  Subsystems are ordered, and amplitude indices are
big-endian in declaration order: the first declared subsystem varies
slowest.  The kernel provides tensor assembly, local unitary application,
basis measurements (Born-rule distributions and projective collapse, with
joint bases of several separate readouts built by ``product_basis``),
the partial trace of a pure state, and the pre-measurement unitaries that
copy a measured basis index onto a fresh record subsystem.

All floating-point comparisons use the absolute tolerance
``DEFAULT_ATOL`` = 1e-10, each written so that NaN fails it.  Each call
acts on one dense vector, which is meant to stay small (a few thousand
amplitudes at most).  The interpret engine keeps a branch state as a
product of such vectors, one per group of subsystems that events have
coupled, and hands the kernel only the factor an event touches, so the
dimension a call sees is that factor's, not the whole layout's.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

# tuple labels name the joint outcomes of a product basis
Label = Union[int, float, str, tuple]

DEFAULT_ATOL = 1e-10
# Below this probability an outcome counts as unreachable: projecting on it
# is an error rather than a division by (nearly) zero.
PROB_EPS = 1e-14
# Two Schmidt coefficients of a pair closer than this count as degenerate.
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

    # cached: the interpret engine reads the ids of every state factor per event
    @functools.cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @functools.cached_property
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

    def __post_init__(self) -> None:
        arr = _as_state_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", arr)
        n = self.layout.total_dimension
        if arr.shape != (n,):
            raise ValueError(f"amplitude length {arr.shape[0]} does not match layout dimension {n}")
        norm_sq = float(np.vdot(arr, arr).real)
        if not abs(norm_sq - 1.0) <= DEFAULT_ATOL:
            raise ValueError(f"unnormalized input state: squared norm {norm_sq!r} differs from 1 by more than {DEFAULT_ATOL}")
        arr.setflags(write=False)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator over a layout."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", arr)
        n = self.layout.total_dimension
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} does not match layout dimension {n}")
        if not np.allclose(arr, arr.conj().T, atol=DEFAULT_ATOL, rtol=0.0):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(arr).real)
        if not abs(tr - 1.0) <= DEFAULT_ATOL:
            raise ValueError(f"density matrix trace {tr!r} differs from 1 by more than {DEFAULT_ATOL}")
        eigs = np.linalg.eigvalsh(arr)
        if not float(eigs.min()) >= -10.0 * DEFAULT_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {float(eigs.min())!r}")
        arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Unitary:
    """Unitary operator over a layout."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", arr)
        n = self.layout.total_dimension
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} does not match layout dimension {n}")
        dev = float(np.max(np.abs(arr.conj().T @ arr - np.eye(n))))
        if not dev <= DEFAULT_ATOL:
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
        if not float(np.max(np.abs(gram - np.eye(arr.shape[0])))) <= DEFAULT_ATOL:
            raise ValueError("basis vectors are not orthonormal within tolerance")
        arr.setflags(write=False)

    @property
    def dim(self) -> int:
        d = 1
        for _, dim in self.targets:
            d *= dim
        return d

    # cached: the interpret engine reads it for every branch an outcome step expands
    @functools.cached_property
    def target_ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.targets)


# ---------------------------------------------------------------------------
# assembly and transport


def tensor(*states: StateVector) -> StateVector:
    """Tensor product of states, in the order given.

    Layouts concatenate; duplicate subsystem identifiers are rejected.
    """
    if not states:
        raise ValueError("tensor() needs at least one argument")
    combined = SpaceLayout(tuple(sub for s in states for sub in s.layout.subsystems))
    amp = states[0].amplitudes
    for s in states[1:]:
        amp = np.multiply.outer(amp, s.amplitudes).ravel()
    return StateVector(combined, amp)


def permute(s: StateVector, new_order: Sequence[str]) -> StateVector:
    """Reorder a state's subsystems to ``new_order``."""
    layout = s.layout
    if sorted(new_order) != sorted(layout.ids):
        raise ValueError(f"new order {tuple(new_order)} is not a permutation of {layout.ids}")
    t = s.tensor_view().transpose(layout.positions(new_order))
    return StateVector(layout.sublayout(new_order), t.reshape(-1))


def apply(u: Unitary, s: StateVector) -> StateVector:
    """Apply a unitary whose layout matches the state's exactly."""
    if u.layout.subsystems != s.layout.subsystems:
        raise ValueError(f"layout mismatch: unitary over {u.layout.ids}, state over {s.layout.ids}")
    return StateVector(s.layout, u.matrix @ s.amplitudes)


def _targets_first(positions: Sequence[int], ndim: int) -> tuple[int, ...]:
    """Axis permutation that puts ``positions`` first, in the order given, and
    the other axes after them in layout order."""
    return tuple(positions) + tuple(i for i in range(ndim) if i not in positions)


def _inverse(perm: Sequence[int]) -> list[int]:
    """The axis permutation that undoes ``perm``."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def apply_local(s: StateVector, u: Unitary) -> StateVector:
    """Apply a unitary acting on a subset of the state's subsystems."""
    positions = s.layout.positions(u.layout.ids)
    for name in u.layout.ids:
        if s.layout.dim_of(name) != u.layout.dim_of(name):
            raise ValueError(f"layout mismatch on subsystem {name!r}")
    perm = _targets_first(positions, len(s.layout.dims))
    t = s.tensor_view().transpose(perm)
    out = (u.matrix @ t.reshape(u.layout.total_dimension, -1)).reshape(t.shape)
    return StateVector(s.layout, out.transpose(_inverse(perm)).reshape(-1))


# ---------------------------------------------------------------------------
# measurement


def _target_rows(s: StateVector, b: BasisSpec) -> tuple[tuple[int, ...], np.ndarray]:
    """The axis permutation that puts the basis targets first, and the state
    as a matrix with one row per joint index of those targets."""
    for name, dim in b.targets:
        if s.layout.dim_of(name) != dim:
            raise ValueError(f"basis/target mismatch on subsystem {name!r}")
    perm = _targets_first(s.layout.positions(b.target_ids), len(s.layout.dims))
    return perm, s.tensor_view().transpose(perm).reshape(b.dim, -1)


def born_distribution(s: StateVector, b: BasisSpec) -> dict[Label, float]:
    """Exact Born distribution of a basis measurement, marginal over everything else."""
    _, flat = _target_rows(s, b)
    out: dict[Label, float] = {}
    total = 0.0
    for label, vec in zip(b.labels, b.vectors):
        residual = vec.conj() @ flat
        p = float(np.vdot(residual, residual).real)
        total += p
        out[label] = p
    if not abs(total - 1.0) <= 100.0 * DEFAULT_ATOL:
        raise ValueError(f"Born distribution sums to {total!r}; basis does not resolve the state")
    return out


def _component(s: StateVector, b: BasisSpec, outcome: Label) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, float]:
    """The axis permutation of ``_target_rows``, the outcome's basis vector,
    the state's rows contracted with its conjugate, and that residual's
    squared norm, the outcome's probability."""
    perm, flat = _target_rows(s, b)
    try:
        vec = b.vectors[b.labels.index(outcome)]
    except ValueError:
        raise KeyError(f"unknown outcome {outcome!r}") from None
    residual = vec.conj() @ flat
    p = float(np.vdot(residual, residual).real)
    if p <= PROB_EPS:
        raise ZeroProbabilityError(f"outcome {outcome!r} has probability {p!r}; cannot project")
    return perm, vec, residual, p


def residual(s: StateVector, b: BasisSpec, outcome: Label) -> tuple[np.ndarray, float]:
    """The state's unnormalized component on one outcome, contracted over the
    basis targets: amplitudes over the other subsystems in layout order, and
    the outcome's probability.  ``project`` is the basis vector times this
    residual, over the square root of that probability.

    Raises :class:`ZeroProbabilityError` when the outcome carries no weight.
    """
    _, _, rest, p = _component(s, b, outcome)
    return rest, p


def project(s: StateVector, b: BasisSpec, outcome: Label) -> StateVector:
    """Collapse onto one outcome and renormalize.

    Raises :class:`ZeroProbabilityError` when the outcome carries no weight.
    """
    perm, vec, rest, p = _component(s, b, outcome)
    dims = s.layout.dims
    # the outer product (targets) x (rest) as a matrix product, which rounds
    # complex entries as np.tensordot does; np.multiply.outer differs in the
    # last bits
    t = np.dot(vec.reshape(-1, 1), rest.reshape(1, -1))
    t = t.reshape([dims[i] for i in perm]).transpose(_inverse(perm))
    return StateVector(s.layout, t.reshape(-1) / np.sqrt(p))


def partial_trace(state: StateVector, keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (in the order given)."""
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep set")
    perm = _targets_first(state.layout.positions(keep), len(state.layout.dims))
    new_layout = state.layout.sublayout(keep)
    mat = state.tensor_view().transpose(perm).reshape(new_layout.total_dimension, -1)
    return DensityMatrix(new_layout, mat @ mat.conj().T)


# ---------------------------------------------------------------------------
# pre-measurement (record-writing) unitaries


def build_premeasurement(b: BasisSpec, record: tuple[str, int], init_label: int) -> Unitary:
    """Unitary that copies the measured basis index onto a fresh record.

    Acting on (targets of ``b``) x record, the operator maps the j-th basis
    vector paired with the record's init state to the same basis vector
    paired with the j-th record pointer state.  Pointer states are the
    record's computational basis; ``init_label`` is the index of the
    pointer state the record starts in.  Completion to a full unitary
    cyclically shifts the pointer index, so with init 0 the record index
    k maps to (k + j) mod d.
    """
    record_id, d = record
    n = len(b.labels)
    if d < n:
        raise ValueError(f"record too small: dimension {d} cannot hold {n} outcomes")
    pointer_labels = tuple(range(d))
    if init_label not in pointer_labels:
        raise ValueError(f"init label {init_label!r} is not a pointer state label")
    k0 = pointer_labels.index(init_label)
    u = np.zeros((b.dim * d, b.dim * d), dtype=np.complex128)
    for j in range(b.dim):
        shift = (j - k0) % d if j < n else 0
        w = np.roll(np.eye(d, dtype=np.complex128), shift, axis=0)  # pointer k -> k + shift
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


def product_basis(bases: Sequence[BasisSpec]) -> BasisSpec:
    """Joint basis of separate basis measurements on disjoint targets.

    Outcomes are label tuples with the first basis varying slowest; each
    joint vector is the Kronecker product of one vector per factor.
    """
    if not bases:
        raise ValueError("a product basis needs at least one factor")
    targets = tuple(t for b in bases for t in b.targets)
    seen: set[str] = set()
    for name, _ in targets:
        if name in seen:
            raise ValueError(f"product basis factors overlap on subsystem {name!r}")
        seen.add(name)
    # rows of a Kronecker product of matrices run first factor slowest, as
    # itertools.product does
    vectors = functools.reduce(np.kron, [b.vectors for b in bases])
    labels = tuple(itertools.product(*(b.labels for b in bases)))
    return BasisSpec(targets=targets, vectors=vectors, labels=labels)


def i_superposed(b: BasisSpec) -> BasisSpec:
    """Two-outcome basis (v0 +- i v1)/sqrt(2), labelled 1 and -1, built from an
    ordered two-vector basis."""
    if len(b.labels) != 2:
        raise ValueError("i_superposed needs a two-outcome basis")
    v0, v1 = b.vectors[0], b.vectors[1]
    plus = (v0 + 1j * v1) / np.sqrt(2.0)
    minus = (v0 - 1j * v1) / np.sqrt(2.0)
    return BasisSpec(targets=b.targets, vectors=np.array([plus, minus]), labels=(1, -1))


def qubit_ladder_basis(target: tuple[str, int], depth: int) -> BasisSpec:
    """Single-qubit basis family, labelled 1 and -1: depth 0 is computational,
    each further depth superposes the previous two vectors with +-i phases."""
    if target[1] != 2:
        raise ValueError("qubit_ladder_basis is defined for dimension-2 targets")
    b = computational_basis(target, labels=(1, -1))
    for _ in range(depth):
        b = i_superposed(b)
    return b


def lifted_basis(outer: BasisSpec, inner: BasisSpec, record: tuple[str, int]) -> BasisSpec:
    """Image of ``outer`` on a (system, record) pair after a record-writing
    interaction in ``inner``.

    The interaction encodes the l-th inner vector as (inner_l, pointer_l),
    pointer_l being the record's l-th computational state;
    the lifted basis re-expresses each outer vector in inner coordinates and
    carries the coordinates onto those encoded product states.  The two
    image vectors are completed to a full basis of the pair; completion
    outcomes get string labels and zero weight on encoded states.
    """
    if outer.targets != inner.targets:
        raise ValueError("outer and inner bases must address the same target")
    n = len(inner.labels)
    record_id, d = record
    pointer_rows = np.eye(d, dtype=np.complex128)[:n]
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
