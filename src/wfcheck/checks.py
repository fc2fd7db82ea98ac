"""Contradiction analyzers comparing rule-set predictions on fixed scenarios.

Three checks, each emitting a structured report:

* ``cpl_probability_check``: a system is copied into a friend's record,
  the record is copied into an outside register, and the register is
  read out.  The Born weight of the readout disagreeing with the
  friend's value is positive for any spread-out preparation, while a
  cross-perspective link demands zero.
* ``epr_correlation_check``: two agents each measure half of a
  correlated pair.  Collapse forces agreement; relative facts with
  separate conditioning pools make the outcomes independent; a shared
  pool restores agreement.  The two partition readings disagree, which
  the report flags as an ambiguity.
* ``ghz_check``: three qubits in an equal superposition of all-0 and
  all-1, each copied into a record, the state taken from the engine.
  Rotated joint measurements of the (system, record) pairs obey fixed
  sign constraints whose conjunction admits no fixed record-value
  assignment: the exhaustive search over all eight sign patterns comes
  back empty, and multiplying the constraints formally squares the
  record product to -1.

``parity_search`` is the generic exhaustive solver the last step uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

from . import interpret as it
from . import qcore
from . import scenario as sc

VERDICT_TOL = 1e-9
MAX_VARIABLES = 20

VERDICTS = ("consistent", "contradiction", "ambiguity")


@dataclass(frozen=True)
class Finding:
    """One quantitative claim, the values each rule set predicts, and the gap."""

    claim: str
    values: tuple[tuple[str, float], ...]
    discrepancy: float


@dataclass(frozen=True)
class ParityConstraint:
    """Product of ±1 variables (with multiplicity) required to equal a fixed sign."""

    variables: tuple[str, ...]
    required: int
    provenance: str

    def __post_init__(self) -> None:
        if self.required not in (1, -1):
            raise ValueError(f"required product must be +1 or -1, got {self.required!r}")
        if not self.variables:
            raise ValueError("a parity constraint needs at least one variable")

    def satisfied_by(self, assignment: dict[str, int]) -> bool:
        value = 1
        for v in self.variables:
            value *= assignment[v]
        return value == self.required


@dataclass(frozen=True)
class AssignmentSearchResult:
    domain_size: int
    satisfying: tuple[tuple[tuple[str, int], ...], ...]
    formal_square: str | None = None        # e.g. "(A1*A2*A3)^2 = -1"
    formal_product_value: str | None = None  # e.g. "±i"


@dataclass(frozen=True)
class ContradictionReport:
    name: str
    rule_sets: tuple[str, ...]
    findings: tuple[Finding, ...]
    verdict: str
    narrative: str
    tolerance: float = VERDICT_TOL
    assignment_search: AssignmentSearchResult | None = None

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")
        if self.verdict == "contradiction":
            if not any(f.discrepancy > self.tolerance for f in self.findings):
                raise ValueError("contradiction verdict needs a finding above tolerance")


# ---------------------------------------------------------------------------
# record readout probability


def cpl_probability_check(c, r_a: int) -> ContradictionReport:
    """Copy chain system -> record -> register; compare readout with the pin.

    ``c`` are the preparation amplitudes, ``r_a`` the value the friend's
    record holds on the branch under discussion.  The report carries the
    Born probability that the register readout differs from ``r_a`` and
    the cross-perspective-link requirement that it never does.
    """
    amps = np.asarray([complex(x) for x in c], dtype=complex)
    d = amps.size
    if d < 2:
        raise ValueError("need at least two coefficients")
    norm = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm - 1.0) <= qcore.DEFAULT_ATOL:
        raise ValueError(f"coefficients are not normalized: squared norm {norm!r}")
    if not 0 <= r_a < d:
        raise ValueError(f"record value index {r_a} out of range for {d} outcomes")
    if (d * d) ** 2 > it.ENTRY_LIMIT:
        raise ValueError(f"{d} outcomes build a premeasurement of {(d * d) ** 2} entries, "
                         f"over the limit of {it.ENTRY_LIMIT}")

    layout_s = qcore.SpaceLayout((("S", d),))
    layout_a = qcore.SpaceLayout((("A", d),))
    layout_b = qcore.SpaceLayout((("B", d),))
    ground = np.zeros(d, dtype=complex)
    ground[0] = 1.0
    psi0 = qcore.tensor(
        qcore.StateVector(layout_s, amps),
        qcore.StateVector(layout_a, ground.copy()),
        qcore.StateVector(layout_b, ground.copy()),
    )
    copy_to_record = qcore.build_premeasurement(qcore.computational_basis(("S", d)), ("A", d), 0)
    psi1 = qcore.apply_local(psi0, copy_to_record)
    copy_to_register = qcore.build_premeasurement(qcore.computational_basis(("A", d)), ("B", d), 0)
    psi2 = qcore.apply_local(psi1, copy_to_register)

    register_dist = qcore.born_distribution(psi2, qcore.computational_basis(("B", d)))
    born_wrong = float(sum(p for j, p in register_dist.items() if j != r_a))

    # the register interaction must not move the record's reduced state
    before = qcore.partial_trace(psi1, ("A",)).matrix
    after = qcore.partial_trace(psi2, ("A",)).matrix
    reduction_shift = float(np.max(np.abs(before - after)))

    tolerance = 1e-12
    verdict = "contradiction" if born_wrong > tolerance else "consistent"
    findings = (
        Finding(
            claim="probability that the register readout differs from the record value",
            values=(("rqm5", born_wrong), ("cpl", 0.0)),
            discrepancy=born_wrong,
        ),
        Finding(
            claim="largest shift of the record's reduced matrix caused by the register interaction",
            values=(("all", reduction_shift),),
            discrepancy=reduction_shift,
        ),
    )
    narrative = (
        f"A {d}-outcome preparation is copied into a record and the record into "
        f"an outside register. The register readout is Born distributed over the "
        f"pointer values, so it differs from the record value {r_a} with "
        f"probability {born_wrong:.12g}. A cross-perspective link requires that "
        f"probability to be exactly 0"
        + (", which contradicts the unitary account." if verdict == "contradiction"
           else "; a deterministic preparation satisfies both accounts.")
    )
    return ContradictionReport(
        name="cpl",
        rule_sets=("rqm5", "cpl"),
        findings=findings,
        verdict=verdict,
        narrative=narrative,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# correlated pair under different partitions


def _pair_scenario(c0: float, c1: float, shared_pool: bool) -> sc.Scenario:
    timeline: list[sc.Event] = []
    if shared_pool:
        timeline.append(sc.DeclarePartition("shared", (("alice", "bob"),)))
    timeline += [
        sc.Prepare(sc.SchmidtState(c0, c1), ("S1", "S2")),
        sc.Interact("alice", ("S1",), sc.PresetBasis("basis1"), "A"),
        sc.Interact("bob", ("S2",), sc.PresetBasis("basis1"), "B"),
    ]
    return sc.Scenario(
        name="pair",
        systems=(("S1", 2), ("S2", 2)),
        agents=(
            sc.AgentDecl("alice", (sc.RecordDecl("A", 2, 0),)),
            sc.AgentDecl("bob", (sc.RecordDecl("B", 2, 0),)),
        ),
        observers=(),
        bases=(),
        timeline=tuple(timeline),
    )


def _readback_scenario(c0: float, c1: float) -> sc.Scenario:
    return sc.Scenario(
        name="readback",
        systems=(("S", 2),),
        agents=(sc.AgentDecl("alice", (sc.RecordDecl("A", 2, 0),)),),
        observers=(sc.ObserverDecl("bob"),),
        bases=(),
        timeline=(
            sc.Prepare(sc.RawState((complex(c0), complex(c1))), ("S",)),
            sc.Interact("alice", ("S",), sc.PresetBasis("basis1"), "A"),
            sc.ReadRecord("bob", "alice", "A", None, "rb"),
        ),
    )


def _match_probability(joint: dict) -> float:
    return float(sum(p for k, p in joint.items() if k[0] == k[1]))


def epr_correlation_check(c) -> ContradictionReport:
    """Compare agreement probabilities for two agents measuring a correlated pair."""
    pair = tuple(float(x) for x in c)
    if len(pair) != 2:
        raise ValueError("need exactly two coefficients")
    c0, c1 = pair
    if not abs(c0 * c0 + c1 * c1 - 1.0) <= qcore.DEFAULT_ATOL:
        raise ValueError(f"coefficients are not normalized: squared norm {c0 * c0 + c1 * c1!r}")
    # the engine drops outcomes at or below PROB_EPS
    if min(c0 * c0, c1 * c1) <= qcore.PROB_EPS:
        raise ValueError("degenerate preparation: both coefficients must be nonzero")
    if abs(abs(c0) - abs(c1)) <= qcore.DISTINCT_TOL:
        raise ValueError("degenerate preparation: coefficients must be distinct")

    separate = _pair_scenario(c0, c1, False)  # validated once for both rule sets
    p_orthodox = _match_probability(it.exact_joint(separate, it.RuleSet.orthodox()))
    p_separate = _match_probability(it.exact_joint(separate, it.RuleSet.rqm5()))
    p_joint = _match_probability(it.exact_joint(_pair_scenario(c0, c1, True), it.RuleSet.rqm5()))

    # the readout rb's distribution, alone and given each value of alice.A,
    # all from one exact_joint table
    scenario = _readback_scenario(c0, c1)
    readback = it.exact_joint(scenario, it.RuleSet.rqm5())
    keys = it.outcome_keys(scenario)
    base = it._conditional_marginal(readback, keys, "rb", {})
    invariance_gap = 0.0
    for v in (0, 1):
        cond = it._conditional_marginal(readback, keys, "rb", {"alice.A": v})
        for label in base:
            invariance_gap = max(invariance_gap, abs(cond.get(label, 0.0) - base[label]))

    partition_gap = abs(p_joint - p_separate)
    verdict = "ambiguity" if partition_gap > VERDICT_TOL else "consistent"
    findings = (
        Finding(
            claim="probability the two record values agree",
            values=(
                ("orthodox", p_orthodox),
                ("rqm5/separate", p_separate),
                ("rqm5/joint", p_joint),
            ),
            discrepancy=partition_gap,
        ),
        Finding(
            claim="largest change a ledger conditioning makes to an outside readout",
            values=(("rqm5", invariance_gap),),
            discrepancy=invariance_gap,
        ),
    )
    narrative = (
        f"Two agents copy the halves of a correlated pair with weights "
        f"({c0 * c0:.12g}, {c1 * c1:.12g}). Collapse predicts agreement with "
        f"probability {p_orthodox:.12g}. Relative facts predict "
        f"{p_separate:.12g} when each agent conditions alone and "
        f"{p_joint:.12g} when the two share a conditioning pool, so the "
        f"prediction depends on how the composite is partitioned."
    )
    return ContradictionReport(
        name="epr",
        rule_sets=("orthodox", "rqm5/separate", "rqm5/joint"),
        findings=findings,
        verdict=verdict,
        narrative=narrative,
    )


# ---------------------------------------------------------------------------
# three-qubit parity contexts


def _pair_spec(m: int) -> qcore.BasisSpec:
    inner = qcore.qubit_ladder_basis((f"S{m}", 2), 1)
    outer = qcore.qubit_ladder_basis((f"S{m}", 2), 2)
    return qcore.lifted_basis(outer, inner, (f"alice.A{m}", 2))


def _record_spec(m: int) -> qcore.BasisSpec:
    return qcore.computational_basis((f"alice.A{m}", 2), labels=(1, -1))


def _context_products(dist: dict[tuple, float]) -> tuple[dict[int, float], float]:
    """Distribution of the outcome product over a joint context, plus off-support weight."""
    products: dict[int, float] = {}
    stray = 0.0
    for outcome, p in dist.items():
        if any(isinstance(x, str) for x in outcome):
            stray += p
            continue
        value = prod(outcome)
        products[value] = products.get(value, 0.0) + p
    return products, float(stray)


def ghz_check(fact_holder: str = "agent") -> ContradictionReport:
    """Run the three-qubit parity argument end to end.

    The state is wigner's in the bundled ``ghz`` scenario, run under
    ``rqm5`` up to its first outside measurement.  The fact-holder policy
    only relabels whose ledger the record values sit in; the report
    records the policy to make that insensitivity checkable.
    """
    s = sc.parse(sc.bundled_scenario_text("ghz"))
    first = next(i for i, ev in enumerate(s.timeline) if isinstance(ev, sc.Measure))
    interactions = replace(s, timeline=s.timeline[:first])
    psi = it.run(interactions, it.RuleSet.rqm5(fact_holder)).perspectives["wigner"].state

    findings: list[Finding] = []

    all_pairs = qcore.product_basis([_pair_spec(m) for m in (1, 2, 3)])
    products, stray = _context_products(qcore.born_distribution(psi, all_pairs))
    all_pairs_gap = max(abs(products.get(1, 0.0) - 1.0), products.get(-1, 0.0), stray)
    findings.append(Finding(
        claim="rotated outcomes of all three pairs multiply to +1",
        values=(("stable", products.get(1, 0.0)),),
        discrepancy=all_pairs_gap,
    ))

    # mixed contexts, each measured once: the product is certainly -1, and
    # branchwise the rotated pair outcome equals minus the product of the
    # other two record values on every branch that carries weight
    branch_violation = 0.0
    for i in (1, 2, 3):
        j, k = [m for m in (1, 2, 3) if m != i]
        joint = qcore.product_basis([_pair_spec(i), _record_spec(j), _record_spec(k)])
        dist = qcore.born_distribution(psi, joint)
        products, stray = _context_products(dist)
        gap = max(abs(products.get(-1, 0.0) - 1.0), products.get(1, 0.0), stray)
        findings.append(Finding(
            claim=f"pair {i} rotated outcome times record values {j},{k} is -1",
            values=(("stable", products.get(-1, 0.0)),),
            discrepancy=gap,
        ))
        for (b, aj, ak), p in dist.items():
            if isinstance(b, str) or b != -aj * ak:
                branch_violation = max(branch_violation, p)
    findings.append(Finding(
        claim="every weighted branch satisfies pair outcome = -(product of other records)",
        values=(("stable", branch_violation),),
        discrepancy=branch_violation,
    ))

    constraints = substituted_parity_constraints()
    search = parity_search(constraints, variables=("A1", "A2", "A3"))
    findings.append(Finding(
        claim="some fixed record-value assignment reproduces all four parity constraints",
        values=(("cpl", float(len(search.satisfying))),),
        discrepancy=float(len(search.satisfying) == 0),
    ))

    verdict = "contradiction" if (
        all(f.discrepancy <= VERDICT_TOL for f in findings[:-1]) and not search.satisfying
    ) else "consistent"
    narrative = (
        "Three records copy rotated qubit values out of an equal all-0/all-1 "
        "superposition. The four stable parity products are certain, yet no "
        f"fixed ±1 record assignment satisfies them: 0 of {search.domain_size} "
        "candidates survive, and multiplying the constraints gives "
        f"{search.formal_square}, so the record product would have to be "
        f"{search.formal_product_value}. Links that promote record values to "
        f"observer-independent facts are therefore inconsistent with the "
        f"unitary account (fact holder policy: {fact_holder})."
    )
    return ContradictionReport(
        name="ghz",
        rule_sets=("rqm5", "cpl", f"fact-holder:{fact_holder}"),
        findings=tuple(findings),
        verdict=verdict,
        narrative=narrative,
        assignment_search=search,
    )


def substituted_parity_constraints() -> tuple[ParityConstraint, ...]:
    """The four stable parity constraints with each pair outcome replaced by
    minus the product of the other two record values."""
    return (
        ParityConstraint(("A2", "A3", "A1", "A3", "A1", "A2"), -1,
                         "all pairs rotated; each pair outcome replaced by -record*record"),
        ParityConstraint(("A2", "A3", "A2", "A3"), 1,
                         "pair 1 rotated, records 2,3 read"),
        ParityConstraint(("A1", "A3", "A1", "A3"), 1,
                         "pair 2 rotated, records 1,3 read"),
        ParityConstraint(("A1", "A2", "A1", "A2"), 1,
                         "pair 3 rotated, records 1,2 read"),
    )


# ---------------------------------------------------------------------------
# exhaustive parity solver


def parity_search(constraints, variables) -> AssignmentSearchResult:
    """Try every ±1 assignment of ``variables`` against the constraints;
    derive the formal obstruction when none fits."""
    constraints = tuple(constraints)
    variables = tuple(variables)
    for con in constraints:
        missing = set(con.variables) - set(variables)
        if missing:
            raise ValueError(f"constraint mentions unknown variables {sorted(missing)}")
    n = len(variables)
    if n > MAX_VARIABLES:
        raise ValueError(f"{n} variables exceed the limit of {MAX_VARIABLES}")

    index = {v: i for i, v in enumerate(variables)}
    count = 1 << n
    ids = np.arange(count, dtype=np.int64)
    bits = (ids[:, None] >> np.arange(n)[None, :]) & 1
    signs = 1 - 2 * bits  # bit 0 -> +1, bit 1 -> -1
    ok = np.ones(count, dtype=bool)
    for con in constraints:
        odd = [i for i in range(n) if sum(1 for v in con.variables if index[v] == i) % 2]
        value = signs[:, odd].prod(axis=1) if odd else np.ones(count, dtype=np.int64)
        ok &= value == con.required

    satisfying = tuple(
        tuple((variables[i], int(signs[row, i])) for i in range(n))
        for row in np.nonzero(ok)[0]
    )
    formal_square = None
    formal_value = None
    subset = _gf2_infeasibility_certificate(constraints, variables)
    if subset is not None:
        exponents = [0] * n
        for idx in subset:
            for v in constraints[idx].variables:
                exponents[index[v]] += 1
        parts = []
        for i, e in enumerate(exponents):
            half = e // 2
            if half == 1:
                parts.append(variables[i])
            elif half > 1:
                parts.append(f"{variables[i]}^{half}")
        monomial = "*".join(parts) if parts else "1"
        formal_square = f"({monomial})^2 = -1"
        formal_value = "±i"
    return AssignmentSearchResult(count, satisfying, formal_square, formal_value)


def _gf2_infeasibility_certificate(constraints, variables) -> list[int] | None:
    """Indices of constraints whose product is (monomial)^2 = -1, if any.

    Over ±1 values a parity system is a GF(2) linear system; an infeasible
    one has a row combination with even exponents everywhere but a required
    product of -1.  Gaussian elimination over an augmented identity finds it.
    """
    k = len(constraints)
    if k == 0:
        return None
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    m = np.zeros((k, n + 1 + k), dtype=np.uint8)
    for r, con in enumerate(constraints):
        for v in con.variables:
            m[r, index[v]] ^= 1
        m[r, n] = 1 if con.required == -1 else 0
        m[r, n + 1 + r] = 1
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, k) if m[r, col]), None)
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(k):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        row += 1
    for r in range(row, k):
        if m[r, n]:
            return [i for i in range(k) if m[r, n + 1 + i]]
    return None
