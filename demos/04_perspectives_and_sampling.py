"""Perspective states through a timeline, and sampled statistics.

The same physical history looks different depending on who describes it
and under which rule set. For Alice premeasuring a qubit into her record:

* before anything happens, everyone faces the prepared product state;
* after her interaction, an outside observer under relative-facts rules
  faces the entangled pure vector (no collapse happened for him);
* the same observer under orthodox rules faces the ignorance mixture of
  the collapsed alternatives;
* Alice herself, conditioning on her own relative fact, faces the
  corresponding collapsed branch.

The sampling path reproduces the exact distributions: multinomial tallies
over the exact joint, seeded and reproducible.
"""

import numpy as np

import wfcheck

scenario = wfcheck.parse(wfcheck.bundled_scenario_text("cpl"))


def describe(title, ps):
    print(title)
    if isinstance(ps.state, wfcheck.StateVector):
        amps = ", ".join(f"{a:.4f}" for a in ps.state.amplitudes)
        print(f"  pure vector [{amps}]")
    else:
        diag = ", ".join(f"{x.real:.4f}" for x in np.diag(ps.state.matrix))
        print(f"  mixture, diagonal [{diag}]")
    known = " ".join(f"{k}={v}" for k, v in ps.knowledge) or "(nothing)"
    print(f"  conditions on: {known}\n")


describe("bob, before any event:",
         wfcheck.perspective(scenario, wfcheck.RuleSet.rqm5(), "bob", after=-1))
describe("bob after alice's interaction, relative facts (entangled vector):",
         wfcheck.perspective(scenario, wfcheck.RuleSet.rqm5(), "bob", after=1))
describe("bob after alice's interaction, orthodox (ignorance mixture):",
         wfcheck.perspective(scenario, wfcheck.RuleSet.orthodox(), "bob", after=1))
describe("alice, given her own fact came out 1:",
         wfcheck.perspective(scenario, wfcheck.RuleSet.rqm5(), "alice", after=1,
                             given={"alice.A": 1}))

n = 100_000
exact = wfcheck.exact_joint(scenario, wfcheck.RuleSet.rqm5())
tallies = wfcheck.sample_tallies(exact, n, seed=2026)
print(f"{n} sampled histories vs the exact joint (seed 2026):")
print(f"  {'outcome':>14}  {'frequency':>9}  {'exact':>7}")
for outcome in sorted(exact):
    freq = tallies.get(outcome, 0) / n
    print(f"  {str(outcome):>14}  {freq:9.5f}  {exact[outcome]:7.5f}")
