"""Validity checks of every op's output against the answer key.

Checks test validity, not byte-equality, so a different but legitimate
witness or architecture is not an error:

* a verdict must equal the key's (an ``unknown`` verdict is a failure);
* a SAT witness is replayed through the numerical estimator
  (``wls_estimate`` + ``chi_square_test``) at a noisy operating point:
  it may alter only taken, unsecured measurements within the budget,
  must leave the weighted residual unchanged, raise no new alarm, and
  shift the target state by the amount it claims;
* a minimum cost must equal the key's, with a witness of that cost;
* an architecture must fit ``T_SB`` buses and leave no attack once its
  buses are secured (decided by the MILP backend, independent of the
  SMT engine that produced it).

Every function returns a list of failure reasons; empty means valid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

NOISE = 0.008
#: largest estimated-state shift a replayed witness is scaled to (rad)
REPLAY_SHIFT = 0.05


class ReplayBench:
    """Clean estimates per (grid, plan), cached across ops."""

    def __init__(self) -> None:
        self._clean: Dict[Any, Any] = {}

    def _base(self, spec):
        import numpy as np

        from repro.estimation.measurement import build_h, build_measurements
        from repro.estimation.wls import wls_estimate
        from repro.grid.dcflow import nominal_injections, solve_dc_flow

        key = (id(spec.grid), spec.reference_bus, frozenset(spec.plan.taken))
        base = self._clean.get(key)
        if base is None:
            grid, plan = spec.grid, spec.plan
            flow = solve_dc_flow(grid, nominal_injections(grid), spec.reference_bus)
            z = build_measurements(plan, flow, noise_std=NOISE, seed=0)
            h = build_h(grid, spec.reference_bus, taken=plan.taken_in_order())
            w = np.full(len(z), 1 / NOISE**2)
            base = (h, z, w, wls_estimate(h, z, w))
            self._clean[key] = base
        return base

    def replay(self, spec, attack) -> List[str]:
        """Failure reasons of one SAT witness (empty when it is valid)."""
        from repro.estimation.baddata import chi_square_test
        from repro.estimation.wls import wls_estimate

        if attack is None:
            return ["sat verdict without a witness"]
        altered = attack.altered_measurements
        limit = spec.limits.max_measurements
        if limit is not None and len(altered) > limit:
            return [f"witness alters {len(altered)} measurements > budget {limit}"]
        buses = spec.limits.max_buses
        if buses is not None and len(attack.compromised_buses(spec.plan)) > buses:
            return ["witness exceeds the bus budget"]
        target_states = sorted(spec.goal.target_states)
        claimed = [abs(attack.state_deltas.get(j, 0.0)) for j in target_states]
        if not claimed or min(claimed) == 0.0:
            return ["witness does not move the target state"]
        scale = REPLAY_SHIFT / max(abs(v) for v in attack.state_deltas.values())
        h, z, w, clean = self._base(spec)
        try:
            attacked_z = attack.scaled(scale).apply_to(z, spec.plan)
        except ValueError as exc:
            return [f"witness not injectable: {exc}"]
        attacked = wls_estimate(h, attacked_z, w)
        reasons = []
        tolerance = 1e-6 * max(1.0, clean.objective)
        if abs(attacked.objective - clean.objective) > tolerance:
            reasons.append(
                f"residual changed: {clean.objective:.9g} -> {attacked.objective:.9g}"
            )
        if chi_square_test(attacked).bad_data_detected and not chi_square_test(clean).bad_data_detected:
            reasons.append("replayed witness raises the bad-data alarm")
        columns = [j for j in spec.grid.buses if j != spec.reference_bus]
        shift = attacked.x_hat - clean.x_hat
        for j in target_states:
            expected = attack.state_deltas[j] * scale
            got = float(shift[columns.index(j)])
            if abs(got - expected) > 1e-6 * max(1.0, abs(expected)) + 1e-9:
                reasons.append(f"state {j} shifted by {got:.6g}, witness claims {expected:.6g}")
        return reasons


def check_verdict(inst: Dict[str, Any], spec, outcome: str, attack, replay: ReplayBench) -> List[str]:
    if outcome != inst["verdict"]:
        return [f"verdict {outcome}, key says {inst['verdict']}"]
    if outcome == "sat":
        return replay.replay(spec, attack)
    return []


def check_mincost(inst: Dict[str, Any], spec, cost: Optional[int], attack, replay: ReplayBench) -> List[str]:
    if cost != inst["cost"]:
        return [f"min cost {cost}, key says {inst['cost']}"]
    if attack is None or len(attack.altered_measurements) != cost:
        return ["min-cost witness does not have the reported cost"]
    return replay.replay(spec, attack)


def check_architecture(inst: Dict[str, Any], spec, architecture: Optional[Sequence[int]]) -> List[str]:
    feasible = architecture is not None
    if feasible != inst["feasible"]:
        return [f"feasible={feasible}, key says {inst['feasible']}"]
    if not feasible:
        return []
    if len(set(architecture)) > inst["tsb"]:
        return [f"architecture of {len(set(architecture))} buses > T_SB={inst['tsb']}"]
    if any(not 1 <= int(b) <= spec.grid.num_buses for b in architecture):
        return ["architecture names an unknown bus"]
    from repro.core.verification import UfdiEncoder
    from repro.milp.backend import solve_encoder_milp

    encoder = UfdiEncoder(spec, symbolic_security=True)
    outcome = solve_encoder_milp(encoder, secured_buses=sorted(set(int(b) for b in architecture))).outcome.value
    if outcome != "unsat":
        return [f"attack still {outcome} with the architecture secured"]
    return []
