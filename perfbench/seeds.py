"""From the benchmark seed to the program's inputs.

Agent kinds differ in cost by 20x, and a memory agent on a memory-heavy
SKU costs twice what it costs elsewhere, so a free draw would make the
*amount of work* swing with the seed.  The fleets here are the CLI's
``mixed`` draws at seeds picked from the benchmark seed, kept only when
their agent split matches and their estimated cost is within a
tolerance of the target.  Which nodes, SKUs, workloads and random
streams run still change with the seed; how much work they add up to
does not.

The estimate sums a per-``agent/SKU`` node cost (``NODE_COST_WEIGHTS``:
median seconds per node for ten simulated seconds, measured once on the
seed code).  It only selects inputs; no metric is computed from it.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, List, Tuple

NODE_COST_WEIGHTS = {
    "harvest/gen4-memory": 0.0752,
    "harvest/gen5-general": 0.0754,
    "harvest/gen6-compute": 0.0831,
    "harvest/gen6-dense": 0.092,
    "memory/gen4-memory": 0.0685,
    "memory/gen5-general": 0.0327,
    "memory/gen6-compute": 0.0325,
    "memory/gen6-dense": 0.0497,
    "overclock/gen4-memory": 0.0033,
    "overclock/gen5-general": 0.0032,
    "overclock/gen6-compute": 0.0031,
    "overclock/gen6-dense": 0.0031,
}
FLEET_COST_TOLERANCE = 0.005
CAMPAIGN_COST_TOLERANCE = 0.02


def _node_cost(spec: Any) -> float:
    return NODE_COST_WEIGHTS[f"{spec.agent}/{spec.sku.name}"]


def fleet_seed(seed: int, n_nodes: int) -> int:
    """The first fleet seed from ``seed * 10_000`` on whose ``mixed``
    draw splits the agent kinds as evenly as ``n_nodes`` allows and
    whose estimated cost is within ``FLEET_COST_TOLERANCE`` of the
    expected cost of that split under the fleet SKU mix."""
    from repro.fleet.config import AGENT_KINDS, FleetConfig
    from repro.platform.taxonomy import NODE_SKUS

    share, extra = divmod(n_nodes, len(AGENT_KINDS))
    target = {kind: share + (i < extra) for i, kind in enumerate(AGENT_KINDS)}
    total_weight = sum(sku.weight for sku in NODE_SKUS)
    expected = sum(
        count * sum(sku.weight * NODE_COST_WEIGHTS[f"{kind}/{sku.name}"]
                    for sku in NODE_SKUS) / total_weight
        for kind, count in target.items()
    )
    for candidate in itertools.count(seed * 10_000):
        config = FleetConfig(n_nodes=n_nodes, agent="mixed", seed=candidate)
        counts = dict.fromkeys(target, 0)
        cost = 0.0
        for node_id in range(n_nodes):
            spec = config.node_spec(node_id)
            counts[spec.agent] += 1
            if counts[spec.agent] > target[spec.agent]:
                break
            cost += _node_cost(spec)
        else:
            if abs(cost - expected) <= FLEET_COST_TOLERANCE * expected:
                return candidate
    raise AssertionError("unreachable")


def campaign(spec: Any, seed: int) -> Any:
    """``spec`` with its seeds shifted by the first offset from
    ``seed * 10_000`` on whose fleets split their agent kinds, all fleets
    together, as the committed seeds' do, at an estimated cost within
    ``CAMPAIGN_COST_TOLERANCE`` of theirs.  Seed 0 keeps the committed
    file."""
    from repro.fleet.config import FleetConfig

    def profile(offset: int) -> Tuple[List[str], float]:
        agents, cost = [], 0.0
        for agent in spec.agents:
            for scale in spec.scales:
                for base in spec.seeds:
                    config = FleetConfig(n_nodes=scale, agent=agent,
                                         seed=base + offset)
                    for node_id in range(scale):
                        node = config.node_spec(node_id)
                        agents.append(node.agent)
                        cost += _node_cost(node)
        return sorted(agents), cost

    target_split, target_cost = profile(0)
    for offset in itertools.count(seed * 10_000):
        split, cost = profile(offset)
        if (split == target_split
                and abs(cost - target_cost)
                <= CAMPAIGN_COST_TOLERANCE * target_cost):
            return dataclasses.replace(
                spec, seeds=tuple(base + offset for base in spec.seeds)
            )
    raise AssertionError("unreachable")
