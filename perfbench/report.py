"""Per-layer metrics and the printed layer table of a traced run."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from layers import layer_table

#: Largest share of the accounted wall that may stay outside every
#: wrapped layer (``other``) before the run fails: time growing where no
#: wrapper sees it must not go unnoticed.
OTHER_CEILING = 0.05

#: Figures only ``serve-open`` measures; 0 on the workloads that bypass
#: the serve layer.
SERVE_ONLY = ("serve.admit_ms", "serve.queue_wait_ms", "serve.exec_ms",
              "serve.dedup_replays", "loadgen.lateness_p90_ms")


def layer_metrics(
    data: Dict[str, Any],
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: Dict[str, float],
    tolerance: float = 0.01,
) -> "tuple[Dict[str, float], List[str], Optional[str]]":
    """Per-layer metrics, the printed table and a coverage problem (or
    ``None``) for one traced pass.

    ``traced_wall_s`` is the main-thread wall of the traced work, which
    the main thread's layers are accounted against; ``untraced_wall_s``
    is the same work without the wrappers (the tracing overhead).
    ``extra`` holds the microbenchmarks, calibration and serve figures.

    ``other`` is the main-thread wall outside every wrapped call.  It
    must stay below ``OTHER_CEILING`` of the accounted wall, and it must
    not be negative beyond ``tolerance`` (which would mean time counted
    twice).  That is the whole coverage check: the rows plus ``other``
    add up to the accounted wall by construction.
    """
    rows, total, other = layer_table(data, traced_wall_s)
    self_s = data["self_s"]
    calls = data["calls"]
    counts = data["counts"]
    other_frac = other / total if total else 0.0
    gets = calls["cache.get"]
    capacity = counts["resilience.capacity_s"]
    metrics: Dict[str, float] = {
        "sim.self_s": self_s["sim"],
        "core.self_s": self_s["core"],
        "core.events": counts["core.events"],
        "core.safeguard_trips": counts["core.safeguard_trips"],
        "core.validation_failures": counts["core.validation_failures"],
        "fleet.self_s": self_s["fleet"],
        "fleet.aggregate_s": self_s["fleet.aggregate"],
        "experiments.unit_s": self_s["experiments"],
        "experiments.units": counts["experiments.units"],
        "experiments.assemble_s": self_s["experiments.assemble"],
        "sweep.self_s": self_s["sweep"],
        "sweep.report_s": self_s["sweep.report"],
        "cache.get_s": self_s["cache.get"],
        "cache.gets": gets,
        "cache.put_s": self_s["cache.put"],
        "cache.puts": calls["cache.put"],
        "cache.hit_ratio": counts["cache.hits"] / gets if gets else 0.0,
        "journal.open_s": self_s["journal.open"],
        "journal.append_s": self_s["journal.append"],
        "journal.appends": counts["journal.appends"],
        "journal.seal_s": self_s["journal.seal"],
        "resilience.dispatch_s": self_s["resilience"],
        "resilience.poll_wait_s": data["wait_s"]["resilience"],
        "resilience.units": counts["resilience.units"],
        "resilience.retries": counts["resilience.retries"],
        "resilience.quarantined": counts["resilience.quarantined"],
        "resilience.worker_util": (
            counts["worker.unit_wall_s"] / capacity if capacity else 0.0
        ),
        "obs.self_s": self_s["obs"],
        "obs.spans": counts["obs.spans"],
        "other.self_s": other,
        "bench.trace_overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "bench.other_frac": other_frac,
    }
    metrics.update(dict.fromkeys(SERVE_ONLY, 0.0))
    for layer in ("agents", "ml", "node", "workloads"):
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics.update(extra)
    lines = [
        f"layer table: accounted {total:.3f}s = main-thread wall "
        f"{traced_wall_s:.3f}s + other threads/processes "
        f"{total - traced_wall_s:.3f}s",
        f"  {'layer':<22}{'self_s':>10}{'share':>8}{'calls':>11}"
        f"{'wait_s':>9}",
    ]
    for layer, spent, share, n_calls, wait in rows:
        lines.append(
            f"  {layer:<22}{spent:>10.4f}{share * 100:>7.1f}%"
            f"{n_calls:>11d}{wait:>9.4f}"
        )
    lines.append(
        f"  other (unwrapped) is {other_frac * 100:.2f}% of the accounted "
        f"wall; the ceiling is {OTHER_CEILING * 100:.0f}%"
    )
    problem = None
    if other_frac > OTHER_CEILING:
        problem = (f"layer table: other is {other_frac * 100:.1f}% of the "
                   f"accounted wall (ceiling {OTHER_CEILING * 100:.0f}%)")
    elif other < -tolerance * total:
        problem = f"layer table: other is {other:.4f}s (double counted)"
    return metrics, lines, problem
