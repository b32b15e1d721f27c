"""Per-layer metrics from one traced round.

Each metric names the functions it reads.  When one of them is not found in
the fuzzydes modules (renamed or removed), the metric is reported missing
instead of being computed.
"""

from __future__ import annotations

from collections import defaultdict

# name -> (unit, better)
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.spawn_overhead_s": ("s", "lower"),
    "cli.run_command.self_s": ("s", "lower"),
    "fileio.parse_automaton.self_s": ("s", "lower"),
    "fileio.parse_spec.self_s": ("s", "lower"),
    "fileio.export_dot.self_s": ("s", "lower"),
    "fileio.bytes_read": ("bytes", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "possibility.maxmin_compose.calls": ("count", "lower"),
    "possibility.solve_scale.calls": ("count", "lower"),
    "possibility.scale_product.calls": ("count", "lower"),
    "possibility.maxmin_compose.us_per_call": ("us", "lower"),
    "possibility.solve_scale.us_per_call": ("us", "lower"),
    "possibility.kernel_share": ("frac", "lower"),
    "automaton.accessible_part.calls": ("count", "lower"),
    "automaton.accessible_part.self_s": ("s", "lower"),
    "automaton.closed_loop_graph.calls": ("count", "lower"),
    "automaton.closed_loop_graph.self_s": ("s", "lower"),
    "automaton.vertices": ("count", "lower"),
    "automaton.edges": ("count", "lower"),
    "reachability.reach_family.self_s": ("s", "lower"),
    "reachability.reach_family.us_per_vertex_edge": ("us", "lower"),
    "reachability.family_contains.self_s": ("s", "lower"),
    "statecontrol.build_successor_graph.self_s": ("s", "lower"),
    "statecontrol.successor_edges": ("count", "lower"),
    "statecontrol.slots": ("count", "lower"),
    "statecontrol.check_controllable.calls": ("count", "lower"),
    "statecontrol.check_controllable.self_s": ("s", "lower"),
    "statecontrol.check_controllable.errors": ("count", "lower"),
    "statecontrol.synthesize_controller.self_s": ("s", "lower"),
    "language.language_controllable.self_s": ("s", "lower"),
    "language.consistency_check.self_s": ("s", "lower"),
    "language.reach_of_language.self_s": ("s", "lower"),
    "language.support_strings": ("count", "lower"),
    "stability.search_stabilizing_witness.self_s": ("s", "lower"),
    "stability.candidates_tried": ("count", "lower"),
    "stability.useful_ratio": ("frac", "higher"),
    "stability.budget_used_frac": ("frac", "lower"),
    "stability.largest_controllable_invariant.self_s": ("s", "lower"),
    "stability.infimal_attractor.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

KERNELS_TIMED = ("possibility.maxmin_compose", "possibility.solve_scale",
                 "possibility.scale_product")


def per_layer(tracer, rows, import_s, spawn_overhead_s):
    """(metrics {name: (value, unit)}, missing metric names)."""
    selfs = tracer.self_times()
    by_name = defaultdict(list)  # function -> [(span, self time)]
    for span, own in zip(tracer.spans, selfs):
        by_name[span[2]].append((span, own))
    known = set(tracer.originals)
    untraced = sum(r["untraced_s"] for r in rows)
    traced = sum(r["traced_s"] for r in rows)

    def self_s(fn):
        return sum(own for _, own in by_name[fn])

    def calls(fn):
        return tracer.counts[fn] if fn in tracer.counts else len(by_name.get(fn, ()))

    def extra(fn, key):
        return sum((span[6] or {}).get(key, 0) for span, _ in by_name[fn])

    def reach_per_vertex_edge():
        work = sum((span[6] or {}).get("V", 0) * (span[6] or {}).get("E", 0)
                   for span, _ in by_name["reachability.reach_family"])
        return self_s("reachability.reach_family") / work * 1e6 if work else 0.0

    kernel_us = {k: tracer.replay_us(k) for k in KERNELS_TIMED}

    def kernel_share():
        spent = sum(tracer.counts[k] * (kernel_us[k] or 0.0) / 1e6 for k in KERNELS_TIMED)
        return spent / untraced if untraced else 0.0

    def budget_used():
        searches = {span[0]: (span[6] or {}).get("budget", 0)
                    for span, _ in by_name["stability.search_stabilizing_witness"]}
        tried = sum(1 for span, _ in by_name["stability.verify_stabilizability_witness"]
                    if span[1] in searches)
        total = sum(searches.values())
        return tried / total if total else 0.0

    def useful():
        # A witness is found by a verify call made inside a search; the
        # re-verification of a found witness by its caller is not counted.
        searches = {span[0] for span, _ in by_name["stability.search_stabilizing_witness"]}
        spans = by_name["stability.verify_stabilizability_witness"]
        found = sum(1 for span, _ in spans if span[1] in searches and (span[6] or {}).get("ok"))
        return found / len(spans) if spans else 0.0

    def errors(fn):
        return sum(1 for span, _ in by_name[fn] if (span[6] or {}).get("error"))

    C, A, S = "statecontrol.check_controllable", "automaton.accessible_part", "automaton.closed_loop_graph"
    V = "stability.verify_stabilizability_witness"
    graphs = (A, S)
    # name -> (functions read, value)
    table = {
        "cli.import_s": ((), lambda: import_s),
        "cli.spawn_overhead_s": ((), lambda: spawn_overhead_s),
        "cli.run_command.self_s": (("cli.run_command",), lambda: self_s("cli.run_command")),
        "fileio.bytes_read": (("fileio.parse_automaton", "fileio.parse_spec"),
                              lambda: extra("fileio.parse_automaton", "bytes")
                              + extra("fileio.parse_spec", "bytes")),
        "fileio.bytes_written": ((), lambda: sum(r["bytes_written"] for r in rows)),
        "possibility.maxmin_compose.us_per_call": (("possibility.maxmin_compose",),
                                                   lambda: kernel_us["possibility.maxmin_compose"] or 0.0),
        "possibility.solve_scale.us_per_call": (("possibility.solve_scale",),
                                                lambda: kernel_us["possibility.solve_scale"] or 0.0),
        "possibility.kernel_share": (KERNELS_TIMED, kernel_share),
        "automaton.vertices": (graphs, lambda: sum(extra(g, "V") for g in graphs)),
        "automaton.edges": (graphs, lambda: sum(extra(g, "E") for g in graphs)),
        "reachability.reach_family.us_per_vertex_edge": (("reachability.reach_family",),
                                                         reach_per_vertex_edge),
        "statecontrol.successor_edges": (("statecontrol.build_successor_graph",),
                                         lambda: extra("statecontrol.build_successor_graph", "succ_edges")),
        "statecontrol.slots": (("statecontrol.build_successor_graph",),
                               lambda: extra("statecontrol.build_successor_graph", "slots")),
        "statecontrol.check_controllable.errors": ((C,), lambda: errors(C)),
        "language.support_strings": (("language.language_controllable",),
                                     lambda: extra("language.language_controllable", "support")),
        "stability.candidates_tried": ((V,), lambda: len(by_name[V])),
        "stability.useful_ratio": ((V, "stability.search_stabilizing_witness"), useful),
        "stability.budget_used_frac": ((V, "stability.search_stabilizing_witness"), budget_used),
        "trace.overhead_frac": ((), lambda: traced / untraced - 1 if untraced else 0.0),
    }
    metrics, missing = {}, []
    for name, (unit, _) in PER_LAYER.items():
        if name in table:
            needs, value = table[name]
        else:
            fn, _, stat = name.rpartition(".")
            needs = (fn,)
            value = (lambda fn=fn: self_s(fn)) if stat == "self_s" else (lambda fn=fn: calls(fn))
        if not all(fn in known for fn in needs):
            missing.append(name)
            continue
        metrics[name] = (float(value()), unit)
    return metrics, missing
