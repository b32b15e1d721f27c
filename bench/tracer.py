"""Spans and counters around the public functions of the fuzzydes modules,
installed from outside the package.

Every module-level public function of a fuzzydes module is wrapped once,
and every binding of it in any fuzzydes module (the defining module, a
module that imported it by name, the package's re-exports) is replaced by
the wrapper, found by object identity.  Kernels, the small functions called
millions of times, get a call counter and an operand sample instead of a
span.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time of the nearest nested
spans of another layer (module): calls to public helpers of the same
module stay in the caller's self time, so a layer's self time is the work
it does itself.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType

# Module-level functions that get counters instead of spans.  Every public
# function of possibility is a kernel.
KERNELS = {
    "automaton": {"step", "run", "language_degree", "closed_loop_step",
                  "closed_loop_language_degree", "as_event_string"},
}
SAMPLE_EVERY = 97
SAMPLE_CAP = 2000
# Replaying a kernel's samples repeats until this much time has passed.
REPLAY_SECONDS = 0.05


def _graph_size(result):
    return {"V": len(result.vertices), "E": len(result.edges)}


def _observe_successor_graph(result):
    return {"succ_edges": len(result.edges),
            "slots": len({(e.source, e.event) for e in result.edges})}


# Extra facts recorded on a span: name -> (argument names, function of the
# bound arguments and the result).
OBSERVERS = {
    "automaton.accessible_part": lambda args, result: _graph_size(result),
    "automaton.closed_loop_graph": lambda args, result: _graph_size(result),
    "reachability.reach_family": lambda args, result: _graph_size(result.graph),
    "statecontrol.build_successor_graph": lambda args, result: _observe_successor_graph(result),
    "language.language_controllable": lambda args, result: {"support": len(args["K"].degrees)},
    "stability.search_stabilizing_witness": lambda args, result: {"budget": args["budget"]},
    "stability.verify_stabilizability_witness": lambda args, result: {"ok": bool(result)},
    "fileio.parse_automaton": lambda args, result: {"bytes": len(args["text"].encode())},
    "fileio.parse_spec": lambda args, result: {"bytes": len(args["text"].encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent id, name, t0, t1, query, extras]
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.originals: dict = {}  # "layer.function" -> original function
        self.query = None
        self._stack: list = []
        self._patches: list = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "fuzzydes" or name.startswith("fuzzydes."))]

    def _layer(self, module_name: str) -> str:
        return module_name.rpartition(".")[2]

    def install(self) -> None:
        by_id = {}
        for module in self._modules():
            layer = self._layer(module.__name__)
            for attr, fn in vars(module).items():
                if (isinstance(fn, FunctionType) and not attr.startswith("_")
                        and fn.__module__ == module.__name__ and fn.__name__ == attr):
                    name = f"{layer}.{attr}"
                    self.originals[name] = fn
                    kernel = layer == "possibility" or attr in KERNELS.get(layer, ())
                    by_id[id(fn)] = (fn, self._counter(name, fn) if kernel else self._span(name, fn))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                found = by_id.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _counter(self, name, fn):
        counts, samples = self.counts, self.samples[name]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if counts[name] % SAMPLE_EVERY == 1 and len(samples) < SAMPLE_CAP:
                samples.append((args, kwargs))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.query, None]
            spans.append(record)
            stack.append(record[0])
            failed = None
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                record[4] = clock()
                stack.pop()
                if failed is not None:
                    record[6] = {"error": failed}
            if observer is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[6] = observer(bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, by span id."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        out = []
        for span in self.spans:
            layer = span[2].partition(".")[0]
            foreign = 0.0
            pending = list(children[span[0]])
            while pending:
                child = pending.pop()
                if child[2].partition(".")[0] != layer:
                    foreign += child[4] - child[3]
                else:
                    pending.extend(children[child[0]])
            out.append(span[4] - span[3] - foreign)
        return out

    def replay_us(self, name: str):
        """Mean microseconds per call of a kernel, replaying its sampled
        operands on the original function; None without samples."""
        fn, samples = self.originals.get(name), self.samples.get(name)
        if fn is None or not samples:
            return None
        calls, start = 0, time.perf_counter()
        while True:
            for args, kwargs in samples:
                fn(*args, **kwargs)
            calls += len(samples)
            elapsed = time.perf_counter() - start
            if elapsed >= REPLAY_SECONDS:
                return elapsed / calls * 1e6

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "functions": sorted(self.originals)}
