"""Spans around the calls into each ``cbnctrl`` layer, for the traced run.

``install`` replaces each traced function on its class, or on every
``cbnctrl`` module that imported the name, so calls between modules are
caught as well as the benchmark's own.  Spans (name, start, end, parent)
are kept in memory; ``layer_metrics`` turns them into per-layer counts and
self times, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from math import prod
from time import perf_counter

# (module, attribute on the module or "Class.method", metric prefix)
TRACED = [
    ("graph", "Dag.backward_chain", "graph.backward_chain"),
    ("graph", "Dag.ancestors", "graph.ancestors"),
    ("cbn", "Cbn.__init__", "cbn.Cbn"),
    ("cbn", "Cbn.marginal_prob", "cbn.marginal_prob"),
    ("intervention", "apply_intervention", "intervention.apply_intervention"),
    ("intervention", "interventional_prob", "intervention.interventional_prob"),
    ("control", "c_star", "control.c_star"),
    ("control", "optimal_policy_value", "control.optimal_policy_value"),
    ("control", "solve", "control.solve"),
    ("control", "usm_adversarial_cbn", "control.usm_adversarial_cbn"),
    ("oracle", "best_over_subsets", "oracle.best_over_subsets"),
    ("oracle", "grid_policy_search", "oracle.grid_policy_search"),
    ("oracle", "random_cbn", "oracle.random_cbn"),
    ("oracle", "verify_lemma3", "oracle.verify_lemma3"),
    ("oracle", "verify_sufficiency", "oracle.verify_sufficiency"),
    ("oracle", "verify_usm", "oracle.verify_usm"),
    ("oracle", "verify_extremality", "oracle.verify_extremality"),
    ("netfile", "parse", "netfile.parse"),
    ("netfile", "serialize", "netfile.serialize"),
    ("cli", "main", "cli.main"),
]


def marginal_states(cbn, event, *_, **__) -> int:
    """Completions ``Cbn.marginal_prob`` enumerates for ``event``."""
    return prod(card for name, card in cbn.cards.items() if name not in event)


def joint_states(cbn, *_, **__) -> int:
    return cbn.state_space_size()


#: work counters computed from a traced call's arguments
WORK = {
    "cbn.marginal_prob": ("states", marginal_states),
    "control.optimal_policy_value": ("joint_states", joint_states),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if counter:
                work[f"{name}.{counter[0]}"] += counter[1](*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cbnctrl" or n.startswith("cbnctrl.")]
        for module_name, attr, name in TRACED:
            home = sys.modules[f"cbnctrl.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(home, attr)
            traced = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def layer_metrics(self) -> dict[str, dict]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls[name] += 1
            self_ms[name] += (end - start - children) * 1000.0
        metrics = {}
        for _, _, name in TRACED:
            metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
            metrics[f"{name}.self_ms"] = {"value": round(self_ms[name], 4), "unit": "ms"}
        for name, (counter, _) in WORK.items():
            metrics[f"{name}.{counter}"] = {"value": self.work[f"{name}.{counter}"],
                                            "unit": "count"}
        return metrics
