"""Per-layer tracing from outside the program.

`install` wraps the public functions of the `gso` modules listed in
FUNCTIONS and rebinds every `gso.*` name that holds one of them (matched
by identity, so `cli.solve_game` and `recognizer.cmp_decide` are caught
along with the defining module's own name).  Each call records a span
(function, start, end, parent span) in memory; `Tracer.layer_metrics`
turns the spans and a few per-call counters into the per-layer metrics.

Per-move internals (`HostCtx.closure`, `_jumps`, `contract_edge`) are
deliberately not wrapped: their cost stays in the self time of the
public function that calls them.  Generator functions are not wrapped
either, since a span would end before the work is done.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (layer, module, function) for every wrapped function.
FUNCTIONS: tuple[tuple[str, str, str], ...] = tuple(
    (layer, module, name)
    for layer, module, names in (
        ("canon", "gso.canon", "certificate canonical_graph rooted_certificate"),
        ("gen", "gso.gen", "connected_graphs"),
        (
            "solvers.game",
            "gso.solvers",
            "solve_game cms_value cmms_value cms_decide cmms_decide rooted_game_value",
        ),
        (
            "solvers.expansion",
            "gso.solvers",
            "cmp_value mp_value cmp_decide cmp_plain",
        ),
        (
            "contractions",
            "gso.contractions",
            "is_contraction is_minor contains_any proper_contractions is_outerplanar",
        ),
        ("blocks", "gso.blocks", "blocks_and_cuts"),
        (
            "recognizer",
            "gso.recognizer",
            "decide_cmms_le_2 spine_structure spine_degree label_block root_components",
        ),
        (
            "expansions",
            "gso.expansions",
            "validate_expansion expansion_cost expansion_to_strategy "
            "strategy_to_expansion",
        ),
        ("simulate", "gso.simulate", "simulate width is_monotone"),
        (
            "obstructions",
            "gso.obstructions",
            "is_obstruction mine_obstructions glue_family_at_root fan_check_solver "
            "fan_check_structural mine_fan_base mine_branch_base branch_set "
            "base_branches branch_count obr_set obr_count "
            "branch_count_lower_bound_holds verify_obr",
        ),
        (
            "paperchecks",
            "gso.paperchecks",
            "run_all check_mined_k1 check_o1 check_game_equivalence "
            "check_monotone_connected check_counting check_fan_base check_obr "
            "check_recognizer check_properties check_d1 check_minor_k1",
        ),
        ("gio", "gso.gio", "graph6_encode"),
        ("cli", "gso.cli", "main cmd_mine cmd_verify_paper"),
    )
    for name in names.split()
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in FUNCTIONS))

# paperchecks function -> check number in the verify-paper report
CHECKS = {
    "check_mined_k1": 1,
    "check_o1": 2,
    "check_game_equivalence": 3,
    "check_monotone_connected": 4,
    "check_counting": 5,
    "check_fan_base": 6,
    "check_obr": 7,
    "check_recognizer": 8,
    "check_properties": 9,
    "check_d1": 10,
    "check_minor_k1": 11,
}


def _on_certificate(t, args, out):
    t.certs.add(out)
    t.count["canon.certificates"] += 1


def _on_connected_graphs(t, args, out):
    t.gen_sizes[args[0]] = len(out)


def _on_solve_game(t, args, out):
    t.count["game.runs"] += 1
    t.count["game.true"] += bool(out[0])
    t.count["game.states"] += out[2]


def _on_expansion_value(t, args, out):
    # iterative deepening tries k = 0..value; only the last level succeeds
    t.count["expansion.states"] += out.stats.get("states", 0)
    t.count["expansion.levels"] += out.value + 1
    t.count["expansion.true"] += 1


def _on_expansion_decide(t, args, out):
    t.count["expansion.levels"] += 1
    t.count["expansion.true"] += bool(out[0] if isinstance(out, tuple) else out)


def _on_containment(t, args, out):
    t.count["contractions.tests"] += 1
    t.count["contractions.hits"] += out is not None


def _on_contains_any(t, args, out):
    t.count["contains_any.calls"] += 1
    t.count["contains_any.true"] += bool(out)


def _on_recognizer(t, args, out):
    t.count["recognizer.decisions"] += 1
    t.count["recognizer.fast"] += out[1].get("method") != "solver"


def _on_is_obstruction(t, args, out):
    t.count["obstructions.candidates"] += 1


HOOKS = {
    "certificate": _on_certificate,
    "connected_graphs": _on_connected_graphs,
    "solve_game": _on_solve_game,
    "cmp_value": _on_expansion_value,
    "mp_value": _on_expansion_value,
    "cmp_decide": _on_expansion_decide,
    "is_contraction": _on_containment,
    "is_minor": _on_containment,
    "contains_any": _on_contains_any,
    "decide_cmms_le_2": _on_recognizer,
    "is_obstruction": _on_is_obstruction,
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        # span = [function index, start, end, parent span index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.count: Counter = Counter()
        self.certs: set[bytes] = set()
        self.gen_sizes: dict[int, int] = {}
        self.overhead_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                span[1] = t1
                span[2] = t2
            if hook is not None:
                hook(self, args, out)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        import gso.cli  # noqa: F401  (loads every gso module)

        modules = [
            m for name, m in sys.modules.items() if name == "gso" or name.startswith("gso.")
        ]
        for index, (_, module, name) in enumerate(FUNCTIONS):
            orig = getattr(sys.modules[module], name)
            wrapped = self._wrap(index, orig, HOOKS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: function, start, end, parent index."""
        with open(path, "w") as fh:
            for index, start, end, parent in self.spans:
                layer, _, name = FUNCTIONS[index]
                record = {"fn": f"{layer}:{name}", "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")

    def function_calls(self) -> dict[str, int]:
        """Calls per wrapped function, keyed `layer:function`."""
        calls = Counter(span[0] for span in self.spans)
        return {
            f"{layer}:{name}": calls[i] for i, (layer, _, name) in enumerate(FUNCTIONS)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, named `<layer>.<metric>`.

        A layer's calls are the spans entered from outside the layer;
        its self time is the time inside its spans not covered by child
        spans.  Ratios with an empty base read 0.
        """
        spans = self.spans
        layer_of = [FUNCTIONS[span[0]][0] for span in spans]
        name_of = [FUNCTIONS[span[0]][2] for span in spans]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = Counter()
        calls = Counter()
        gen_canon = 0
        outerplanar_s = 0.0
        check_s = Counter()
        for i, (_, start, end, parent) in enumerate(spans):
            layer = layer_of[i]
            self_s[layer] += end - start - covered[i]
            parent_layer = layer_of[parent] if parent >= 0 else None
            if parent_layer != layer:
                calls[layer] += 1
            if layer == "canon" and parent_layer == "gen":
                gen_canon += 1
            name = name_of[i]
            if name == "is_outerplanar" and (parent < 0 or name_of[parent] != name):
                outerplanar_s += end - start
            if name in CHECKS:
                check_s[CHECKS[name]] += end - start

        c = self.count

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["canon.distinct_ratio"] = ratio(len(self.certs), c["canon.certificates"])
        out["gen.graphs"] = sum(self.gen_sizes.values())
        out["gen.canon_calls"] = gen_canon
        out["solvers.game.states"] = c["game.states"]
        out["solvers.game.states_per_s"] = ratio(c["game.states"], self_s["solvers.game"])
        out["solvers.game.true_ratio"] = ratio(c["game.true"], c["game.runs"])
        out["solvers.expansion.states"] = c["expansion.states"]
        out["solvers.expansion.true_ratio"] = ratio(c["expansion.true"], c["expansion.levels"])
        out["contractions.hit_ratio"] = ratio(c["contractions.hits"], c["contractions.tests"])
        out["contractions.outerplanar_s"] = outerplanar_s
        out["recognizer.fast_path_ratio"] = ratio(c["recognizer.fast"], c["recognizer.decisions"])
        out["obstructions.candidates"] = c["obstructions.candidates"]
        out["obstructions.pruned_ratio"] = ratio(c["contains_any.true"], c["contains_any.calls"])
        for number in CHECKS.values():
            out[f"paperchecks.check_{number}_s"] = check_s[number]
        return out
