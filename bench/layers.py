"""Charge a cProfile run's self time and calls to the simulator's layers.

A layer is a package under ``src/repro/``. Functions of other repro
packages (``model``, ``core``, ``validate``, ...) form the layer
``other``. Functions outside repro -- built-ins, the standard library,
the benchmark itself -- belong to no layer: their self time is charged
to whoever called them, split by cProfile's per-caller tottime, so a
``heapq.heappush`` issued by the engine counts as ``sim`` time. Code
with no repro caller at all lands in ``other``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

LAYERS = (
    "sim",
    "cpu",
    "pcie",
    "uncore",
    "dram",
    "telemetry",
    "topology",
    "net",
    "experiments",
)
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)
TOP_N = 20

_REPRO_FILE = re.compile(r"[/\\]repro[/\\](?:(\w+)[/\\])?\w+\.py$")

#: pstats key: (filename, line, function name)
Func = Tuple[str, int, str]


def own_layer(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside repro."""
    match = _REPRO_FILE.search(filename)
    if match is None:
        return None
    return match.group(1) if match.group(1) in LAYERS else OTHER


def by_layer(stats: Dict[Func, Any]) -> Dict[str, Any]:
    """Aggregate ``pstats.Stats(...).stats`` by layer.

    Returns ``self_frac`` (share of all self time, summing to 1),
    ``calls_in`` (calls whose caller is charged to another layer) and
    the ``top`` functions of each layer by charged self time.
    """
    owner = {func: own_layer(func[0]) for func in stats}
    shares_memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s self time charged to each layer."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        callers = {c: e for c, e in callers.items() if c not in visiting}
        # edge = (calls, primitive calls, tottime, cumtime) for that caller
        weights = {c: e[2] for c, e in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[0] for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, frac in shares(caller, visiting | {func}).items():
                result[layer] = result.get(layer, 0.0) + frac * weight / total
        shares_memo[func] = result
        return result

    def main_layer(func: Func) -> str:
        charged = shares(func, frozenset())
        return max(charged, key=charged.get)

    self_time = {layer: 0.0 for layer in ALL_LAYERS}
    calls_in = {layer: 0 for layer in ALL_LAYERS}
    top: Dict[str, List[Tuple[float, str]]] = {layer: [] for layer in ALL_LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        for layer, frac in shares(func, frozenset()).items():
            self_time[layer] += tottime * frac
            top[layer].append((tottime * frac, _label(func)))
        layer = owner[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            if main_layer(caller) != layer:
                calls_in[layer] += edge[0]
    total = sum(self_time.values()) or 1.0
    return {
        "self_frac": {layer: t / total for layer, t in self_time.items()},
        "calls_in": calls_in,
        "self_s": self_time,
        "top": {
            layer: [[name, t] for t, name in sorted(rows, reverse=True)[:TOP_N]]
            for layer, rows in top.items()
        },
    }


def _label(func: Func) -> str:
    filename, line, name = func
    marker = filename.rfind("repro")
    if marker >= 0:
        filename = filename[marker:]
    return f"{filename}:{line}({name})"
