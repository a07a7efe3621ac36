"""Persist experiment results as JSON (reproducibility artifacts).

Panels round-trip losslessly, so a full regeneration can be archived next
to the paper comparison (EXPERIMENTS.md points at ``results_full.txt``;
``save_panels`` produces the machine-readable companion).  Resuming an
in-flight sweep is the result store's job
(:mod:`repro.campaign.store`), not this module's.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.experiments.harness import PanelResult

__all__ = ["panel_to_dict", "panel_from_dict", "save_panels", "load_panels"]

#: Separator for compound JSON keys (graph/variant/threads tuples).
_SEP = "\x1f"


def panel_to_dict(panel: PanelResult) -> dict:
    """JSON-serialisable representation of a panel."""
    return {
        "title": panel.title,
        "thread_counts": list(panel.thread_counts),
        "axis": panel.axis,
        "series": {k: [float(x) for x in v] for k, v in panel.series.items()},
        "per_graph": {f"{v}{_SEP}{g}": [float(x) for x in arr]
                      for (v, g), arr in panel.per_graph.items()},
        "baselines": {g: float(b) for g, b in panel.baselines.items()},
        "failures": {f"{g}{_SEP}{v}{_SEP}{t}": err
                     for (g, v, t), err in panel.failures.items()},
        "notes": panel.notes,
    }


def panel_from_dict(data: dict) -> PanelResult:
    """Inverse of :func:`panel_to_dict`."""
    panel = PanelResult(title=data["title"],
                        thread_counts=list(data["thread_counts"]),
                        axis=data.get("axis", "threads"),
                        notes=data.get("notes", ""))
    panel.series = {k: np.asarray(v) for k, v in data["series"].items()}
    for key, arr in data.get("per_graph", {}).items():
        v, g = key.split(_SEP, 1)
        panel.per_graph[(v, g)] = np.asarray(arr)
    panel.baselines = dict(data.get("baselines", {}))
    for key, err in data.get("failures", {}).items():
        g, v, t = key.split(_SEP, 2)
        panel.failures[(g, v, int(t))] = err
    return panel


def save_panels(panels: dict[str, PanelResult] | PanelResult,
                path: str | os.PathLike) -> None:
    """Write one panel or a dict of panels to *path* as JSON."""
    if isinstance(panels, PanelResult):
        payload = {"panels": {panels.title: panel_to_dict(panels)}}
    else:
        payload = {"panels": {k: panel_to_dict(p) for k, p in panels.items()}}
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def load_panels(path: str | os.PathLike) -> dict[str, PanelResult]:
    """Read panels previously written by :func:`save_panels`."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "panels" not in payload:
        raise ValueError(f"{path}: not a saved-panels file")
    return {k: panel_from_dict(d) for k, d in payload["panels"].items()}
