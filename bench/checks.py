"""Output checks run on a job's artifacts, always outside the timed region.

Each function returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

TREE_TOL = 1e-9


def artifact_digest(out_dir: str) -> str:
    """sha256 over every artifact but ``manifest.json`` (which carries the
    wall-clock time), by sorted file name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _number(x) -> float:
    return float(x) if x is not None else math.nan


def _surface_problems(out_dir: str, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        with open(os.path.join(out_dir, name), newline="") as fh:
            rows = csv.reader(fh)
            col = next(rows).index("value")
            finite = [v for v in (float(r[col]) for r in rows)
                      if math.isfinite(v)]
        if not finite or min(finite) != 0.0:
            problems.append(f"{name}: minimum finite value is not exactly 0")
    return problems


def _tree_problems(out_dir: str, config: dict) -> list[str]:
    """The tree's shape comes from the job's config, not from the header of
    ``tree.json``, so a tree built to the wrong horizon cannot pass."""
    with open(os.path.join(out_dir, "tree.json")) as fh:
        doc = json.load(fh)
    d, horizon = config["n_symbols"], config["horizon"]
    expected = (d ** (horizon + 1) - 1) // (d - 1) if d > 1 else horizon + 1
    nodes = {n["history"]: n for n in doc["nodes"]}
    problems = [f"tree.json: {key} is {doc.get(key)!r}, the config has "
                f"{config[key]!r}" for key in ("n_symbols", "horizon")
                if doc.get(key) != config[key]]
    if len(doc["nodes"]) != expected or len(nodes) != expected:
        problems.append(f"tree.json: {len(doc['nodes'])} nodes, "
                        f"expected {expected}")
    for label, node in nodes.items():
        depth = 0 if label == "root" else label.count("-") + 1
        if depth == horizon:
            continue
        prefix = "" if label == "root" else label + "-"
        kids = [nodes.get(f"{prefix}{y}") for y in range(d)]
        if any(k is None for k in kids):
            problems.append(f"tree.json: node {label} misses a child")
            continue
        mean = sum(_number(k["value"]) for k in kids) / d
        gap = abs(_number(node["value"]) - (mean + _number(node["driver"])))
        if not gap <= TREE_TOL:
            problems.append(f"tree.json: node {label} value differs from "
                            f"mean(children) + driver by {gap!r}")
    return problems


def _control_problems(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "values.json")) as fh:
        values = json.load(fh)
    problems = []
    for key, rec in values.items():
        if rec["control"] is None:
            continue
        q = [float(v) for v in rec["q_values"]]
        if float(rec["value"]) != min(q):
            problems.append(f"values.json: {key} value is not min(q_values)")
    return problems


def output_problems(command: str, config: dict, out_dir: str) -> list[str]:
    """Semantic checks on the artifacts of one successful job run with
    ``config``."""
    names = os.listdir(out_dir)
    problems = _surface_problems(
        out_dir, sorted(n for n in names
                        if n.startswith("surface_") and n.endswith(".csv")))
    if command == "expect":
        problems += _tree_problems(out_dir, config)
    elif command == "control":
        problems += _control_problems(out_dir)
    elif command == "oracle-check" and "oracle_report.csv" not in names:
        problems.append("oracle_report.csv missing")
    return problems
