"""A seeded sample of bad config values, run in-process through the CLI.

Each case sets one field of a shipped config (top-level keys, and dict keys
or list entries below them to depth 3) to one bad value and runs one
subcommand. Every documented exit code is fine; a traceback is not. The
sample holds every top-level field of every config once, so a field that
every subcommand reads, like ``framework``, always meets a bad value.
"""

import contextlib
import copy
import io
import json
import math
import random
import time

from conftest import CONFIGS
from robusthmm import cli

BAD_VALUES = (None, "x", -1, 0, 0.5, [], {}, True, 1e308, [[1]], math.nan)
SAMPLE = 150
SEED = 2026


def _paths(node, prefix=(), depth=3):
    """Every key path into ``node``'s dicts and lists, to ``depth``."""
    if not depth or not isinstance(node, (dict, list)):
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,), depth - 1))
    return out


def _cases():
    rng = random.Random(SEED)
    configs = {path.name: json.loads(path.read_text())
               for path in sorted(CONFIGS.glob("*.json"))}
    fields = [(name, path) for name, cfg in configs.items()
              for path in _paths(cfg)]
    top = [f for f in fields if len(f[1]) == 1]
    deep = [f for f in fields if len(f[1]) > 1]
    chosen = top + rng.sample(deep, SAMPLE - len(top))
    return configs, [(name, path, rng.choice(BAD_VALUES),
                      rng.choice(sorted(cli._COMMANDS)))
                     for name, path in chosen]


def _edited(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def test_sampled_bad_config_values_exit_with_documented_codes(tmp_path):
    configs, cases = _cases()
    assert len(cases) == SAMPLE
    assert {name for name, path, _, _ in cases
            if path == ("framework",)} == set(configs)
    start = time.perf_counter()
    failures = []
    for i, (name, path, value, command) in enumerate(cases):
        config = tmp_path / f"case_{i:03d}.json"
        config.write_text(json.dumps(_edited(configs[name], path, value)))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config),
                                 "--out", str(tmp_path / f"out_{i:03d}")])
        except Exception as exc:  # a traceback on the command line
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 1, 2, 3, 4) or "Traceback" in err.getvalue():
            failures.append((name, path, value, command, code))
    assert failures == []
    assert time.perf_counter() - start < 5.0

