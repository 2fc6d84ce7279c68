"""Docs guard: every code name the prose mentions resolves in this tree.

Scans the inline code spans (single backticks) of ``README.md``,
``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md`` for five kinds of
reference and checks each one against the code:

- ``repro.*`` dotted names import (module, then attributes);
- ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` paths exist
  (a glob must match something);
- ``repro <cmd> --flag`` names a subcommand and its options;
- ``XConfig``, ``XConfig.field`` and ``XConfig(field=…, …)`` name a
  config dataclass of ``repro`` and its fields (or methods);
- a bare ``--flag`` is an option of some subcommand, or of the
  repository benchmark's ``benchmarks/e2e/run.py``.

A deleted module, file, subcommand or flag that the docs still name
fails here instead of being found by reading.  The metrics table of
``docs/observability.md`` is held equal to the families the code
declares, name and type.
"""

import ast
import dataclasses
import glob
import importlib
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.estimation.tracker import ResourceTracker
from repro.obs import Registry
from repro.schedulers.tetris import TetrisScheduler
from repro.serve import SchedulerService, ServeConfig, TraceReplaySource
from repro.sim.engine import Engine

from conftest import config_dataclasses

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"^(?:src|tests|benchmarks|examples)/[^\s:(),]*")
_COMMAND = re.compile(r"^(?:python -m )?repro (\S.*)$")
_CONFIG = re.compile(r"\b([A-Z]\w*Config)\b(?:\.(\w+)|\(([^()]*)\))?")
_FLAG = re.compile(r"^--[a-z][\w-]*")
CONFIGS = config_dataclasses()
_METRIC_ROW = re.compile(
    r"^\| `(repro_\w+?)(?:\{\w+\})?` \| (counter|gauge|histogram) \|", re.M
)


def _spans(path):
    # blank fenced blocks out line for line, so line numbers stay true
    text = _FENCE.sub(
        lambda block: "\n" * block.group(0).count("\n"), path.read_text()
    )
    for match in _SPAN.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        yield line, " ".join(match.group(1).split())


def _references(docs):
    for path in docs:
        for line, span in _spans(path):
            where = f"{path.name}:{line}"
            for name in _DOTTED.findall(span):
                yield "name", where, name
            if _PATH.match(span):
                yield "path", where, _PATH.match(span).group(0)
            if _COMMAND.match(span):
                yield "command", where, "repro " + _COMMAND.match(span).group(1)
            for match in _CONFIG.finditer(span):
                yield "config", where, match.group(0)
            if _FLAG.match(span):
                yield "flag", where, _FLAG.match(span).group(0)


def _resolves_name(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _resolves_path(ref):
    return bool(glob.glob(str(ROOT / ref.rstrip("/"))))


def _subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    return action.choices


def _resolves_command(command):
    subparsers = _subparsers()
    tokens = command.split()[1:]
    # `repro run|compare|sweep` names several subcommands at once
    names = tokens[0].split("|")
    if not all(name in subparsers for name in names):
        return False
    return all(
        token.split("=")[0] in subparsers[name]._option_string_actions
        for name in names
        for token in tokens[1:]
        if token.startswith("-") and not token.lstrip("-")[:1].isdigit()
    )


def _resolves_config(ref):
    match = _CONFIG.match(ref)
    cls = CONFIGS.get(match.group(1))
    if cls is None:
        return False
    fields = {f.name for f in dataclasses.fields(cls)}
    names = [match.group(2)] if match.group(2) else []
    if match.group(3):
        names += re.findall(r"(\w+)\s*=", match.group(3))
    return all(name in fields or hasattr(cls, name) for name in names)


@lru_cache(maxsize=None)
def _benchmark_flags():
    """The option strings ``benchmarks/e2e/run.py`` declares (read from
    its source: the script is not importable as a module)."""
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "run.py").read_text())
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def _resolves_flag(flag):
    return flag in _benchmark_flags() or any(
        flag in subparser._option_string_actions
        for subparser in _subparsers().values()
    )


def stale_references(docs=DOCS):
    check = {
        "name": _resolves_name,
        "path": _resolves_path,
        "command": _resolves_command,
        "config": _resolves_config,
        "flag": _resolves_flag,
    }
    return [
        f"{where}: `{ref}`"
        for kind, where, ref in _references(docs)
        if not check[kind](ref)
    ]


@pytest.mark.parametrize(
    "kind", ["name", "path", "command", "config", "flag"]
)
def test_guard_finds_each_kind(kind):
    """The scanner sees every kind of reference it claims to check."""
    assert any(k == kind for k, _, _ in _references(DOCS))


def test_every_reference_resolves():
    stale = stale_references()
    assert not stale, "stale code references in docs:\n" + "\n".join(stale)


def test_stale_reference_is_caught(tmp_path):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "`repro.no_such_module`, `src/repro/no_such.py`, "
        "`repro run --no-such-flag` and `repro nope`; fine: "
        "`repro.cli.main`, `src/repro/cli.py:12`, `repro run --audit`.\n"
        "`NoSuchConfig`, `TetrisConfig.no_such_knob`, "
        "`ServeConfig(max_batch=8, no_such=1)`, `--no-such-flag 3`; fine: "
        "`TetrisConfig(fairness_knob=0.5)`, `ExperimentConfig.seed`, "
        "`ExperimentConfig.make_cluster()`, `--audit`.\n"
    )
    assert stale_references([doc]) == [
        "stale.md:1: `repro.no_such_module`",
        "stale.md:1: `src/repro/no_such.py`",
        "stale.md:1: `repro run --no-such-flag`",
        "stale.md:1: `repro nope`",
        "stale.md:2: `NoSuchConfig`",
        "stale.md:2: `TetrisConfig.no_such_knob`",
        "stale.md:2: `ServeConfig(max_batch=8, no_such=1)`",
        "stale.md:2: `--no-such-flag`",
    ]


def _declared_families():
    """Every family the code declares: an engine with a tracker and the
    profiling estimator, under a serve daemon with its window gauges."""
    cluster = Cluster(2, seed=0)
    registry = Registry()
    engine = Engine(
        cluster,
        TetrisScheduler(),
        [],
        tracker=ResourceTracker(cluster),
        estimator=ProfilingEstimator(),
        metrics=registry,
    )
    SchedulerService(
        engine,
        TraceReplaySource([]),
        config=ServeConfig(window_seconds=60.0),
        registry=registry,
    )
    return {name: registry.get(name).type for name in registry.names()}


def test_metrics_table_matches_declared_families():
    text = (ROOT / "docs" / "observability.md").read_text()
    table = _METRIC_ROW.findall(text)
    assert len(table) == len(dict(table)), "a family is listed twice"
    assert dict(table) == _declared_families()
