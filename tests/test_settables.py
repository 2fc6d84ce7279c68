"""Settable values: every one has a reader, and their number does not grow.

A *settable value* is a field of a config dataclass, a keyword default of
a constructor or entry function a caller assembles runs with, a CLI
option or an environment variable.  Each one is a question a caller must
answer, so each must point to a caller that needs it.

- :func:`test_every_config_field_is_read` is the dead-knob guard: an
  ``ast`` walk over ``src/`` finds, for every field of the config
  dataclasses, a ``.field`` read outside the class's own dunder methods
  — a field that only its own validation or repr reads (or nothing at
  all) configures nothing.  The class's other methods count as readers:
  ``ExperimentConfig.make_engine_config`` is how every run, the
  repository benchmark's included, reads ``engine_config``.
- :func:`count_settables` is the census's counting script; run this file
  as a script to print the count and its breakdown.  The count may
  shrink, never grow.
"""

import argparse
import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

from repro.cli import build_parser
from repro.exec.backends import ProcessPoolBackend, get_backend
from repro.experiments.harness import run_comparison, run_trace
from repro.schedulers.tetris import TetrisScheduler
from repro.serve.service import SchedulerService
from repro.sim.engine import Engine

from conftest import config_dataclasses

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


#: every ``*Config`` dataclass of ``repro`` but the trace-generator
#: configs, which describe a workload, not a run
CONFIGS = tuple(
    cls for _, cls in sorted(config_dataclasses().items())
    if cls.__module__ != "repro.workload.tracegen"
)
#: the constructors and entry functions whose keyword defaults count
CALLABLES = (
    Engine.__init__,
    SchedulerService.__init__,
    TetrisScheduler.__init__,
    ProcessPoolBackend.__init__,
    get_backend,
    run_trace,
    run_comparison,
)
#: the census count when it was taken (149 before it)
CENSUS_COUNT = 120


def _cli_options():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: [
            action for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, subparser in sub.choices.items()
    }


def count_settables():
    """(total, breakdown) over the census scope."""
    breakdown = {}
    for cls in CONFIGS:
        breakdown[cls.__name__] = len(dataclasses.fields(cls))
    for fn in CALLABLES:
        breakdown[fn.__qualname__] = sum(
            1 for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty
        )
    for name, actions in _cli_options().items():
        breakdown[f"repro {name}"] = len(actions)
    breakdown["environment reads"] = _environment_reads()
    return sum(breakdown.values()), breakdown


def _environment_reads():
    """Places ``src/`` reads the process environment (``os.environ``,
    ``os.getenv``): one per environment variable the program reads."""
    return sum(
        isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
    )


def _reads_outside(tree, owner):
    """Attribute names loaded in ``tree`` outside the dunder methods of
    ``class owner:``."""
    found = set()

    def visit(node, skip):
        if (
            not skip
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
        ):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            dunder = (
                isinstance(node, ast.ClassDef)
                and node.name == owner
                and isinstance(child, ast.FunctionDef)
                and child.name.startswith("__")
                and child.name.endswith("__")
            )
            visit(child, skip or dunder)

    visit(tree, False)
    return found


def unread_fields():
    trees = [ast.parse(path.read_text()) for path in SRC.rglob("*.py")]
    unread = []
    for cls in CONFIGS:
        read = set()
        for tree in trees:
            read |= _reads_outside(tree, cls.__name__)
        unread += [
            f"{cls.__name__}.{f.name}"
            for f in dataclasses.fields(cls)
            if f.name not in read
        ]
    return unread


def test_every_config_field_is_read():
    assert unread_fields() == []


def test_guard_ignores_reads_in_dunder_methods():
    """A field that only its own validation reads counts as unread."""
    tree = ast.parse(textwrap.dedent("""
        class ProbeConfig:
            knob: int = 0
            used: int = 0

            def __post_init__(self):
                assert self.knob >= 0 and self.used >= 0

            def make(self):
                return self.used

        def use(config):
            return config.other
    """))
    reads = _reads_outside(tree, "ProbeConfig")
    assert "knob" not in reads
    assert {"used", "other"} <= reads


def test_settable_count_does_not_grow():
    total, breakdown = count_settables()
    assert total <= CENSUS_COUNT, breakdown


if __name__ == "__main__":
    total, breakdown = count_settables()
    for name, count in breakdown.items():
        print(f"{count:4d}  {name}")
    print(f"{total:4d}  settable values")
