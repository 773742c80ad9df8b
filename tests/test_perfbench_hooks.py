"""Every attribute the benchmark reads from avbinder exists, and the
benchmark's own file writers and readers agree with avbinder's.

``perfbench/`` reaches into the package as ``av.<module>.<attr>`` and
patches call sites with ``tracer.wrap(av.<module>, "<attr>", ...)``, also
through ``for owner in (..., av.<module>)`` loops. A traced run fails on
the first name that is gone, so this scans those files with ``ast`` and
checks each name against the importable modules.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _av_module(node):
    """``<module>`` when node is ``av.<module>``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "av":
        return node.attr
    return None


def _wrap_target(call):
    """(owner node, attr) of a ``<x>.wrap(owner, "attr", ...)`` call."""
    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "wrap" and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)):
        return call.args[0], call.args[1].value
    return None


def benchmark_hooks() -> set[tuple[str, str]]:
    hooks = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and _av_module(node.value):
                hooks.add((_av_module(node.value), node.attr))
            target = _wrap_target(node)
            if target and _av_module(target[0]):
                hooks.add((_av_module(target[0]), target[1]))
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
                owners = [m for m in map(_av_module, node.iter.elts) if m]
                for sub in ast.walk(node):
                    target = _wrap_target(sub)
                    if target and isinstance(target[0], ast.Name) and target[0].id == getattr(node.target, "id", None):
                        hooks.update((module, target[1]) for module in owners)
    return hooks


def test_package_has_every_attribute_the_benchmark_reads():
    hooks = benchmark_hooks()
    # the scan itself must keep finding what the benchmark uses
    assert {("kernels", "NUMBA_ENABLED"), ("training", "row_dots"), ("cli", "build_index")} <= hooks
    assert len(hooks) >= 47
    missing = sorted(
        f"avbinder.{module}.{attr}"
        for module, attr in hooks
        if not hasattr(importlib.import_module(f"avbinder.{module}"), attr)
    )
    assert missing == []


def test_benchmark_selftest_passes():
    # perfbench writes its inputs with its own MVBE/MVBM/PNM writers and
    # judges avbinder's outputs with its own readers; the self-test checks
    # both directions byte for byte
    root = PERFBENCH.parent
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
