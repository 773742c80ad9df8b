"""Every attribute the benchmark reads from avbinder exists, and the
benchmark's own file writers and readers agree with avbinder's.

``perfbench/`` reaches into the package as ``av.<module>.<attr>`` and
patches call sites with ``tracer.wrap(av.<module>, "<attr>", ...)``, also
through ``for owner in (..., av.<module>)`` loops. A traced run fails on
the first name that is gone, so this scans those files with ``ast`` and
checks each name against the importable modules. A wrapped name that is
still there but no longer called fails nothing and empties its span, so
the search commands must also call every target the search trace wraps.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from helpers import write_integer_search_fixture

from avbinder.cli import run_cli
from avbinder.embedio import load_embeddings

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


def wrap_targets(tree) -> set[tuple[str, str]]:
    """(module, attr) of every ``wrap(av.<module>, "attr", ...)`` under
    ``tree``, also through ``for owner in (..., av.<module>)`` loops."""
    targets = set()
    for node in ast.walk(tree):
        target = _wrap_target(node)
        if target and _av_module(target[0]):
            targets.add((_av_module(target[0]), target[1]))
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            owners = [m for m in map(_av_module, node.iter.elts) if m]
            for sub in ast.walk(node):
                target = _wrap_target(sub)
                if target and isinstance(target[0], ast.Name) and target[0].id == getattr(node.target, "id", None):
                    targets.update((module, target[1]) for module in owners)
    return targets


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def benchmark_hooks() -> set[tuple[str, str]]:
    hooks = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _av_module(node.value):
                hooks.add((_av_module(node.value), node.attr))
        hooks |= wrap_targets(tree)
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


def search_trace_targets() -> set[tuple[str, str]]:
    """What ``Search.trace`` in ``perfbench/workloads.py`` wraps."""
    for node in ast.walk(_parse(PERFBENCH / "workloads.py")):
        if isinstance(node, ast.ClassDef) and node.name == "Search":
            trace = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "trace")
            return wrap_targets(trace)
    raise AssertionError("perfbench/workloads.py has no Search class")


def test_search_commands_call_every_wrapped_search_target(tmp_path, monkeypatch, capsys):
    # a wrap whose target the commands no longer call empties its span
    # without any error, as binder.similarity_ms reads 0 in a traced train
    targets = search_trace_targets()
    assert {("binder", "head_forward"), ("cli", "retrieve_topk"), ("retrieval", "row_dots")} <= targets
    calls = dict.fromkeys(targets, 0)
    for module, attr in targets:
        owner = importlib.import_module(f"avbinder.{module}")

        def counted(*args, _key=(module, attr), _real=getattr(owner, attr), **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    ckpt, video, audio = (str(path) for path in write_integer_search_fixture(tmp_path).values())
    query_id = load_embeddings(video).ids[0]
    for argv in (
        ["eval", "--checkpoint", ckpt, "--video", video, "--audio", audio, "--direction", "v2a"],
        ["eval", "--checkpoint", ckpt, "--video", video, "--audio", audio, "--direction", "a2v"],
        ["retrieve", "--checkpoint", ckpt, "--queries", video, "--candidates", audio],
        ["retrieve", "--checkpoint", ckpt, "--queries", video, "--candidates", audio, "--query-id", query_id],
    ):
        assert run_cli(argv) == 0, argv
    capsys.readouterr()
    assert sorted(key for key, n in calls.items() if n == 0) == []
