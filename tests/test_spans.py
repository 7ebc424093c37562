"""The benchmark's span recorder (``perfbench/spans.py``) wraps irisfuse
functions by name, so a renamed or bypassed function would silently read 0
in its layer.  These tests pin the names and the calls one verify makes."""

import ast
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from irisfuse.fusion import FusionPolicy
from irisfuse.synth import build_corpus

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC_PATH = SPANS_PATH.parents[1] / "src" / "irisfuse"
WORKLOADS_PATH = SPANS_PATH.with_name("workloads.py")
ORACLES_PATH = Path(__file__).resolve().with_name("oracles.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    # the tracer patches only loaded modules, so load every traced one
    for module_name, _, _ in module.TRACED:
        importlib.import_module(f"irisfuse.{module_name}")
    return module


def test_every_traced_function_resolves(spans):
    for module_name, func_name, _ in spans.TRACED:
        module = importlib.import_module(f"irisfuse.{module_name}")
        assert callable(getattr(module, func_name, None)), f"irisfuse.{module_name}.{func_name}"


def src_statements():
    """(module, name the statement defines or None, names it reads) for every
    top-level statement of the package; only a function or class defines a
    name here, and an import reads nothing."""
    statements = []
    for path in sorted(SRC_PATH.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            referenced = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if isinstance(n, (ast.Name, ast.Attribute))}
            statements.append((path.stem, getattr(node, "name", None), referenced))
    return statements


def used_by_the_program(module, name, statements):
    """Whether a statement of the package other than ``module.name``'s own definition reads ``name``."""
    return any(name in referenced for where, defines, referenced in statements
               if (where, defines) != (module, name))


def test_every_traced_function_is_used_by_the_program(spans):
    # a traced function that only the bench calls is bench-only code in src/
    statements = src_statements()
    unused = {f"{module}.{func}" for module, func, _ in spans.TRACED
              if not used_by_the_program(module, func, statements)}
    # verify no longer calls common_mask; ROADMAP item 5 drops it from TRACED
    # and from layers._pair_code_seconds in the next benchmark revision, and
    # then deletes it and this exception
    assert unused == {"euler.common_mask"}


# The public names only tests call, each kept for the acceptance criterion it serves.
TEST_ONLY = {
    "euler.euler_number": "c01",
    "gasel.roulette_select": "c07",
    "synth.rotated": "c03",
    "zerocross.shifted": "c05",
}


def test_every_public_name_is_used():
    # a public top-level function or class that neither the package nor the
    # bench reads, and that no acceptance criterion needs, is dead code
    statements = src_statements()
    bench = "\n".join(path.read_text() for path in sorted(SPANS_PATH.parent.glob("*.py")))
    public = [(module, name) for module, name, _ in statements if name and not name.startswith("_")]
    unused = [f"{module}.{name}" for module, name in public
              if not used_by_the_program(module, name, statements)
              and not re.search(rf"\b{name}\b", bench) and f"{module}.{name}" not in TEST_ONLY]
    assert unused == [], f"public names nothing in src/ or perfbench/ reads: {unused}"


def test_verify_runs_every_segmentation_span(spans):
    store = importlib.import_module("irisfuse.store")
    records = build_corpus(2, 2, 2026).records
    gallery = store.empty_gallery()
    for ident in range(2):
        first = next(r for r in records if r.identity == ident)
        gallery = store.enroll(gallery, f"person-{ident}", [first.image])
    probe = [r for r in records if r.identity == 0][1]
    with spans.Tracer() as tracer:
        store.verify(gallery, "person-0", probe.image, FusionPolicy())
    calls = Counter(span.name for span in tracer.spans)
    assert calls["store.verify"] == 1
    assert calls["pipeline.process_image"] == 1
    assert calls["segmentation.locate_pupil_and_iris"] == 1
    assert calls["segmentation.circular_hough"] == 2   # pupil, then iris
    assert calls["segmentation.edge_map"] == 3         # pupil, iris and eyelid edges
    assert calls["segmentation.parabolic_hough"] == 2  # upper and lower eyelid


def test_run_trials_records_one_zerocross_match_span_per_pair(spans):
    evaluation = importlib.import_module("irisfuse.evaluation")
    corpus = build_corpus(3, 2, 2026)  # 3 genuine + 12 imposter pairs, under the imposter cap
    with spans.Tracer() as tracer:
        outcome = evaluation.run_trials(corpus)
    pairs = len(outcome.fused.genuine) + len(outcome.fused.imposter)
    assert pairs == 15
    matches = [s for s in tracer.spans if s.name == "zerocross.match"]
    assert len(matches) == pairs
    assert [s.pair for s in matches] == list(range(pairs))
    assert {tracer.spans[s.parent].name for s in matches} == {"evaluation.run_trials"}


def test_bench_workloads_import(monkeypatch):
    # workloads.py imports tests/oracles.py, so a name the oracles no longer
    # define would stop every bench run at import time
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    assert {"evaluate", "gallery", "train-ga"} <= module.WORKLOADS.keys()


def names_used(tree):
    """Every name a parsed module reads, imports or reads as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_oracle_is_referenced():
    # one reference per kernel: a test retargeted to another reference must
    # not leave its former one behind in tests/oracles.py
    definitions = {}
    for node in ast.parse(ORACLES_PATH.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            definitions.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    users = sorted(ORACLES_PATH.parent.glob("test_*.py"))
    users += sorted(WORKLOADS_PATH.parent.glob("*.py"))
    outside = set().union(*(names_used(ast.parse(path.read_text())) for path in users))
    bodies = {name: names_used(node) for name, node in definitions.items()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = [name for name in definitions if not name.startswith("_") and name not in outside
              and not any(name in used for other, used in bodies.items() if other != name)]
    assert unused == [], f"tests/oracles.py defines references nothing uses: {unused}"
