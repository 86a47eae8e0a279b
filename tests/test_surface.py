"""What other code reaches of the library, checked by reading that code.

The benchmark under benchmark/ imports edgesleep names, patches two
methods and names traced functions in strings, and only a change to the
benchmark itself may edit it; so a library change that deletes or renames
one of those names must fail here, in the tests, and not first in a traced
benchmark run.  The other way round, every public top-level name of the
library must be used by the program, its script or its benchmark, so a name
that only tests keep alive fails here too.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from edgesleep import epochs, model, quant

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_FILES = sorted(ROOT.glob("benchmark/*.py")) + sorted(ROOT.glob("benchmark/tests/*.py"))
LIBRARY_FILES = sorted((ROOT / "src" / "edgesleep").glob("*.py"))

# Keys of the tracer's spec table whose functions went when `convert` began
# to label the night before reading it; a change to the benchmark drops
# them, and must then empty this set.
STALE_TRACER_KEYS = {"epochs.segment_epochs", "epochs.trim_wake"}


def resolve(dotted: str):
    """The object a dotted name such as "edgesleep.quant.QuantModel.dequantize"
    names, importing submodules on the way; AttributeError or
    ModuleNotFoundError when it names nothing."""
    parts = dotted.split(".")
    value = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(value, part):
            importlib.import_module(".".join(parts[: i + 1]))
        value = getattr(value, part)
    return value


def attribute_chain(node: ast.Attribute) -> list[str] | None:
    """["a", "b", "c"] of an expression a.b.c rooted at a plain name."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(chain)]


def benchmark_names(path: Path) -> set[str]:
    """Every edgesleep name a benchmark file imports, and every attribute
    chain rooted at a name its imports bind to an edgesleep module, as
    full dotted names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}  # local name -> dotted edgesleep module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edgesleep":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                names.add(full)
                if node.module == "edgesleep":
                    bound[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "edgesleep":
                    names.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "edgesleep"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain and chain[0] in bound:
                names.add(".".join([bound[chain[0]], *chain[1:]]))
    return names


def tracer_spec_keys() -> set[str]:
    """The string keys of the dict Tracer._specs returns: "module.function"
    names of the functions the tracer wraps with a spec."""
    tree = ast.parse((ROOT / "benchmark" / "tracer.py").read_text())
    tracer = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    specs = next(n for n in tracer.body if isinstance(n, ast.FunctionDef) and n.name == "_specs")
    table = next(n.value for n in specs.body if isinstance(n, ast.Return))
    return {k.value for k in table.keys if isinstance(k, ast.Constant)}


def tracer_modules() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "benchmark" / "tracer.py").read_text())
    assign = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["TRACED_MODULES"]
    )
    return ast.literal_eval(assign.value)


def names_that_resolve_not(names) -> set[str]:
    missing = set()
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ModuleNotFoundError):
            missing.add(name)
    return missing


class TestBenchmarkReach:
    def test_scan_sees_the_benchmark(self):
        names = set().union(*map(benchmark_names, BENCHMARK_FILES))
        assert {"edgesleep.cli", "edgesleep.quant.QuantModel.dequantize",
                "edgesleep.edf.EdfFile.annotations", "edgesleep.epochs.standardize"} <= names

    @pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda p: str(p.relative_to(ROOT)))
    def test_every_imported_name_and_attribute_resolves(self, path):
        assert names_that_resolve_not(benchmark_names(path)) == set()

    def test_every_traced_module_imports(self):
        assert names_that_resolve_not(f"edgesleep.{m}" for m in tracer_modules()) == set()

    def test_tracer_spec_keys_resolve_but_the_known_stale_ones(self):
        keys = tracer_spec_keys()
        assert "kernels.conv1d" in keys
        assert names_that_resolve_not(f"edgesleep.{k}" for k in keys) == {
            f"edgesleep.{k}" for k in STALE_TRACER_KEYS
        }

    def test_attributes_read_off_returned_objects(self, tmp_path):
        config = model.ArchConfig(width_multiplier=0.25)
        params = model.init_params(config, 0)
        assert isinstance(params.tensors, dict)
        assert model.ModelParams(params.tensors).names() == list(params.tensors)
        records = np.zeros(3, dtype=epochs.STORE_RECORD)
        assert len(epochs.class_distribution(records).counts) == len(epochs.SleepStage)
        q = quant.quantize_tensor(np.ones((2, 3)))
        assert q.values.reshape(q.shape).shape == (2, 3) and q.scale > 0
        model.save_model(params.astype(np.float32), config, tmp_path / "float.slpm")
        quant.save_quant_model(quant.quantize_model(params, config), tmp_path / "int8.slpm")
        assert quant.load_any_model(tmp_path / "float.slpm")[0] == "float"
        assert quant.load_any_model(tmp_path / "int8.slpm")[0] == "quant"


def defined_name(stmt: ast.stmt) -> str | None:
    """The name a top-level def, class or single-name assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


DOTTED = re.compile(r"\b(\w+)\.(\w+)\b")


def references(path: Path) -> tuple[set[str], set[str]]:
    """(bare names, "module.name" strings) a file refers to: names loaded,
    attributes, import aliases and dotted words in string constants.  A
    top-level definition's own name inside it does not count."""
    bare, dotted = set(), set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        mentioned = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted.update(".".join(m) for m in DOTTED.findall(node.value))
        bare |= mentioned - {defined_name(stmt)}
    return bare, dotted


class TestLeastCode:
    def test_every_public_name_is_used_outside_the_tests(self):
        users = (sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("scripts/**/*.py"))
                 + sorted(ROOT.glob("benchmark/*.py")))
        bare, dotted = set(), set()
        for path in users:
            b, d = references(path)
            bare |= b
            dotted |= d
        public = {
            (path.stem, name)
            for path in LIBRARY_FILES
            for name in map(defined_name, ast.parse(path.read_text()).body)
            if name and not name.startswith("_")
        }
        assert ("model", "predict") in public
        unused = {f"{m}.{n}" for m, n in public if n not in bare and f"{m}.{n}" not in dotted}
        assert unused == set()
