"""The package's exports: what `npcc` names, and what the tests import."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import npcc
import npcc._memo as _memo
import npcc.cli
from npcc import MonodromyDatum, clutch_report, kottwitz_set, mu_ordinary

# npcc.__all__ in order: each module's __all__, in the order the package
# lists the modules, then __version__.
EXPORTS = """
DomainError PolygonSyntaxError EndpointMismatchError AsymmetricPolygonError
InvalidDatumError BadResidueError InconsistentSignatureError NotAdmissibleError
UnsupportedPairError NotABaseCaseError GeneratorError CertificationError EnumerationCapError
NewtonPolygon parse EMPTY ORD SS
MonodromyDatum Signature signature genus induce normalize pad_first pad_last strip_zeros
Orbit OrbitDecomposition decompose g_of_orbit
OrbitPolygon mu_ordinary_orbit mu_ordinary_of_signature mu_ordinary beta_of_signature
p_rank_bound
DEFAULT_ENUM_CAP enumerate_orbit_component KottwitzSet kottwitz_set omega_count dim_moduli
ConditionUReport condition_u threshold_half_slope_density threshold_repeated_summand
threshold_ss_chain
ClutchReport check_admissible clutch_data clutch_report clutch_polygon check_balanced
check_compatible compatible_violations MuOrdProductCheck mu_ord_product_check
epsilon_orbits find_admissible_reordering reorder_at pad_pair
CertifiedFamily base_case payload_base extend_ord self_clutch pad_and_clutch
double_induction verify_family replay
MoonenRow MoonenFamily moonen_families moonen_family moonen_base moonen_payload
reproduce_appendix reproduce_applications worked_clutch_example
__version__
""".split()
MODULES = (npcc.errors, npcc.polygon, npcc.monodromy, npcc.orbits, npcc.muord, npcc.strata,
           npcc.clutch, npcc.generators, npcc.catalog, npcc.reproduce)
# The modules `import npcc` leaves to a first read, in the order it loads them.
LAZY = ("npcc.orbits", "npcc.muord", "npcc.strata", "npcc.clutch", "npcc.generators",
        "npcc.reproduce")
# What `import npcc; npcc.moonen_families()` loads of the package: the table.
TABLE = {"npcc", "npcc._memo", "npcc._record", "npcc.errors", "npcc.polygon", "npcc.monodromy",
         "npcc.catalog"}
FRACTIONS = {"fractions", "decimal", "numbers"}  # fractions and what it imports
SRC = Path(npcc.__file__).resolve().parent


def test_exports_are_listed_once_and_resolve():
    assert len(EXPORTS) == len(set(EXPORTS)) == 81
    assert npcc.__all__ == EXPORTS
    assert npcc.__all__ is npcc.__all__  # one list, bound at its first read
    for name in npcc.__all__:
        assert hasattr(npcc, name), name


def test_each_export_is_the_object_its_module_binds():
    exported = [name for module in MODULES for name in module.__all__]
    assert exported + ["__version__"] == npcc.__all__
    for module in MODULES:
        for name in module.__all__:
            assert getattr(npcc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_dir_lists_every_export():
    assert set(npcc.__all__) <= set(dir(npcc))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        npcc.no_such_export
    # A dunder probe (inspect.unwrap's, say) names no export and loads nothing.
    assert _loaded_at_startup(LAZY, then="assert not hasattr(npcc, '__wrapped__')") == "[]"


def test_catalog_annotations_resolve():
    import typing

    for func in (npcc.moonen_base, npcc.moonen_payload):
        assert typing.get_type_hints(func)["return"] is npcc.CertifiedFamily


def _fresh(code, *flags):
    """What `code` prints in a fresh interpreter that imports npcc from this checkout."""
    src = str(Path(npcc.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def _loaded_at_startup(names, *flags, then="pass"):
    """Those of names that `import npcc; npcc.moonen_families()`, and the
    statement `then` after them, load in a fresh interpreter."""
    return _fresh(
        "import sys; before = set(sys.modules); import npcc; npcc.moonen_families();"
        f" {then}; print(sorted({set(names)!r} & (set(sys.modules) - before)))",
        *flags,
    )


def test_startup_loads_no_dataclass_or_inspect_machinery():
    # Every CLI call pays for what `import npcc` loads; the records are
    # plain classes, so neither module is needed to start.
    assert _loaded_at_startup({"dataclasses", "inspect"}) == "[]"


def test_startup_without_site_loads_no_resources_or_typing_machinery():
    # -S keeps site from loading modules first, so each module listed
    # would show up here if npcc itself loaded it.  Terms are read with
    # str methods and annotations evaluated as written: no re, enum or
    # __future__ either.
    heavy = {"importlib.resources", "typing", "dataclasses", "inspect", "re", "enum", "__future__"}
    assert _loaded_at_startup(heavy, "-S") == "[]"


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_startup_compiles_no_strata_clutch_or_generators(flags):
    # Parsing the table runs none of the lazy modules (orbits, muord and
    # reproduce too), so import npcc leaves them to the first read of a name.
    assert _loaded_at_startup(LAZY, *flags) == "[]"


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_startup_loads_only_the_table_modules_and_no_fractions(flags):
    # The table builds no Fraction, so fractions waits for the first one.
    package = {"npcc"} | {f"npcc.{path.stem}" for path in SRC.glob("*.py")}
    assert _loaded_at_startup(package | FRACTIONS, *flags) == str(sorted(TABLE))


def test_importing_the_cli_loads_no_fractions():
    code = f"import sys; import npcc.cli; print(sorted({FRACTIONS!r} & set(sys.modules)))"
    assert _fresh(code, "-S") == "[]"


# A read right after import, and the last lazy module it loads.
READS = {
    "npcc.decompose": "npcc.orbits",
    "npcc.mu_ordinary": "npcc.muord",  # the per-datum invariants compile no strata
    "npcc.kottwitz_set": "npcc.strata",
    "npcc.strata": "npcc.strata",
    "npcc.clutch": "npcc.clutch",
    "npcc.clutch_report": "npcc.clutch",
    "npcc.generators": "npcc.generators",
    "npcc.replay": "npcc.generators",
    "npcc.reproduce": "npcc.reproduce",
    "npcc.worked_clutch_example": "npcc.reproduce",
    "npcc.__all__": "npcc.reproduce",
    "dir(npcc)": "npcc.reproduce",
}


@pytest.mark.parametrize("read", READS)
def test_a_read_loads_its_lazy_module_and_those_before_it(read):
    # And no later one: the first read of kottwitz_set compiles no clutch.
    loaded = LAZY[: LAZY.index(READS[read]) + 1]
    assert _loaded_at_startup(LAZY, then=read) == str(sorted(loaded))


def test_star_import_binds_every_export_in_a_fresh_interpreter():
    code = "from npcc import *; import npcc; print(len(npcc.__all__), set(npcc.__all__) - set(globals()))"
    assert _fresh(code) == "81 set()"


def test_names_the_tests_import_resolve():
    imported = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("npcc"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert ("npcc", "MonodromyDatum") in imported and ("npcc.cli", "main") in imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


ROOT = Path(__file__).resolve().parents[1]
# The oldest Python that pyproject.toml declares.
FLOOR = (3, 10)


def test_every_source_file_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % FLOOR in pyproject
    paths = [path for top in ("src/npcc", "tests", "bench") for path in (ROOT / top).rglob("*.py")]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
    # The parse does refuse syntax newer than the floor: except* is 3.11's.
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=FLOOR)


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may be one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def _startup_imports(path):
    """Where one module imports fractions when it loads, or imports the npcc
    package by name: `import npcc` must not load fractions, and a module
    reaches the others relatively, so the package never imports itself
    half-initialised.  Only a function body runs after loading."""
    problems = []

    def visit(node, loading):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                roots = {alias.name.partition(".")[0] for alias in child.names}
            elif isinstance(child, ast.ImportFrom) and not child.level:
                roots = {child.module.partition(".")[0]}
            else:
                roots = set()
            if loading and "fractions" in roots:
                problems.append(f"{path.name}:{child.lineno} imports fractions at load")
            if "npcc" in roots and path.name != "__init__.py":
                problems.append(f"{path.name}:{child.lineno} imports npcc")
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, loading and not function)

    visit(ast.parse(path.read_text(encoding="utf-8")), True)
    return problems


def test_no_module_imports_fractions_at_load_or_the_package_by_name():
    problems = [problem for path in sorted(SRC.glob("*.py")) for problem in _startup_imports(path)]
    assert problems == []


def test_startup_import_scan_flags_every_import_named(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text(
        "import fractions\n"
        "from fractions import Fraction\n"
        "import os, fractions as f\n"
        "if True:\n    from fractions import Fraction as F\n"
        "class C:\n    import fractions\n"
        "def f():\n    from fractions import Fraction\n    import npcc\n"
        "import npcc.polygon\n"
        "from npcc import parse\n"
        "from . import polygon\n"
        "from .polygon import _fraction\n"
        "import fractionsx\n"
        "text = 'import fractions'\n",
        encoding="utf-8",
    )
    assert _startup_imports(path) == [
        "imports.py:1 imports fractions at load",
        "imports.py:2 imports fractions at load",
        "imports.py:3 imports fractions at load",
        "imports.py:5 imports fractions at load",
        "imports.py:7 imports fractions at load",
        "imports.py:10 imports npcc",
        "imports.py:11 imports npcc",
        "imports.py:12 imports npcc",
    ]
    init = tmp_path / "__init__.py"
    init.write_text("def load():\n    import npcc.strata\nfrom fractions import Fraction\n")
    assert _startup_imports(init) == ["__init__.py:3 imports fractions at load"]


def _start_path_imports(path):
    """Where one module imports __future__, or re unless it is the CLI:
    the table's polygons are read with str methods and annotations are
    evaluated where they are written, so `import npcc` needs neither."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots = {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots = {node.module.partition(".")[0]}
        else:
            continue
        for root in sorted(roots & {"__future__", "re"}):
            if root == "__future__" or path.name != "cli.py":
                problems.append(f"{path.name}:{node.lineno} imports {root}")
    return problems


def test_no_module_imports_future_and_only_the_cli_imports_re():
    paths = sorted(SRC.glob("*.py"))
    problems = [problem for path in paths for problem in _start_path_imports(path)]
    assert problems == []


def test_start_path_import_scan_flags_every_import_named(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import re\n"
        "import os, re as r\n"
        "from re import compile\n"
        "def f():\n    import re._parser\n"
        "from . import re\n"
        "from .re import x\n"
        "import regex, rex\n"
        "text = 'import re'\n",
        encoding="utf-8",
    )
    assert _start_path_imports(path) == [
        "imports.py:1 imports __future__",
        "imports.py:2 imports re",
        "imports.py:3 imports re",
        "imports.py:4 imports re",
        "imports.py:6 imports re",
    ]
    cli = tmp_path / "cli.py"
    cli.write_text("import re\nfrom __future__ import annotations\n", encoding="utf-8")
    assert _start_path_imports(cli) == ["cli.py:2 imports __future__"]


SPANS = ROOT / "bench" / "spans.py"
# Loads bench/spans.py as `spans` in a fresh interpreter.
LOAD_SPANS = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("bench_spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
"""


def test_benchmark_traced_names_resolve():
    # The benchmark's tracer wraps these by name; a rename would leave
    # a traced layer silently empty.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert "strata.length" in spans.TARGETS
    for span, (module, attribute) in spans.TARGETS.items():
        owner = importlib.import_module(module)
        for name in attribute.split("."):
            assert hasattr(owner, name), f"{span}: {module}.{attribute}"
            owner = getattr(owner, name)
        assert callable(owner), span


def test_benchmark_traced_modules_are_loaded_by_importing_the_cli():
    # The tracer reads each target's module from sys.modules right after
    # `import npcc, npcc.cli`, so a module the CLI left to a later import
    # would fail every traced run.
    code = LOAD_SPANS + """
import sys
import npcc, npcc.cli
modules = {module for module, _ in spans.TARGETS.values()}
print("npcc.strata" in modules, sorted(modules - set(sys.modules)))
"""
    assert _fresh(code) == "True []"


def test_no_module_loaded_after_the_cli_binds_a_traced_function():
    # A module first imported while the tracer is installed binds its
    # wrappers by name and keeps them after restore, so every later
    # untraced call through it would be counted.  Each module that binds
    # a traced function must therefore be loaded by `import npcc, npcc.cli`.
    code = LOAD_SPANS + """
import sys
import npcc, npcc.cli
loaded = set(sys.modules)
npcc.__all__
traced = {id(spans._resolve(sys.modules[module], path)[2])
          for module, path in spans.TARGETS.values()}
print(sorted(name for name in set(sys.modules) - loaded if name.startswith("npcc.")
             and any(id(value) in traced for value in vars(sys.modules[name]).values())))
"""
    assert _fresh(code) == "[]"


def test_a_lazy_export_read_under_the_tracer_is_untraced_after_restore():
    # The tracer wraps only the bindings that exist when it installs, and
    # the package binds no lazy export; so a first read of one while it
    # is installed must not leave a wrapper behind in the package.
    code = LOAD_SPANS + """
import npcc, npcc.cli
datum = npcc.MonodromyDatum(7, (1, 1, 5))
tracer = spans.Tracer(npcc.DomainError)
tracer.install()
npcc.base_case(datum, 3)
traced = tracer.calls["generators.base_case"]
restored = tracer.restore()
recorded = len(tracer.spans)
npcc.base_case(datum, 3)
print(traced, restored, npcc.base_case is npcc.generators.base_case, len(tracer.spans) - recorded)
"""
    assert _fresh(code) == "1 True True 0"


def _memo_outside_the_registry(path):
    """Where one module names functools' memo decorators, which only
    npcc._memo may: a memo declared elsewhere escapes its clear() and info()."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = sorted({a.name for a in node.names} & {"cache", "lru_cache"})
            if names:
                problems.append(f"{where} imports {names} by name")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in {"cache", "lru_cache"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            problems.append(f"{where} functools.{node.attr}")
    return problems


def test_only_the_registry_declares_a_memo():
    src = Path(npcc.__file__).resolve().parent
    outside = [
        problem
        for path in sorted(src.glob("*.py"))
        if path.name != "_memo.py"
        for problem in _memo_outside_the_registry(path)
    ]
    assert outside == []
    assert _memo_outside_the_registry(src / "_memo.py") != []  # the scan sees its memos


def test_memo_scan_flags_every_memo_decorator_named(tmp_path):
    path = tmp_path / "memos.py"
    path.write_text(
        "import functools\n"
        "from functools import cache\n"
        "from functools import lru_cache as kept, reduce\n"
        "@functools.cache\ndef a(x): return x\n"
        "@functools.lru_cache(maxsize=16)\ndef b(x): return x\n"
        "c = functools.reduce\n"
        "@memo(8)\ndef d(x): return x\n",
        encoding="utf-8",
    )
    problems = _memo_outside_the_registry(path)
    assert [p.split(" ", 1)[0] for p in problems] == [
        "memos.py:2", "memos.py:3", "memos.py:4", "memos.py:6"
    ]


def _code_runners(path):
    """Where one module calls exec, eval or compile, which only npcc._record
    may: code built from a string hides from the source and its scans."""
    return [
        f"{path.name}:{node.lineno} {node.func.id}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]


def test_only_the_record_base_runs_code_built_from_strings():
    src = Path(npcc.__file__).resolve().parent
    outside = [
        problem
        for path in sorted(src.glob("*.py"))
        if path.name != "_record.py"
        for problem in _code_runners(path)
    ]
    assert outside == []
    assert _code_runners(src / "_record.py") != []  # the scan sees the constructor builder


def test_code_runner_scan_flags_every_call_named(tmp_path):
    path = tmp_path / "runners.py"
    path.write_text(
        "exec('x = 1')\n"
        "y = eval('1 + 1')\n"
        "z = compile('1', '<s>', 'eval')\n"
        "w = re.compile('a')\n"
        "v = evaluate('1')\n",
        encoding="utf-8",
    )
    assert _code_runners(path) == ["runners.py:1 exec", "runners.py:2 eval", "runners.py:3 compile"]


# argparse's undocumented state: any Python release may change it.
ARGPARSE_STATE = {"_actions", "_defaults", "_option_string_actions", "_mutually_exclusive_groups",
                  "_group_actions"}


def _argparse_internals(path):
    """Where one module reads a private argparse name (argparse._X, or
    imports one) or an attribute of argparse's undocumented state."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and (node.attr in ARGPARSE_STATE or (
            node.attr.startswith("_") and isinstance(node.value, ast.Name)
            and node.value.id == "argparse"
        )):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_reads_argparse_internals():
    # The CLI builds argparse from its own command table and reads a
    # plain argv from that table, so it needs none of argparse's state.
    found = [problem for path in sorted(SRC.glob("*.py")) for problem in _argparse_internals(path)]
    assert found == []


def test_argparse_internals_scan_flags_every_form(tmp_path):
    path = tmp_path / "internals.py"
    path.write_text(
        "import argparse\n"
        "kind = argparse._StoreAction\n"
        "from argparse import Namespace, _AppendAction\n"
        "a = parser._actions; b = parser._option_string_actions\n"
        "c = parser._mutually_exclusive_groups[0]._group_actions\n"
        "d = parser._defaults\n"
        "ok = argparse.Namespace(); parser.set_defaults(x=1); e = record._replace\n",
        encoding="utf-8",
    )
    assert sorted(_argparse_internals(path)) == [
        "internals.py:2 _StoreAction", "internals.py:3 _AppendAction", "internals.py:4 _actions",
        "internals.py:4 _option_string_actions", "internals.py:5 _group_actions",
        "internals.py:5 _mutually_exclusive_groups", "internals.py:6 _defaults",
    ]


def _grid_reads(path):
    """Where one module reads an orbit polygon's scaled grid or its scale."""
    return [
        f"{path.name}:{node.lineno} {node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in {"_grid", "_scale"}
    ]


def test_the_kottwitz_factor_path_reads_no_grid():
    # A factor is searched, sorted, checked and counted from its (rise,
    # width) pairs, so no grid of G + 1 values is built per candidate.
    assert _grid_reads(SRC / "strata.py") == []
    assert _grid_reads(SRC / "muord.py") != []  # the scan sees the grid where it is kept


def test_grid_scan_flags_every_read(tmp_path):
    path = tmp_path / "grids.py"
    path.write_text(
        "a = q._grid[0]\n"
        "b = (q._scale, p._pairs)\n"
        "self._grid, self._scale = grid, scale\n"
        "c = q.grid; d = q._grids; e = _scale; f = q.scale\n",
        encoding="utf-8",
    )
    assert sorted(_grid_reads(path)) == [
        "grids.py:1 _grid", "grids.py:2 _scale", "grids.py:3 _grid", "grids.py:3 _scale",
    ]


@pytest.mark.parametrize("bound", [None, 0, 1.5, True])
def test_a_memo_needs_a_positive_int_bound(bound):
    # A memo without a bound grows with every distinct input a long run
    # sees; memo() refuses one when its module is imported.
    with pytest.raises(ValueError, match="positive int bound"):
        _memo.memo(bound)
    with pytest.raises(ValueError, match="positive int bound"):
        _memo.WeighedMemo("npcc.unregistered", bound)
    assert "npcc.unregistered" not in _memo.info()


MEMOS = {
    "npcc.cli._build_parser", "npcc.catalog.moonen_families", "npcc.monodromy.signature",
    "npcc.orbits._decompose", "npcc.muord._orbit_table", "npcc.muord._assemble",
    "npcc.clutch.clutch_report", "npcc.strata._FACTORS",
}
G1, G2 = MonodromyDatum(4, (1, 1, 2)), MonodromyDatum(8, (4, 2, 5, 5))


def _warm():
    npcc.cli._build_parser()
    npcc.moonen_families()
    kottwitz_set(G2, 7)
    mu_ordinary(G2, 7)
    clutch_report(G1, G2, 7)


def test_the_registry_holds_every_memo_and_clear_empties_them():
    _warm()
    info = _memo.info()
    assert set(info) == MEMOS
    assert all(kept.currsize > 0 for kept in info.values()), info
    for name, kept in _memo._MEMOS.items():
        module, _, attribute = name.rpartition(".")
        assert getattr(importlib.import_module(module), attribute) is kept, name
    _memo.clear()
    assert all(kept[:2] == (0, 0) and kept.currsize == 0 for kept in _memo.info().values())


@pytest.mark.parametrize(
    "name, call",
    [
        ("npcc.strata._FACTORS", lambda: kottwitz_set(MonodromyDatum(7, (1, 1, 5)), 3)),
        ("npcc.clutch.clutch_report", lambda: clutch_report(G1, G2, 7)),
    ],
)
def test_the_registry_counts_a_repeated_call_as_a_miss_then_a_hit(name, call):
    _memo.clear()
    call()  # one factor, or one joint
    assert _memo.info()[name][:2] == (0, 1)
    call()
    assert _memo.info()[name][:2] == (1, 1)
