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

EXPORTS = """
AsymmetricPolygonError BadResidueError DomainError
EndpointMismatchError EnumerationCapError GeneratorError InconsistentSignatureError
InvalidDatumError NotABaseCaseError NotAdmissibleError PolygonSyntaxError
UnsupportedPairError EMPTY ORD SS NewtonPolygon parse MonodromyDatum Signature genus
induce normalize pad_first pad_last signature strip_zeros Orbit OrbitDecomposition
decompose g_of_orbit OrbitPolygon beta_of_signature mu_ordinary mu_ordinary_of_signature
mu_ordinary_orbit p_rank_bound DEFAULT_ENUM_CAP ConditionUReport KottwitzSet condition_u dim_moduli enumerate_orbit_component kottwitz_set
omega_count threshold_half_slope_density
threshold_repeated_summand threshold_ss_chain ClutchReport MuOrdProductCheck
check_admissible check_balanced check_compatible clutch_data
clutch_polygon clutch_report compatible_violations epsilon_orbits
find_admissible_reordering mu_ord_product_check pad_pair reorder_at CertifiedFamily
base_case double_induction extend_ord pad_and_clutch payload_base replay self_clutch
verify_family MoonenFamily MoonenRow moonen_base moonen_families moonen_family
moonen_payload reproduce_appendix reproduce_applications worked_clutch_example
__version__
""".split()


def test_exports_are_listed_once_and_resolve():
    assert len(EXPORTS) == 80
    assert len(npcc.__all__) == len(set(npcc.__all__))
    assert set(npcc.__all__) == set(EXPORTS) | {"CertificationError"}
    for name in npcc.__all__:
        assert hasattr(npcc, name), name


def _loaded_at_startup(names, *flags):
    """Those of names that `import npcc; npcc.moonen_families()` loads in a fresh interpreter."""
    src = str(Path(npcc.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import npcc; npcc.moonen_families();"
        f" print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_startup_loads_no_dataclass_or_inspect_machinery():
    # Every CLI call pays for what `import npcc` loads; the records are
    # plain classes, so neither module is needed to start.
    assert _loaded_at_startup({"dataclasses", "inspect"}) == "[]"


def test_startup_without_site_loads_no_resources_or_typing_machinery():
    # -S keeps site from loading modules first, so each module listed
    # would show up here if npcc itself loaded it.
    heavy = {"importlib.resources", "typing", "dataclasses", "inspect"}
    assert _loaded_at_startup(heavy, "-S") == "[]"


def test_names_the_tests_import_resolve():
    imported = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("npcc"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert ("npcc", "MonodromyDatum") in imported and ("npcc.cli", "main") in imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may be one.
    src = Path(npcc.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) >= 10
    assert found == []


def test_benchmark_traced_names_resolve():
    # The benchmark's tracer wraps these by name; a rename would leave
    # a traced layer silently empty.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert "strata.length" in spans.TARGETS
    for span, (module, attribute) in spans.TARGETS.items():
        owner = importlib.import_module(module)
        for name in attribute.split("."):
            assert hasattr(owner, name), f"{span}: {module}.{attribute}"
            owner = getattr(owner, name)
        assert callable(owner), span


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
