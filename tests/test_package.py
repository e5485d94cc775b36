"""The package's exports: what `npcc` names, and what the tests import."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from memos import clear_memos

import npcc

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


def _memo_problems(path):
    """Unbounded or unsized memos in one module, and its count of sized ones."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    problems, sized = [], 0
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = sorted({a.name for a in node.names} & {"cache", "lru_cache"})
            if names:
                problems.append(f"{where} imports {names} by name")
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            continue
        if node.attr == "cache":
            problems.append(f"{where} functools.cache has no bound")
        elif node.attr == "lru_cache":
            call = calls.get(id(node))
            given = [] if call is None else [
                k.value for k in call.keywords if k.arg == "maxsize"
            ] + call.args[:1]
            size = given[0].value if given and isinstance(given[0], ast.Constant) else None
            if type(size) is int:
                sized += 1
            else:
                problems.append(f"{where} lru_cache without an integer maxsize")
    return problems, sized


def test_library_memos_are_bounded():
    # A memo without a bound grows with every distinct input a long run
    # sees, so each is a functools.lru_cache with an integer maxsize.
    src = Path(npcc.__file__).resolve().parent
    problems, sized = [], 0
    for path in sorted(src.glob("*.py")):
        found, count = _memo_problems(path)
        problems += found
        sized += count
    assert problems == []
    assert sized >= 4


def test_the_memo_helper_clears_every_memo_of_the_sources():
    # a memo the helper cannot reach would hide an injected fault
    src = Path(npcc.__file__).resolve().parent
    sized = sum(_memo_problems(path)[1] for path in src.glob("*.py"))
    assert len(clear_memos()) == sized


def test_memo_scan_flags_unbounded_and_unsized_memos(tmp_path):
    path = tmp_path / "memos.py"
    path.write_text(
        "import functools\n"
        "from functools import cache\n"
        "@functools.cache\ndef a(x): return x\n"
        "@functools.lru_cache(maxsize=None)\ndef b(x): return x\n"
        "@functools.lru_cache\ndef c(x): return x\n"
        "@functools.lru_cache()\ndef d(x): return x\n"
        "@functools.lru_cache(8)\ndef e(x): return x\n"
        "@functools.lru_cache(maxsize=16)\ndef f(x): return x\n",
        encoding="utf-8",
    )
    problems, sized = _memo_problems(path)
    assert {p.split(" ", 1)[0] for p in problems} == {
        "memos.py:2", "memos.py:3", "memos.py:5", "memos.py:7", "memos.py:9"
    }
    assert sized == 2
