"""The package's exports: what `npcc` names, and what the tests import."""

import ast
import importlib
import importlib.util
from pathlib import Path

import npcc

EXPORTS = """
AsymmetricPolygonError BadResidueError DomainError EmptyPolygonError
EndpointMismatchError EnumerationCapError GeneratorError InconsistentSignatureError
InvalidDatumError NotABaseCaseError NotAdmissibleError PolygonSyntaxError
UnsupportedPairError EMPTY ORD SS NewtonPolygon parse MonodromyDatum Signature genus
induce normalize pad_first pad_last signature strip_zeros Orbit OrbitDecomposition
decompose g_of_orbit OrbitPolygon beta_of_signature mu_ordinary mu_ordinary_of_signature
mu_ordinary_orbit p_rank_bound DEFAULT_ENUM_CAP ConditionUReport KottwitzSet condition_u dim_moduli enumerate_orbit_component kottwitz_set
omega_count threshold_half_slope_density
threshold_repeated_summand threshold_ss_chain ClutchReport MuOrdProductCheck
check_admissible check_balanced check_compatible check_self_compatible clutch_data
clutch_polygon clutch_report compatible_violations epsilon_orbits
find_admissible_reordering mu_ord_product_check pad_pair reorder_at CertifiedFamily
base_case double_induction extend_ord pad_and_clutch payload_base replay self_clutch
verify_family MoonenFamily MoonenRow moonen_base moonen_families moonen_family
moonen_payload reproduce_appendix reproduce_applications worked_clutch_example
__version__
""".split()


def test_exports_are_listed_once_and_resolve():
    assert len(EXPORTS) == 82
    assert len(npcc.__all__) == len(set(npcc.__all__))
    assert set(npcc.__all__) == set(EXPORTS) | {"CertificationError"}
    for name in npcc.__all__:
        assert hasattr(npcc, name), name


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
