"""Every defensive check can fire.

No valid input reaches these raises: each cross-checks two computations
that agree on every input.  So each test breaks the one value its check
compares, by monkeypatch, and expects the named error.
"""

from fractions import Fraction

import pytest

import npcc._memo as _memo
import npcc.catalog as catalog
import npcc.clutch as clutch
import npcc.generators as generators
import npcc.monodromy as monodromy
import npcc.strata as strata
from npcc import (
    AsymmetricPolygonError,
    CertificationError,
    DomainError,
    InvalidDatumError,
    MonodromyDatum,
    OrbitPolygon,
    base_case,
    decompose,
    kottwitz_set,
    mu_ordinary_orbit,
    pad_and_clutch,
    signature,
)

# The worked pair: at class 7 every orbit mod 8 is self-dual, and on
# {1,7} the first component is <1x1> inside the second's span <0x1, 2x1>.
G1 = MonodromyDatum(4, (1, 1, 2))
G2 = MonodromyDatum(8, (4, 2, 5, 5))


@pytest.fixture(autouse=True)
def _cold_memos():
    # A kept answer would skip the broken code; a broken one must not outlive its test.
    _memo.clear()
    yield
    _memo.clear()


def _off_by_one(monkeypatch, module, name):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1)


def _swap_orbit_component(monkeypatch, pairs, new_pairs):
    """The orbit tables as clutch reads them, with pairs replaced by new_pairs."""
    real = clutch._orbit_table

    def swapped(f, p_class):
        return {
            orbit: new_pairs if comp == pairs else comp
            for orbit, comp in real(f, p_class).items()
        }

    monkeypatch.setattr(clutch, "_orbit_table", swapped)


def test_branch_orders_that_disagree_with_the_split_are_refused(monkeypatch):
    _off_by_one(monkeypatch, clutch, "_gcd_m")  # r1 = 3, r2 = 5 against d1 = 2, d2 = 1
    with pytest.raises(DomainError, match="^branch-order bookkeeping broke$"):
        clutch.clutch_data(G1, G2)


def test_a_negative_defect_is_refused(monkeypatch):
    # Branch orders of 0 pass the bookkeeping (0 = 0 = 0) and give
    # epsilon = 1 - d1 - d2 = -2.
    monkeypatch.setattr(clutch, "_gcd_m", lambda value, m: 0)
    with pytest.raises(DomainError, match="^defect must be nonnegative$"):
        clutch.clutch_data(G1, G2)


def test_a_genus_recursion_off_riemann_hurwitz_is_refused(monkeypatch):
    _off_by_one(monkeypatch, clutch, "genus")
    with pytest.raises(DomainError, match="^genus recursion disagrees with Riemann-Hurwitz$"):
        clutch.clutch_data(G1, G2)


def test_a_glued_signature_off_chevalley_weil_is_refused(monkeypatch):
    # Without a residue no orbit defect reads the terms; f3 itself is checked.
    real = clutch._defect_terms

    def one_term_zeroed(*args):
        terms = real(*args)
        terms[next(i for i, t in enumerate(terms) if t)] = 0
        return terms

    monkeypatch.setattr(clutch, "_defect_terms", one_term_zeroed)
    with pytest.raises(DomainError, match="^glued signature disagrees with Chevalley-Weil$"):
        clutch.clutch_report(G1, G2)


def test_an_asymmetric_component_on_a_self_dual_orbit_is_refused(monkeypatch):
    _swap_orbit_component(monkeypatch, ((1, 1),), ((0, 1),))
    with pytest.raises(AsymmetricPolygonError, match="^middle slope of asymmetric "):
        clutch.check_compatible(G1, G2, 7)


def test_a_span_that_contradicts_the_middle_slope_is_refused(monkeypatch):
    # The second component's span loses its symmetry, 0..2 becoming
    # 0..1, so the middle slope 1 lies above its start but not inside it.
    _swap_orbit_component(monkeypatch, ((0, 1), (2, 1)), ((0, 1), (1, 1)))
    with pytest.raises(DomainError, match="^middle-slope characterization disagrees$"):
        clutch.check_compatible(G1, G2, 7)


def test_an_orbit_defect_off_its_divisibility_rule_is_refused(monkeypatch):
    report = clutch.clutch_data(G1, G2)
    real = clutch._defect_terms
    monkeypatch.setattr(clutch, "_defect_terms", lambda *args: [t + 1 for t in real(*args)])
    with pytest.raises(DomainError, match=r"^defect mismatch on orbit \{1,7\}: 0 vs 2$"):
        clutch.epsilon_orbits(report, 7)


def test_a_joint_reported_before_the_fault_is_checked_again_once_the_memos_clear(monkeypatch):
    # The kept report of the joint answers without running the check;
    # with the memos cleared the joint is rebuilt and the check fires.
    report = clutch.clutch_data(G1, G2)
    _off_by_one(monkeypatch, clutch, "genus")
    assert clutch.clutch_data(G1, G2) is report
    _memo.clear()
    with pytest.raises(DomainError, match="^genus recursion disagrees with Riemann-Hurwitz$"):
        clutch.clutch_data(G1, G2)


def test_orbit_defects_off_the_total_are_refused():
    report = clutch.clutch_data(G1, G2)
    wrong = report._replace(epsilon=report.epsilon + 1)
    with pytest.raises(DomainError, match="^orbit defects must sum to the defect$"):
        clutch.epsilon_orbits(wrong, 7)


def test_a_chain_joint_with_another_defect_fails_certification(monkeypatch):
    base = base_case(MonodromyDatum(5, (2, 2, 2, 2, 2)), 4)
    real = generators.clutch_report

    def report_with_one_more_defect(*args, **kwargs):
        report = real(*args, **kwargs)
        return report._replace(epsilon=report.epsilon + 1)

    monkeypatch.setattr(generators, "clutch_report", report_with_one_more_defect)
    with pytest.raises(CertificationError, match="^certification check failed: chain joint "):
        pad_and_clutch(base, 5, 2)


def test_an_odd_riemann_hurwitz_total_is_refused(monkeypatch):
    # sum(a) = 0 mod m keeps (N - 2) m - sum gcd(a_i, m) even for every
    # datum, so only a wrong gcd reaches this: 1 more on each of three
    # entries takes the total 4 to 1.
    datum = MonodromyDatum(7, (1, 1, 5))
    _off_by_one(monkeypatch, monodromy, "_gcd_m")
    with pytest.raises(InvalidDatumError, match="^odd Riemann-Hurwitz total 1 for 7:3:1,1,5$"):
        monodromy.genus(datum)


# At class 2 mod 3 the one orbit {1,2} is self-dual, and its factor is
# the chain <0x1, 1x2, 2x1> < <1/2x2, 3/2x2> < <1x4>, the mu-ordinary
# polygon first.
SIX = MonodromyDatum(3, (1, 1, 1, 1, 1, 1))


def test_a_mu_ordinary_polygon_that_is_not_the_lowest_candidate_is_refused(monkeypatch):
    # On a self-dual orbit only symmetric paths are kept, so an
    # asymmetric lower bound is never found as a candidate itself.
    orbit, f = decompose(3, 2).orbit_of(1), signature(SIX)
    asymmetric = OrbitPolygon(orbit, [(0, 1), (Fraction(4, 3), 3)])
    assert asymmetric.lies_on_or_above(mu_ordinary_orbit(orbit, f))
    monkeypatch.setattr(strata, "_mu_pairs", lambda orbit, f: asymmetric._pairs)
    with pytest.raises(DomainError, match="^mu-ordinary polygon must be the lowest candidate$"):
        strata.enumerate_orbit_component(orbit, f)


def test_chain_lengths_that_put_a_candidate_below_the_top_are_refused(monkeypatch):
    # The search sums each candidate's lattice count one segment share at a time.
    real = strata._ceil_sum
    monkeypatch.setattr(strata, "_ceil_sum", lambda n, scale, a, y: -real(n, scale, a, y))
    with pytest.raises(DomainError, match="^every candidate must lie above the factor top$"):
        kottwitz_set(SIX, 2)


def _reorder_factors(monkeypatch, order):
    real = strata._search
    monkeypatch.setattr(strata, "_search", lambda *args: order(real(*args)))


def test_a_factor_whose_first_candidate_is_not_its_top_is_refused(monkeypatch):
    _reorder_factors(monkeypatch, lambda factor: factor[::-1])
    with pytest.raises(DomainError, match="^top must be maximum$"):
        kottwitz_set(SIX, 2)


def test_a_factor_whose_last_candidate_is_not_its_bottom_is_refused(monkeypatch):
    # The top stays first, so only the bottom check can fire.
    _reorder_factors(monkeypatch, lambda factor: factor[:1] + factor[:0:-1])
    with pytest.raises(DomainError, match="^bottom must be minimum$"):
        kottwitz_set(SIX, 2)


M1 = "M[1] | 2 | 1,1,1,1 | 1 | 1 | ord ; ss | 0;0"
M3 = "M[3] | 3 | 1,1,2,2 | 1,1 | 1 | ss^2 | 0"


@pytest.mark.parametrize(
    "line, corrupt, message",
    [
        (M1, "M[1] | 2 | 1,1,1,1 | 1 | 1 | ord ; ss", "malformed table line: "),
        (M1, "M[1] | 2 | 1,1,1,1 | 1 | 1 | ord ; ss | 0", "polygon/flag count mismatch on line: "),
        (M3, "M[3] | 3 | 2,2,1,1 | 1,1 | 1 | ss^2 | 0", r"inconsistent rows for M\[3\]$"),
        (M1, "M[1] | 2 | 1,1,1,1 | 1,0 | 1 | ord ; ss | 0;0", r"M\[1\] signature has wrong length$"),
        (M1, "M[1] | 2 | 1,1,1,1 | 1 | 1 | ord ; ss^2 | 0;0",
         r"M\[1\] lists polygon ss\^2 which is not symmetric of genus 1$"),
    ],
    ids=["fields", "flags", "rows", "signature", "polygon"],
)
def test_a_corrupt_family_table_is_refused(monkeypatch, tmp_path, line, corrupt, message):
    with open(catalog._TABLE_PATH, encoding="utf-8") as real:
        table = real.read()
    assert table.count(line + "\n") == 1
    (tmp_path / "moonen.txt").write_text(table.replace(line, corrupt), "utf-8")
    monkeypatch.setattr(catalog, "_TABLE_PATH", str(tmp_path / "moonen.txt"))
    with pytest.raises(DomainError, match="^" + message):
        catalog.moonen_families.__wrapped__()  # past the cache of the real table
