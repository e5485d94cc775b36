"""The library's own paths build no Fraction.

Polygons are held as ints, and a `Fraction` is built only where one is
handed out (`NewtonPolygon.segments` and `degree`, and the witness
slopes of `compatible_violations`).  These runs ask for none of those,
so they build none.
"""

import json
from fractions import Fraction

import pytest

import npcc._memo as _memo
from npcc import (
    MonodromyDatum,
    extend_ord,
    kottwitz_set,
    pad_and_clutch,
    parse,
    payload_base,
    replay,
    self_clutch,
    verify_family,
)
from npcc.cli import main
from test_kottwitz_oracle import _seeded_sets


def _moonen_verify_all(capsys):
    assert main(["moonen", "--verify-all"]) == 0
    assert capsys.readouterr().out.endswith("all ok\n")


def _kottwitz_reports(capsys):
    for datum, p in _seeded_sets():
        ks = kottwitz_set(datum, p)
        for t in ks.totals():
            assert ks.elements_with_total(t)
            ks.codim_of_polygon(t)


def _chain_built_replayed_and_verified(capsys):
    f = payload_base(MonodromyDatum(4, (1, 2, 2, 3)), 3, parse("ss^2"))
    g = pad_and_clutch(extend_ord(self_clutch(f, 2), 1), 1, 2)
    back = replay(json.loads(json.dumps(g.certificate())))
    assert verify_family(back, deep=True)["ok"]


@pytest.mark.parametrize(
    "run", [_moonen_verify_all, _kottwitz_reports, _chain_built_replayed_and_verified]
)
def test_library_paths_build_no_fraction(monkeypatch, capsys, run):
    made = 0
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    _memo.clear()  # every factor enumerated afresh
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 3)
    assert made == 1  # the count sees every construction
    made = 0
    run(capsys)
    assert made == 0
