"""Chart document validation."""

import json

import pytest

from rwcert import catalog
from rwcert.chart import ChartError, chart_from_dict, load_chart


def _doc(**overrides):
    doc = json.loads(catalog.get_entry("flrw_flat_linear").source)
    doc.update(overrides)
    return doc


def test_shipped_flrw_round_trips():
    entry = catalog.get_entry("flrw_flat_linear")
    chart = load_chart(entry.source)
    assert chart.dim == 4
    assert chart.coords == ("t", "x", "y", "z")
    assert chart.name == "flrw_flat_linear"


def test_every_catalog_entry_loads():
    for entry in catalog.list_catalog():
        chart = load_chart(entry.source)
        assert chart.dim == 4


def test_symmetry_violation_reports_indices():
    doc = _doc()
    doc["metric"][0][1] = "t"
    doc["metric"][1][0] = "2*t"
    with pytest.raises(ChartError, match=r"\(0,1\)"):
        chart_from_dict(doc)


def test_matching_offdiagonal_entries_accepted():
    doc = _doc()
    doc["metric"][0][1] = "t"
    doc["metric"][1][0] = "t"
    chart = chart_from_dict(doc)
    assert chart.metric[0][1] == chart.metric[1][0]


def test_mirrored_entry_fills_null_side():
    doc = _doc()
    doc["metric"][0][1] = "3*t"
    doc["metric"][1][0] = None
    chart = chart_from_dict(doc)
    assert chart.metric[1][0] == chart.metric[0][1]
    assert chart.metric_text[1][0] == "3*t"


def test_fully_omitted_pair_defaults_to_zero():
    chart = chart_from_dict(_doc())
    assert chart.metric_text[0][2] == "0"


def test_u_component_count_must_match_dim():
    doc = _doc(u=["1", "0", "0"])
    with pytest.raises(ChartError, match="3"):
        chart_from_dict(doc)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ChartError, match="unknown chart fields"):
        chart_from_dict(_doc(flavor="spicy"))


def test_missing_section_rejected():
    doc = _doc()
    del doc["domain"]
    with pytest.raises(ChartError, match="missing chart field 'domain'"):
        chart_from_dict(doc)


def test_degenerate_domain_rejected():
    doc = _doc()
    doc["domain"][1] = [1.0, 1.0]
    with pytest.raises(ChartError, match="degenerate"):
        chart_from_dict(doc)


def test_dim_out_of_range():
    for dim in (1, 9):
        doc = _doc(dim=dim)
        with pytest.raises(ChartError):
            chart_from_dict(doc)


def test_coordinate_shadowing_builtin_rejected():
    doc = _doc(coords=["sin", "x", "y", "z"])
    with pytest.raises(ChartError, match="shadow"):
        chart_from_dict(doc)


def test_param_must_be_number():
    doc = _doc(params={"M": "one"})
    with pytest.raises(ChartError, match="number"):
        chart_from_dict(doc)


def test_expression_with_undeclared_name_rejected():
    doc = _doc()
    doc["metric"][1][1] = "w^2"
    with pytest.raises(ChartError, match="metric\\[1\\]\\[1\\]"):
        chart_from_dict(doc)


def test_normalize_u_option():
    doc = _doc(options={"normalize_u": True})
    assert chart_from_dict(doc).normalize_u
    with pytest.raises(ChartError, match="unknown options"):
        chart_from_dict(_doc(options={"polish": True}))


def test_not_json_is_a_chart_error():
    with pytest.raises(ChartError, match="not valid JSON"):
        load_chart("{oops")


def test_contains_respects_domain():
    chart = chart_from_dict(_doc())
    assert chart.contains([2.0, 0.0, 0.0, 0.0])
    assert not chart.contains([0.5, 0.0, 0.0, 0.0])


def test_contains_rejects_non_finite():
    chart = chart_from_dict(_doc())
    for bad in (float("nan"), float("inf"), -float("inf")):
        assert not chart.contains([2.0, bad, 0.0, 0.0])
        assert not chart.contains([bad, 0.0, 0.0, 0.0])
