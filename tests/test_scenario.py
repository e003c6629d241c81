"""Tests for the scenario document format and the builtin experiments."""

import dataclasses
import math

import pytest

from gravjcm.scenario import (
    HALF_REVIVAL_LAMT,
    Scenario,
    ScenarioError,
    TimeSpec,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
)


def fields_except_provenance(sc):
    return {
        f.name: getattr(sc, f.name)
        for f in dataclasses.fields(sc)
        if f.name != "provenance"
    }


def test_empty_document_gives_full_defaults():
    sc = parse_scenario("")
    assert sc.params.delta0 == 8.5e7
    assert sc.params.lam == 1e6
    assert sc.params.alpha == 5.0 + 0.0j
    assert sc.qg_list == (0.0, 0.5e7, 1.5e7)
    assert sc.time_spec == TimeSpec(0.0, 25.0, 2000)
    assert sc.backend == "ode"
    assert sc.n_nodes == 32
    # every key was default-filled and recorded
    assert "delta0" in sc.provenance
    assert "qg" in sc.provenance


def test_single_override_recorded():
    sc = parse_scenario("qg = 1.5e7\n")
    assert sc.qg_list == (1.5e7,)
    assert "qg" not in sc.provenance
    assert "delta0" in sc.provenance


def test_comments_and_blank_lines():
    sc = parse_scenario("# a comment\n\nn_nodes = 8  # trailing note\n")
    assert sc.n_nodes == 8


def test_unknown_key_is_hard_error():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("n_nodse = 8\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("n_nodes = 8\nn_nodes = 16\n")


def test_malformed_line_reports_location():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("n_nodes = 8\nnot a kv line\n")


def test_bad_number_rejected():
    for text in ("delta0 = eight\n", "literal_paper_mode = maybe\n",
                 "t_end = nan\n", "lam = inf\n", "delta0 = nan\n",
                 "sigma0 = inf\n", "ode_tol = nan\n", "nmax = inf\n",
                 "n_samples = 2.7\n", "qgrid.n = 201.5\n",
                 "qg = 0, nan\n", "qg = inf\n", "qg = 0, abc\n"):
        with pytest.raises(ScenarioError):
            parse_scenario(text)
    # an integral count may still be written in float notation
    assert parse_scenario("n_samples = 2e3\n").time_spec.n_samples == 2000


def test_time_spec_invariants():
    with pytest.raises(ScenarioError, match="t_end"):
        parse_scenario("t_end = -1\n")
    with pytest.raises(ScenarioError):
        parse_scenario("t_start = 5\nt_end = 5\nn_samples = 3\n")
    with pytest.raises(ScenarioError):
        parse_scenario("n_samples = 1\n")
    sc = parse_scenario("t_start = 5\nt_end = 5\nn_samples = 1\n")
    assert sc.times_scaled().tolist() == [5.0]


def test_validation_errors():
    with pytest.raises(ScenarioError, match="backend"):
        parse_scenario("backend = euler\n")
    with pytest.raises(ScenarioError, match="outputs"):
        parse_scenario("outputs = inversion, wigner\n")
    with pytest.raises(ScenarioError):
        parse_scenario("qg = -1e7\n")
    with pytest.raises(ScenarioError):
        parse_scenario("n_nodes = 0\n")


def test_round_trip_canonical_form():
    for name in ("fig1", "fig2", "fig3"):
        sc = builtin_scenario(name)
        text = serialize_scenario(sc)
        sc2 = parse_scenario(text)
        assert fields_except_provenance(sc2) == fields_except_provenance(sc)
        # canonical-form idempotence at the text level
        assert serialize_scenario(sc2) == text


def test_time_conversion_single_point():
    sc = builtin_scenario("fig3")
    ts = sc.times_seconds()
    assert ts.shape == (1,)
    assert ts[0] == pytest.approx(7.0 * math.pi / (2.0 * 1e6), rel=1e-14)


def test_builtin_fig1():
    sc = builtin_scenario("fig1")
    assert sc.outputs == ("inversion",)
    assert sc.qg_list == (0.0, 0.5e7, 1.5e7)
    assert sc.time_spec == TimeSpec(0.0, 25.0, 2000)
    assert sc.params.delta0 == 8.5e7


def test_builtin_fig2():
    sc = builtin_scenario("fig2")
    assert sc.outputs == ("entropy",)
    assert sc.time_spec.n_samples == 2000


def test_builtin_fig3():
    sc = builtin_scenario("fig3")
    assert sc.outputs == ("qgrid", "cat_report")
    assert sc.time_spec.t_start == pytest.approx(HALF_REVIVAL_LAMT)
    assert sc.time_spec.n_samples == 1
    assert sc.qgrid_n == 201
    assert sc.qgrid_extent == 9.0


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError, match="fig9"):
        builtin_scenario("fig9")


def test_params_for_swaps_gravity_only():
    sc = builtin_scenario("fig1")
    p = sc.params_for(1.5e7)
    assert p.qg == 1.5e7
    assert p.delta0 == sc.params.delta0
