"""Tests for the scenario document format and the builtin experiments."""

import dataclasses
import math
import numbers
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravjcm.scenario import (
    FIG3_LAMT,
    KEYS,
    SNAPSHOT_OUTPUTS,
    VALID_BACKENDS,
    VALID_OUTPUTS,
    Scenario,
    ScenarioError,
    builtin_scenario,
    parse_scenario,
    qg_token,
    serialize_scenario,
)


def fields_except_provenance(sc):
    return {
        f.name: getattr(sc, f.name)
        for f in dataclasses.fields(sc)
        if f.name != "provenance"
    }


def time_fields(sc):
    return (sc.t_start, sc.t_end, sc.n_samples)


def test_empty_document_gives_full_defaults():
    sc = parse_scenario("")
    assert sc.delta0 == 8.5e7
    assert sc.lam == 1e6
    assert sc.alpha == 5.0 + 0.0j
    assert sc.qg_list == (0.0, 0.5e7, 1.5e7)
    assert time_fields(sc) == (0.0, 25.0, 2000)
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
    for text in ("delta0 = eight\n", "t_end = nan\n", "lam = inf\n", "delta0 = nan\n",
                 "sigma0 = inf\n",
                 "n_samples = 2.7\n", "qgrid.n = 201.5\n",
                 "qg = 0, nan\n", "qg = inf\n", "qg = 0, abc\n",
                 "omega_rec = 0\n", "omega_rec = -5e5\n"):
        with pytest.raises(ScenarioError):
            parse_scenario(text)
    # |alpha|^2 overflows, or alpha is not finite: the error names the key
    for text in ("alpha = 1e200\n", "alpha = nan\n"):
        with pytest.raises(ScenarioError, match="alpha"):
            parse_scenario(text)
    with pytest.raises(ScenarioError, match="sigma0"):
        parse_scenario("sigma0 = -1\n")
    # the wavenumber acts only through omega_rec and qg; it is not a key
    with pytest.raises(ScenarioError, match="unknown key 'q'"):
        parse_scenario("q = 1e7\n")
    # the Fock cutoff is always derived from alpha; it is not a key
    with pytest.raises(ScenarioError, match="unknown key 'nmax'"):
        parse_scenario("nmax = 100\n")
    # the ode step-control target is a constant, ode.TOL; it is not a key
    with pytest.raises(ScenarioError, match="unknown key 'ode_tol'"):
        parse_scenario("ode_tol = 1e-10\n")
    # an integral count may still be written in float notation
    assert parse_scenario("n_samples = 2e3\n").n_samples == 2000


def test_time_spec_invariants():
    with pytest.raises(ScenarioError, match="t_end"):
        parse_scenario("t_end = -1\n")
    with pytest.raises(ScenarioError):
        parse_scenario("t_start = 5\nt_end = 5\nn_samples = 3\n")
    with pytest.raises(ScenarioError):
        parse_scenario("n_samples = 1\n")
    sc = parse_scenario("t_start = 5\nt_end = 5\nn_samples = 1\n")
    assert sc.times_scaled().tolist() == [5.0]


def test_negative_zero_reads_as_zero():
    # -0 would name files qgm0, print qg=-0 and write -0 as the first lambda_t
    sc = parse_scenario("qg = -0, 1.5e7\nt_start = -0\ndelta0 = -0.0\n")
    assert [math.copysign(1.0, v) for v in (*sc.qg_list, sc.t_start, sc.delta0)] == [1.0] * 4
    assert qg_token(sc.qg_list[0]) == "qg0"
    assert "%.17g" % sc.times_scaled()[0] == "0"
    text = serialize_scenario(sc)
    assert "\nqg = 0.0, 15000000.0\n" in text and "\nt_start = 0.0\n" in text


def read_values(key, text):
    """KEYS[key]'s reader applied to text, as a tuple: a list's values, or the one value."""
    _, _, read, _ = KEYS[key]
    value = read(key, text)
    return value if isinstance(value, tuple) else (value,)


def test_every_numeric_key_reads_one_rule():
    # every key whose reader is numeric, a key added later included: -0 reads as +0,
    # in each part of a complex, and nan or inf is refused as not finite
    keys = [k for k in KEYS if all(isinstance(v, numbers.Number) for v in read_values(k, "1"))]
    assert {"omega_rec", "lam", "delta0", "sigma0", "alpha", "qg", "t_start", "t_end",
            "n_samples", "qgrid.extent", "qgrid.n", "n_nodes"} <= set(keys)
    for key in keys:
        parts = [x for v in read_values(key, "-0") for x in (complex(v).real, complex(v).imag)]
        assert [math.copysign(1.0, x) for x in parts] == [1.0] * len(parts), key
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ScenarioError, match=re.escape(f"key {key!r}: not finite")):
                read_values(key, text)


def test_alpha_syntax_and_list_entry_errors():
    # the imaginary unit is a trailing i or j, after the real part
    read = KEYS["alpha"][2]
    assert [read("alpha", t) for t in ("3+4i", "2i", "5j", "-1.5", "1e-3-2e-3i")] == [
        3 + 4j, 2j, 5j, -1.5, 1e-3 - 2e-3j]
    for text in ("4i+3", "3+4ii", "3+4k"):
        with pytest.raises(ScenarioError, match=re.escape(f"not a number ({text!r})")):
            read("alpha", text)
    # the error quotes the text as written, and a list's error the bad entry alone
    with pytest.raises(ScenarioError, match=re.escape("key 'alpha': not finite ('-infi')")):
        parse_scenario("alpha = -infi\n")
    with pytest.raises(ScenarioError, match=re.escape("key 'qg': not a number ('x')")):
        parse_scenario("qg = 1e7, x\n")
    with pytest.raises(ScenarioError, match=re.escape("key 'qg': not finite ('inf')")):
        parse_scenario("qg = 1e7, inf\n")
    sc = parse_scenario("alpha = -0\nt_end = 1\nn_samples = 5\n")
    assert "\nalpha = 0.0\n" in serialize_scenario(sc)


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
    assert time_fields(sc) == (0.0, 25.0, 2000)
    assert sc.delta0 == 8.5e7


def test_builtin_fig2():
    sc = builtin_scenario("fig2")
    assert sc.outputs == ("entropy",)
    assert sc.n_samples == 2000


def test_builtin_fig3():
    sc = builtin_scenario("fig3")
    assert sc.outputs == ("qgrid", "cat_report")
    assert sc.t_start == pytest.approx(FIG3_LAMT)
    assert sc.n_samples == 1
    assert sc.qgrid_n == 201
    assert sc.qgrid_extent == 9.0


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError, match="fig9"):
        builtin_scenario("fig9")


def test_params_for_swaps_gravity_only():
    sc = builtin_scenario("fig1")
    p = sc.params_for(1.5e7)
    assert p.qg == 1.5e7
    assert p.delta0 == sc.delta0


def finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


STEM = st.text("abcXYZ019_-.", min_size=1, max_size=12).filter(
    lambda s: not s.startswith(".")
)


@st.composite
def valid_scenarios(draw):
    """Scenarios that satisfy every rule, with nothing left to defaults."""
    alpha = complex(draw(finite(-6, 6)), draw(finite(-6, 6)))
    qg_list = tuple(draw(st.lists(finite(0, 1e14), min_size=1, max_size=4,
                                  unique_by=qg_token)))
    outputs = tuple(draw(st.lists(st.sampled_from(VALID_OUTPUTS), min_size=1,
                                  unique=True)))
    # the cat ansatz n w_n has no norm where |alpha| underflows, as at 0
    assume("cat_report" not in outputs or abs(alpha) > 1e-150)
    snapshot = bool(set(SNAPSHOT_OUTPUTS) & set(outputs))
    t_start = draw(finite(0, 100))
    if snapshot or draw(st.booleans()):
        t_end, n_samples = t_start, 1
    else:
        t_end, n_samples = t_start + draw(finite(1e-3, 100)), draw(st.integers(2, 5000))
    return Scenario(
        name=draw(STEM),
        alpha=alpha,
        omega_rec=draw(finite(1e3, 1e9)), lam=draw(finite(1e3, 1e9)),
        delta0=draw(finite(-1e9, 1e9)), sigma0=draw(finite(1e-3, 10)),
        qg_list=qg_list,
        t_start=t_start, t_end=t_end, n_samples=n_samples,
        backend=draw(st.sampled_from(VALID_BACKENDS)),
        outputs=outputs,
        qgrid_extent=abs(alpha) + 4.0 + draw(finite(0, 20)),
        qgrid_n=draw(st.integers(3, 1000)),
        n_nodes=draw(st.integers(1, 200)),
    )


@settings(deadline=None)
@given(valid_scenarios())
def test_round_trip_generated_scenarios(sc):
    # a serialized document sets every key, so provenance is empty on both sides
    assert parse_scenario(serialize_scenario(sc)) == sc


ALPHA_AND_SMALL_EXTENT = finite(0, 6).flatmap(
    lambda a: st.tuples(st.just(a), finite(0, a + 4.0, exclude_min=True,
                                           exclude_max=True))
)

# rule -> (generator of a document that breaks only that rule, error pattern)
INVALID = {
    # n w_n has no norm at alpha = 0, and |alpha|^2 underflows below ~1e-162
    "cat_ansatz_norm": (
        finite(0, 1e-170).map(lambda a: f"alpha = {a!r}\noutputs = cat_report\n"
                                        "t_end = 0\nn_samples = 1\n"),
        "ansatz",
    ),
    "q_window": (
        st.tuples(ALPHA_AND_SMALL_EXTENT,
                  st.sampled_from(["qgrid", "cat_report", "qgrid, cat_report"])).map(
            lambda a: f"alpha = {a[0][0]!r}\nqgrid.extent = {a[0][1]!r}\n"
                      f"outputs = {a[1]}\nt_end = 0\nn_samples = 1\n"),
        "qgrid.extent",
    ),
    "single_instant": (
        st.tuples(st.integers(2, 5000),
                  st.sampled_from(["qgrid", "cat_report", "inversion, cat_report"])).map(
            lambda a: f"n_samples = {a[0]}\noutputs = {a[1]}\n"),
        "single-instant",
    ),
    "name_is_stem": (
        st.one_of(st.tuples(STEM, st.sampled_from("/\\\0"), STEM).map("".join),
                  STEM.map(".{}".format)).map("name = {}\n".format),
        "name",
    ),
    # the chirped phase passes 2^52 rad within lam*t = 1 (a microsecond), on either sign
    "detuning_phase": (
        st.tuples(finite(4.6e21, 1.7e308), st.sampled_from([1.0, -1.0])).map(
            lambda a: f"delta0 = {a[0] * a[1]!r}\nt_end = 1\nn_samples = 5\nn_nodes = 2\n"),
        "detuning phase",
    ),
    "qg_tags_distinct": (
        finite(0, 1e14).map(lambda v: f"qg = {v!r}, {float('%g' % v)!r}\n"),
        "distinct",
    ),
}


@pytest.mark.parametrize("rule", sorted(INVALID))
@settings(deadline=None)
@given(data=st.data())
def test_each_rule_rejects_generated_invalid_values(rule, data):
    strategy, pattern = INVALID[rule]
    with pytest.raises(ScenarioError, match=pattern):
        parse_scenario(data.draw(strategy))


def readme_key_defaults():
    """The README key table as {key: default text}; a row may list several keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    defaults = {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        keys = re.findall(r"`([^`]+)`", cells[1])
        texts = re.findall(r"`([^`]+)`", cells[2])
        assert len(keys) == len(texts), row
        defaults.update(zip(keys, texts))
    return defaults


def test_readme_key_table_lists_every_key():
    assert set(readme_key_defaults()) == set(KEYS)


def test_readme_key_table_states_every_default():
    # each README default, read as that key's value, is the default a parse fills in
    for key, text in readme_key_defaults().items():
        _, default, read, _ = KEYS[key]
        assert read(key, text) == read(key, default), key
