import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlock import (
    AfcSpec,
    ChainNode,
    CombModel,
    ParameterError,
    afc_budget,
    aom_double_pass,
    comb_beat,
    pdc_degenerate,
    sfg,
    shg,
)
from offsetlock.chain import evaluate_chain

from conftest import nested

L1514 = ChainNode(198_000_000_000_000, sigma_abs_hz=710.0, provenance=("L1514",))
L1010 = ChainNode(297_000_000_000_000, sigma_abs_hz=1000.0, provenance=("L1010",))


class TestChainNode:
    def test_integer_carrier_enforced(self):
        with pytest.raises(ParameterError):
            ChainNode(1.98e14)
        with pytest.raises(ParameterError):
            ChainNode(0)
        with pytest.raises(ParameterError):
            ChainNode(10**14, sigma_abs_hz=-1.0)


class TestShgPdc:
    def test_shg_doubles_everything(self):
        out = shg(L1514)
        assert out.nominal_hz == 396_000_000_000_000
        assert out.sigma_abs_hz == pytest.approx(1420.0)

    def test_shg_preserves_fractional_instability(self):
        out = shg(L1514)
        assert out.sigma_abs_hz / out.nominal_hz == pytest.approx(
            L1514.sigma_abs_hz / L1514.nominal_hz)

    def test_zero_sigma_stays_zero(self):
        node = ChainNode(10**14)
        assert shg(node).sigma_abs_hz == 0.0
        assert pdc_degenerate(node).sigma_abs_hz == 0.0

    def test_pdc_inverts_shg(self):
        assert pdc_degenerate(shg(L1514)) == L1514

    def test_shg_inverts_pdc_on_even_node(self):
        node = ChainNode(2 * 10**14, sigma_abs_hz=3.0, offset_hz=0.5)
        assert shg(pdc_degenerate(node)) == node

    def test_pdc_rejects_odd_pump(self):
        with pytest.raises(ParameterError):
            pdc_degenerate(ChainNode(10**14 + 1))


class TestSfg:
    def test_sum_frequency_exact(self):
        out = sfg(L1514, L1010)
        assert out.nominal_hz == 495_000_000_000_000

    def test_independent_quadrature(self):
        out = sfg(L1514, L1010)
        assert out.sigma_abs_hz == pytest.approx(np.hypot(710.0, 1000.0))

    def test_common_mode_linear(self):
        a = ChainNode(10**14, sigma_abs_hz=3.0, provenance=("gps",))
        b = ChainNode(2 * 10**14, sigma_abs_hz=4.0, provenance=("gps", "other"))
        assert sfg(a, b).sigma_abs_hz == pytest.approx(7.0)

    def test_zero_partner_passthrough(self):
        quiet = ChainNode(10**14, provenance=("q",))
        assert sfg(L1514, quiet).sigma_abs_hz == pytest.approx(710.0)

    def test_offsets_add_linearly(self):
        a = ChainNode(10**14, offset_hz=1.5, provenance=("a",))
        b = ChainNode(10**14, offset_hz=-0.5, provenance=("b",))
        assert sfg(a, b).offset_hz == pytest.approx(1.0)

    def test_tau_mismatch_rejected(self):
        a = ChainNode(10**14, sigma_tau_s=1.0, provenance=("a",))
        b = ChainNode(10**14, sigma_tau_s=10.0, provenance=("b",))
        with pytest.raises(ParameterError):
            sfg(a, b)

    def test_provenance_union(self):
        out = sfg(L1514, L1010)
        assert set(out.provenance) == {"L1514", "L1010"}


@settings(max_examples=50, deadline=None)
@given(
    sa=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    sb=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_quadrature_monotonicity_property(sa, sb):
    a = ChainNode(10**14, sigma_abs_hz=sa, provenance=("a",))
    b = ChainNode(10**14, sigma_abs_hz=sb, provenance=("b",))
    sigma = sfg(a, b).sigma_abs_hz
    assert sigma >= max(sa, sb) - 1e-9
    assert sigma <= sa + sb + 1e-9


class TestAom:
    def test_zero_rf_identity(self):
        assert aom_double_pass(L1514, 0) == L1514

    def test_double_pass_shift(self):
        out = aom_double_pass(L1514, 80_000_000)
        assert out.nominal_hz == L1514.nominal_hz + 160_000_000

    def test_sigma_invariant(self):
        for f_rf in (-10**9, 0, 12_345_678):
            assert aom_double_pass(L1514, f_rf).sigma_abs_hz == L1514.sigma_abs_hz

    def test_non_integer_rf_rejected(self):
        with pytest.raises(ParameterError):
            aom_double_pass(L1514, 1.5)


class TestCombBeat:
    COMB = CombModel(f_rep_hz=107_000_000, f_ceo_hz=20_000_000)

    def test_exact_line_zero_beat(self):
        nu = self.COMB.line_hz(1_850_467)
        n, beat = comb_beat(nu, self.COMB)
        assert (n, beat) == (1_850_467, 0)

    def test_constructed_inverse(self):
        nu = self.COMB.line_hz(1_850_467) + 30_000_000
        assert comb_beat(nu, self.COMB) == (1_850_467, 30_000_000)

    def test_above_half_rep_rolls_to_next_line(self):
        nu = self.COMB.line_hz(1_850_467) + 60_000_000
        assert comb_beat(nu, self.COMB) == (1_850_468, 47_000_000)

    def test_tie_goes_to_lower_line(self):
        comb = CombModel(f_rep_hz=100, f_ceo_hz=0)
        assert comb_beat(1050, comb) == (10, 50)

    def test_below_ceo_rejected(self):
        with pytest.raises(ParameterError):
            comb_beat(10_000_000, self.COMB)

    def test_array_matches_scalar(self):
        base = self.COMB.line_hz(1000)
        nus = base + np.arange(-60_000_000, 61_000_000, 7_000_000, dtype=np.int64)
        n_arr, beat_arr = comb_beat(nus, self.COMB)
        for nu, n, beat in zip(nus, n_arr, beat_arr):
            assert comb_beat(int(nu), self.COMB) == (n, beat)

    def test_scalar_returns_python_ints(self):
        # lockrun.json records the comb line: json.dump refuses numpy integers
        n, beat = comb_beat(self.COMB.line_hz(1_850_467) + 60_000_000, self.COMB)
        assert type(n) is int and type(beat) is int

    def test_float_array_rejected(self):
        with pytest.raises(ParameterError):
            comb_beat(np.array([1e14]), self.COMB)

    def test_float_scalar_rejected(self):
        # used to be truncated by int()
        with pytest.raises(ParameterError, match="integer-typed"):
            comb_beat(1.5e14, self.COMB)


class TestAfcBudget:
    AFC = AfcSpec(center_hz=495_000_000_000_000, width_hz=4e6, stability_target_hz=1e5)

    def test_conversion_chain_passes(self):
        node = sfg(pdc_degenerate(shg(L1514)), L1010)
        report = afc_budget(node, self.AFC)
        assert report.stability_pass and report.offset_pass
        assert report.stability_margin_hz == pytest.approx(1e5 - 1226.4, rel=1e-3)

    def test_stability_fail(self):
        node = ChainNode(495_000_000_000_000, sigma_abs_hz=5e5)
        report = afc_budget(node, self.AFC)
        assert not report.stability_pass

    def test_offset_fail_beyond_halfwidth(self):
        node = ChainNode(495_000_000_000_000, offset_hz=2.1e6)
        report = afc_budget(node, self.AFC)
        assert not report.offset_pass
        assert report.offset_margin_hz < 0.0

    def test_afc_spec_invariant(self):
        with pytest.raises(ParameterError):
            AfcSpec(center_hz=10**14, width_hz=4e6, stability_target_hz=5e6)


class TestEvaluateChain:
    DOC = {
        "sources": {
            "laser1514": {"nominal_hz": 198_000_000_000_000, "sigma_abs_hz": 710.0},
            "laser1010": {"nominal_hz": 297_000_000_000_000, "sigma_abs_hz": 1000.0},
        },
        "operations": [
            {"op": "shg", "in": "laser1514", "out": "pump"},
            {"op": "pdc", "in": "pump", "out": "photon1514"},
            {"op": "sfg", "in": ["photon1514", "laser1010"], "out": "photon606"},
        ],
        "afc": {"center_hz": 495_000_000_000_000, "width_hz": 4e6,
                "stability_target_hz": 1e5},
        "budget_node": "photon606",
    }

    def test_full_pipeline(self):
        result = evaluate_chain(self.DOC)
        node = result["nodes"]["photon606"]
        assert node["nominal_hz"] == 495_000_000_000_000
        assert node["sigma_abs_hz"] == pytest.approx(1226.4, rel=1e-3)
        assert result["budget"]["stability_pass"]
        assert result["budget"]["offset_pass"]

    def test_unknown_op_rejected(self):
        doc = dict(self.DOC, operations=[{"op": "mix", "in": "laser1514", "out": "x"}])
        with pytest.raises(ParameterError):
            evaluate_chain(doc)

    def test_unresolved_node_rejected(self):
        doc = dict(self.DOC, operations=[{"op": "shg", "in": "nope", "out": "x"}])
        with pytest.raises(ParameterError):
            evaluate_chain(doc)

    def test_missing_budget_node_rejected(self):
        doc = dict(self.DOC, budget_node="ghost")
        with pytest.raises(ParameterError):
            evaluate_chain(doc)

    def test_aom_operation(self):
        doc = {
            "sources": {"a": {"nominal_hz": 10**14}},
            "operations": [{"op": "aom", "in": "a", "f_rf_hz": 80_000_000, "out": "b"}],
        }
        result = evaluate_chain(doc)
        assert result["nodes"]["b"]["nominal_hz"] == 10**14 + 160_000_000

    # an operation's key set depends on its op; a non-string output node used to validate
    # and then fail when the budget JSON was written
    @pytest.mark.parametrize("op, message", [
        ({"op": "shg", "in": "a", "out": 5}, "operations[0].out: must be a non-empty node name"),
        ({"op": "aom", "in": "a", "out": "b"}, "operations[0]: missing required key 'f_rf_hz'"),
        ({"op": "shg", "in": "a", "out": "b", "f_rf_hz": 80_000_000},
         "operations[0]: unknown key 'f_rf_hz'"),
    ], ids=["non-string-out", "aom-without-f_rf_hz", "f_rf_hz-on-shg"])
    def test_malformed_operation_rejected(self, op, message):
        doc = {"sources": {"a": {"nominal_hz": 10**14}}, "operations": [op]}
        with pytest.raises(ParameterError) as info:
            evaluate_chain(doc)
        assert message in str(info.value)

    def test_source_error_names_the_source(self):
        doc = dict(self.DOC, sources=dict(self.DOC["sources"],
                                          laser1010={"nominal_hz": 297_000_000_000_000,
                                                     "sigma_abs_hz": -1.0}))
        with pytest.raises(ParameterError) as info:
            evaluate_chain(doc)
        assert str(info.value) == "sources.laser1010: sigma_abs_hz must be >= 0"

    def test_operation_error_names_the_operation(self):
        doc = dict(self.DOC, sources=dict(self.DOC["sources"],
                                          laser1010={"nominal_hz": 297_000_000_000_000,
                                                     "sigma_tau_s": 2.0}))
        with pytest.raises(ParameterError) as info:
            evaluate_chain(doc)
        assert str(info.value) == "operations[2]: cannot combine sigmas tagged with different taus"

    def test_budget_node_without_afc_rejected(self):
        doc = {key: value for key, value in self.DOC.items() if key != "afc"}
        with pytest.raises(ParameterError, match="'budget_node' is valid only with 'afc'"):
            evaluate_chain(doc)

    @staticmethod
    def _sfg_doc(provenance_a, provenance_b):
        return {"sources": {"a": {"nominal_hz": 10**14, "sigma_abs_hz": 3.0,
                                  "provenance": provenance_a},
                            "b": {"nominal_hz": 10**14, "sigma_abs_hz": 4.0,
                                  "provenance": provenance_b}},
                "operations": [{"op": "sfg", "in": ["a", "b"], "out": "c"}]}

    def test_disjoint_provenance_adds_in_quadrature(self):
        result = evaluate_chain(self._sfg_doc(["l1514"], ["l1010"]))
        assert result["nodes"]["c"]["sigma_abs_hz"] == 5.0

    # a string used to become a tuple of its characters: "l1514" and "l1010" shared '1' and
    # 'l', so their sigmas added linearly (7 Hz) instead of in quadrature (5 Hz)
    @pytest.mark.parametrize("provenance", [
        pytest.param("l1514", id="string"),
        pytest.param(nested("l1514", 500), id="nested-500"),
        pytest.param([1514], id="list-of-numbers"),
        pytest.param({"l1514": 1}, id="object"),
        pytest.param(None, id="null"),
    ])
    def test_provenance_must_be_a_list_of_names(self, provenance):
        with pytest.raises(ParameterError) as info:
            evaluate_chain(self._sfg_doc(provenance, "l1010"))
        assert str(info.value) == "sources.a: provenance must be a list of names"

    def test_fractional_aom_frequency_rejected(self):
        doc = {
            "sources": {"a": {"nominal_hz": 10**14}},
            "operations": [{"op": "aom", "in": "a", "f_rf_hz": 80_000_000.5, "out": "b"}],
        }
        with pytest.raises(ParameterError, match="f_rf_hz must be an exact integer"):
            evaluate_chain(doc)
