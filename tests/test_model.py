"""Built-in density models: values, normalization, variation metadata."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad
from scipy.special import exp1, gamma

from extreme_gibbs.errors import ConfigError, DomainError
from extreme_gibbs.model import (
    make_weibull,
    model_diagnostics,
    model_from_spec,
    variation_report,
)


class TestWeibull:
    def test_slope_at_one(self, weibull2):
        # h(x) = k x^(k-1) - (k-1)/x gives h(1) = 2 - 1 = 1
        assert weibull2.h(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_epsilon_value(self, weibull2):
        # eps(x) = k(k-1)/(k x^k - (k-1)) gives eps(10) = 2/199
        assert weibull2.variation.epsilon(10.0) == pytest.approx(2.0 / 199.0, rel=1e-14)

    def test_log_density_values(self, weibull2):
        assert weibull2.log_density(1.0) == pytest.approx(math.log(2.0) - 1.0, abs=1e-14)
        assert weibull2.log_density(2.0) == pytest.approx(math.log(4.0) - 4.0, abs=1e-14)

    def test_normalization(self, weibull2):
        diag = model_diagnostics(weibull2)
        assert diag["normalization"] == pytest.approx(1.0, abs=1e-8)

    def test_mean_matches_gamma(self, weibull2):
        val, _ = sp_quad(lambda x: x * weibull2.density(x), 0.0, 12.0, epsabs=1e-12)
        assert val == pytest.approx(gamma(1.5), abs=1e-10)

    def test_rejects_light_tail_violation(self):
        with pytest.raises(DomainError):
            make_weibull(1.0)
        with pytest.raises(DomainError):
            make_weibull(0.7)

    def test_psi_matches_quadratic_root(self, weibull2):
        # 2x - 1/x = t has positive root (t + sqrt(t^2 + 8)) / 4
        for t in (0.5, 1.0, 3.0, 19.9, 250.0):
            closed = (t + math.sqrt(t * t + 8.0)) / 4.0
            assert weibull2.psi(t) == pytest.approx(closed, rel=1e-12)
            assert weibull2.h(weibull2.psi(t)) == pytest.approx(t, rel=1e-12)

    def test_psi_at_one(self, weibull2):
        assert weibull2.psi(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_variation_conditions(self, weibull2):
        rep = variation_report(weibull2)
        mags = np.abs(rep["eps"])
        assert np.all(np.diff(mags) < 0)
        assert np.all(rep["x_eps_d1"] <= 2.0 * rep["x_eps_d1"][0] + 1e-12)
        assert np.all(rep["x2_eps_d2"] <= 2.0 * rep["x2_eps_d2"][0] + 1e-9)

    def test_karamata_reconstruction(self, weibull2):
        # l(x) = c exp(int_1^x eps(u)/u du) must equal h(x) / x^(k-1)
        var = weibull2.variation
        for x in (5.0, 20.0, 80.0):
            integral, _ = sp_quad(lambda u: float(var.epsilon(u)) / u, 1.0, x, epsabs=1e-12)
            slowly = var.karamata_c * math.exp(integral)
            assert slowly == pytest.approx(weibull2.h(x) / x ** var.beta, rel=1e-8)

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_psi_inverts_h(self, weibull2, t):
        assert weibull2.h(weibull2.psi(t)) == pytest.approx(t, rel=1e-10)


class TestExpExponential:
    def test_psi_closed_form(self, exp_exp):
        assert exp_exp.psi(1.0) == pytest.approx(1.0, abs=1e-15)
        assert exp_exp.psi(math.e) == pytest.approx(2.0, rel=1e-14)

    def test_epsilon_at_e(self, exp_exp):
        assert exp_exp.variation.epsilon(math.e) == pytest.approx(0.5, rel=1e-14)

    def test_slope_at_one(self, exp_exp):
        assert exp_exp.h(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_norm_matches_exponential_integral(self, exp_exp):
        # int_0^inf exp(-e^(x-1)) dx = E1(1/e) after substituting u = e^(x-1)
        assert exp_exp.log_norm == pytest.approx(-math.log(exp1(math.exp(-1.0))), abs=1e-10)

    def test_normalization(self, exp_exp):
        diag = model_diagnostics(exp_exp)
        assert diag["normalization"] == pytest.approx(1.0, abs=1e-8)

    def test_rapid_conditions(self, exp_exp):
        rep = variation_report(exp_exp, probes=(10.0, 1e2, 1e3, 1e4))
        assert np.all(np.diff(np.abs(rep["eps"])) < 0)
        assert np.all(np.diff(rep["t_eps_d1_over_eps"]) < 0)
        assert np.all(np.diff(rep["t2_eps_d2_over_eps"]) < 0)

    def test_psi_below_range_rejected(self, exp_exp):
        with pytest.raises(DomainError):
            exp_exp.psi(0.1)

    def test_rapid_karamata_reconstruction(self, exp_exp):
        # c exp(int_1^t eps(u)/u du) must rebuild the inverse slope log t + 1
        var = exp_exp.variation
        for t in (5.0, 50.0, 500.0):
            integral, _ = sp_quad(lambda u: float(var.epsilon(u)) / u, 1.0, t, epsabs=1e-12)
            assert var.karamata_c * math.exp(integral) == pytest.approx(
                math.log(t) + 1.0, rel=1e-10
            )


class TestHalfGaussian:
    def test_log_density_at_zero(self, half_gauss):
        assert half_gauss.log_density(0.0) == pytest.approx(
            0.5 * math.log(2.0 / math.pi), abs=1e-15
        )

    def test_psi_is_identity(self, half_gauss):
        assert half_gauss.psi(5.0) == 5.0

    def test_normalization(self, half_gauss):
        diag = model_diagnostics(half_gauss)
        assert diag["normalization"] == pytest.approx(1.0, abs=1e-10)

    def test_closed_mean_at_zero_tilt(self, half_gauss):
        # E X = sqrt(2/pi) for the folded standard normal
        assert half_gauss.closed_forms.mean(0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-12
        )
        val, _ = sp_quad(lambda x: x * half_gauss.density(x), 0.0, 14.0, epsabs=1e-12)
        assert val == pytest.approx(half_gauss.closed_forms.mean(0.0), abs=1e-8)

    def test_closed_mean_consistency_at_three(self, half_gauss):
        val, _ = sp_quad(
            lambda x: x * math.exp(3.0 * x) * half_gauss.density(x), 0.0, 20.0, epsabs=1e-12
        )
        norm, _ = sp_quad(
            lambda x: math.exp(3.0 * x) * half_gauss.density(x), 0.0, 20.0, epsabs=1e-12
        )
        assert val / norm == pytest.approx(half_gauss.closed_forms.mean(3.0), abs=1e-8)


def test_h_inverse_roundtrip_all_models(weibull2, half_gauss, exp_exp):
    for model in (weibull2, half_gauss, exp_exp):
        for t in (1.0, 10.0, 1e2, 1e3):
            if t < model.h_min:
                continue
            assert model.h(model.psi(t)) == pytest.approx(t, rel=1e-10)


def test_structural_diagnostics(weibull2, half_gauss, exp_exp):
    for model in (weibull2, half_gauss, exp_exp):
        diag = model_diagnostics(model)
        assert diag["h_positive"]
        assert diag["h_nondecreasing"]
        assert diag["g_over_x_increasing"]
        assert diag["q_bound_ok"]


def test_domain_error_below_support(weibull2):
    with pytest.raises(DomainError):
        weibull2.log_density(-0.5)


class TestModelSpecs:
    def test_inline_specs(self):
        assert model_from_spec("weibull:k=2").name == "weibull(k=2)"
        assert model_from_spec("half_gaussian").name == "half_gaussian"
        assert model_from_spec("exp_exponential").name == "exp_exponential"

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            model_from_spec("cauchy")

    def test_malformed_number_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'k' must be a number, got 'abc'"):
            model_from_spec("weibull:k=abc")
        with pytest.raises(ConfigError, match="support_lo"):
            model_from_spec("kind = custom\ng = x**2\nsupport_lo = zero\n")

    def test_missing_spec_file_is_named(self, tmp_path):
        missing = str(tmp_path / "nonexistent" / "spec.txt")
        with pytest.raises(ConfigError, match="spec file not found"):
            model_from_spec(missing)

    def test_custom_expressions_match_builtin(self, weibull2):
        spec = "\n".join(
            [
                "kind = custom",
                "name = weibull_expr",
                "g = x**2 - log(x)",
                "h = 2*x - 1/x",
                "h_prime = 2 + 1/x**2",
                "h_second = -2/x**3",
                "variation = regular:1",
            ]
        )
        custom = model_from_spec(spec)
        xs = np.array([0.5, 1.0, 2.0, 5.0])
        np.testing.assert_allclose(
            custom._log_density_clipped(xs), weibull2._log_density_clipped(xs), atol=1e-9
        )
        assert custom.psi(3.0) == pytest.approx(weibull2.psi(3.0), rel=1e-10)

    def test_custom_rapid_epsilon_inverts_the_slope(self):
        # h(x) = e^(x-1) inverts to log t + 1, so eps(t) = t / (h'(psi) psi) = 1/(log t + 1)
        spec = "\n".join(
            [
                "kind = custom",
                "g = exp(x - 1)",
                "h = exp(x - 1)",
                "h_prime = exp(x - 1)",
                "variation = rapid",
            ]
        )
        custom = model_from_spec(spec)
        assert custom.variation.kind == "rapid"
        for t in (5.0, 10.0, 100.0):
            eps = float(np.asarray(custom.variation.epsilon(t)))
            assert eps == pytest.approx(1.0 / (math.log(t) + 1.0), abs=1e-10)

    def test_custom_without_derivatives(self, weibull2):
        custom = model_from_spec("kind = custom\ng = x**2 - log(x)\nvariation = regular:1")
        assert custom.h(2.0) == pytest.approx(weibull2.h(2.0), rel=1e-5)

    def test_tabulated_model(self, half_gauss, tmp_path):
        xs = np.linspace(0.0, 12.0, 2001)
        path = tmp_path / "table.csv"
        with open(path, "w") as fh:
            fh.write("x,g,q\n")
            for x in xs:
                fh.write(f"{x},{0.5 * x * x},0.0\n")
        custom = model_from_spec(f"kind = custom\ntable = {path}\nvariation = regular:1")
        probe = np.array([0.5, 2.0, 6.0])
        np.testing.assert_allclose(
            custom._log_density_clipped(probe),
            half_gauss._log_density_clipped(probe),
            atol=1e-6,
        )
        np.testing.assert_allclose(custom.h(probe), half_gauss.h(probe), atol=1e-4)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(DomainError):
            model_from_spec("kind = custom\ng = __import__('os').SEEK_SET * x\n")

    def test_one_row_table_is_a_config_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,g,q\n1.0,0.5,0.0\n")
        with pytest.raises(ConfigError, match="cannot read model table .*at least 2"):
            model_from_spec(f"kind = custom\ntable = {path}\n")

    def test_missing_table_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read model table"):
            model_from_spec(f"kind = custom\ntable = {tmp_path / 'none.csv'}\n")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("weibull:q=2", "model kind 'weibull' takes no key 'q'"),
            ("half_gaussian:k=2", "model kind 'half_gaussian' takes no key 'k'"),
            ("kind = custom\ng = x**2\ngg = x\n", "model kind 'custom' takes no key 'gg'"),
            ("weibull:k=2,k=3", "repeated model spec key 'k'"),
            ("kind = custom\ng = x**2\ng = x**3\n", "repeated model spec key 'g'"),
            ("kind = custom\ng x**2\n", "malformed model spec line 'g x\\*\\*2'"),
        ],
    )
    def test_spec_keys_are_checked(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            model_from_spec(spec)

    def test_epsilon_needs_a_known_variation(self):
        # an unknown variation was once read as rapid whenever epsilon was given
        with pytest.raises(DomainError, match="unknown variation spec 'bogus'"):
            model_from_spec("kind = custom\ng = x**2\nepsilon = 1/x\nvariation = bogus\n")

    def test_epsilon_expression_replaces_the_derived_one(self):
        regular = model_from_spec("kind = custom\ng = x**2\nepsilon = 1/x\nvariation = regular:beta=2\n")
        assert (regular.variation.kind, regular.variation.beta) == ("regular", 2.0)
        assert float(np.asarray(regular.variation.epsilon(4.0))) == 0.25
        rapid = model_from_spec("kind = custom\ng = exp(x - 1)\nepsilon = 1/(log(t) + 1)\nvariation = rapid\n")
        assert rapid.variation.kind == "rapid"
        assert float(np.asarray(rapid.variation.epsilon(math.e))) == 0.5
