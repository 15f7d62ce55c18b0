"""The reactor: its one rate law, the joint model built on it, the reduced models, the steady state.

Every kernel and model test works on the joint state (CA, CB, T, beta).
This module is the home of the rate law's bitwise contract: a batch
column, a one-column batch, the linearization's rate row and the float
rates give the same bytes. Oracles: high-precision re-evaluation of the
Arrhenius expression, central finite differences for every Jacobian entry,
the closed-form reduced models of ``closedform`` against the noise-free
joint model with beta held at its configured value, a sampled cross-check
of the EKF's moments, and back-substitution residuals for the steady-state
curve.
"""
import dataclasses
import math

import numpy as np
import pytest

from cdassim import cstr
from cdassim.config import load_config
from cdassim.cstr import (
    CA_IN,
    CB_IN,
    EA_R,
    K0,
    T_IN,
    V,
    CstrParams,
    adiabatic_concentrations,
    cstr3_drift,
    cstr3_linearize,
    cstr3_rates,
    default_experiment_model,
    steady_state_curve,
    steady_state_flow,
    steady_state_range,
)
from cdassim.sde import NoiseStream, rk4_inputs, rk4_step

from closedform import arrhenius, one_state_rate, two_state_rates
from stages import fd_jacobian, interval_inputs

CONFIG = load_config()
PARAMS = CONFIG.cstr_params()
FLOW = CONFIG.flow_profile()


def joint_model(sigma_theta=0.0):
    return default_experiment_model(PARAMS, FLOW, param_diffusion=sigma_theta).model


# the truth's start: an empty reactor (CA = CB = 0) at T_IN, with the true beta
EMPTY_REACTOR = [0.0, 0.0, T_IN, PARAMS.beta]


def random_admissible_state(rng):
    """A joint state at the configured beta, as the truth path runs it."""
    return np.array([rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5), rng.uniform(273.0, 500.0),
                     PARAMS.beta])


def random_joint_state(rng):
    """A joint state at a random beta, as the filters' beliefs explore it."""
    x = random_admissible_state(rng)
    x[3] = rng.uniform(100.0, 160.0)
    return x


def rate_k(T):
    """The rate constant k(T) of the one rate law, cstr3_rates."""
    return cstr3_rates(CA_IN, CB_IN, T, PARAMS.beta, 0.0)[3]


class TestRateConstant:
    def test_frozen_high_precision_value(self):
        # independent single-exp evaluation of the same formula
        expected = math.exp(24.6 - 8500.0 / 273.65)
        got = rate_k(273.65)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.56e-3, rel=2e-3)

    def test_monotone_in_temperature(self):
        k = [rate_k(T) for T in np.linspace(250.0, 600.0, 200).tolist()]
        assert np.all(np.diff(k) > 0)

    def test_high_temperature_limit_is_prefactor(self):
        assert rate_k(1e14) == pytest.approx(K0, rel=1e-9)

    @pytest.mark.parametrize("T", [300.0, 300, [300, 310.5, 0.0], np.asarray(305.25),
                                   np.array([[300.0, 0.0], [-0.0, 450.0]]), 0.0, -0.0, 0])
    def test_helpers_keep_the_values_and_types_of_an_asarray_read(self, T):
        # against a reference that reads T through np.asarray(T, dtype=float):
        # every input kind gives the same bits and type
        rise = (np.asarray(T, dtype=float) - T_IN) / PARAMS.beta
        expected = [CA_IN - rise, CB_IN - 2.0 * rise]
        got = adiabatic_concentrations(T, PARAMS)
        for g, e in zip(got, expected):
            assert type(g) is type(e) and np.shape(g) == np.shape(e)
            assert np.asarray(g).tobytes() == np.asarray(e).tobytes()


class TestParams:
    def test_physical_constants(self):
        assert K0 == math.exp(24.6)
        assert (EA_R, V, CA_IN, CB_IN, T_IN) == (8500.0, 0.105, 0.8, 1.2, 273.65)

    def test_only_the_experiment_values_are_settable(self):
        assert [f.name for f in dataclasses.fields(CstrParams)] == ["beta", "sigma_T"]
        with pytest.raises(TypeError):
            CstrParams(beta=PARAMS.beta, sigma_T=PARAMS.sigma_T, k0=K0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, sigma_T=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, beta=0.0)

    def test_experiment_values_have_no_default(self):
        # beta and sigma_T come from the config file, never from the code
        with pytest.raises(TypeError):
            CstrParams(sigma_T=PARAMS.sigma_T)
        with pytest.raises(TypeError):
            CstrParams(beta=PARAMS.beta)


class TestDrift:
    def test_pure_inflow_at_zero_concentrations(self):
        F = 0.007
        FV = F / V
        d = cstr3_drift(np.array([[0.0], [0.0], [320.0], [PARAMS.beta]]), F)[:, 0]
        assert np.array_equal(d, [FV * CA_IN, FV * CB_IN, FV * (T_IN - 320.0), 0.0])

    @pytest.mark.parametrize("random_state", [random_admissible_state, random_joint_state],
                             ids=["admissible", "random-beta"])
    def test_stoichiometric_and_energy_coupling(self, random_state):
        # rearranged, these are the mixing invariants: d/dt[2CA - CB] and
        # d/dt[T + beta CA] relax by pure mixing, at the state's own beta
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_state(rng)
            F = rng.uniform(1e-3, 0.02)
            FV = F / V
            dCA, dCB, dT, dbeta = cstr3_drift(x[:, None], F)[:, 0]
            reac_A = dCA - FV * (CA_IN - x[0])
            assert dCB - FV * (CB_IN - x[1]) == pytest.approx(2.0 * reac_A, abs=1e-10)
            assert dT - FV * (T_IN - x[2]) == pytest.approx(-x[3] * reac_A, abs=1e-10)
            assert dbeta == 0.0


# T = 0 of either sign, and a T whose square underflows to zero, where
# Python's float division raises and numpy's gives infinities
VANISHING_T = [[0.6, 0.8, 0.0, 130.0], [0.6, 0.8, -0.0, 130.0], [-0.1, 0.8, 0.0, 130.0],
               [0.0, 0.0, 0.0, 130.0], [0.6, 0.8, 1e-200, 130.0], [0.6, 0.8, -1e-200, 130.0]]

# kind -> (a random state of that kind, the states that fill the first columns of its batches)
RATE_STATES = {
    # at the truth's beta, from the empty reactor on, as the truth path runs
    "admissible": (random_admissible_state, [EMPTY_REACTOR, [0.0, 0.0, 320.0, PARAMS.beta]]),
    # at a random positive beta, as the filters' beliefs explore it, and one negative beta
    "random-beta": (random_joint_state, [[*EMPTY_REACTOR[:3], 120.0],
                                         [0.0, 0.0, 320.0, -120.0]]),
    # a vanishing, negative, huge, infinite or NaN entry
    "edge": (random_joint_state, [*VANISHING_T,
                                  [np.nan, 0.8, 300.0, 130.0], [0.6, 0.8, np.nan, 130.0],
                                  [0.6, 0.8, 300.0, np.nan], [0.6, 0.8, np.inf, 130.0],
                                  [0.6, 0.8, -np.inf, 130.0], [np.inf, -np.inf, 300.0, 130.0],
                                  [0.6, 0.8, -5.0, 130.0], [-0.3, -0.4, 300.0, -130.0],
                                  [-0.3, 0.4, 1e4, 130.0]]),
}
ENVELOPE = [np.array([CA, CB, T, PARAMS.beta]) for T in np.linspace(273.0, 500.0, 6)
            for CA in np.linspace(0.0, 1.5, 4) for CB in np.linspace(0.0, 1.5, 4)]


class TestRateLaw:
    @pytest.mark.parametrize("kind", list(RATE_STATES))
    @pytest.mark.parametrize("width", [1, 2, 11, 1000])
    def test_every_evaluation_gives_the_same_bits(self, width, kind, monkeypatch):
        # a column of a batch (the UKF's points and the members run these
        # widths), the column alone, the linearization's rate row (the EKF)
        # and the float rates (the truth and the reduced models): bytes, not
        # np.array_equal, which calls -0.0 and 0.0 equal and no two NaNs
        # equal. Each width runs on its own constant tables: the cache is
        # emptied and first holds the other widths' tables
        monkeypatch.setattr(cstr, "_TABLES", {})
        for other in (1000, 11, 2, 1):
            if other != width:
                cstr3_drift(np.ones((4, other)), 0.006)
        random_state, special = RATE_STATES[kind]
        rng = np.random.default_rng(width)
        for start in range(0, len(special), width):
            X = np.column_stack([random_state(rng) for _ in range(width)])
            chunk = special[start:start + width]
            X[:, :len(chunk)] = np.transpose(chunk)
            F = rng.uniform(1e-3, 0.02)
            with np.errstate(all="ignore"):
                D = cstr3_drift(X, F)
                for i, x in enumerate(X.T):
                    column = cstr3_drift(X[:, i:i + 1], F)
                    rates = np.array([*cstr3_rates(*x.tolist(), F / V)[:3], 0.0])
                    assert column.shape == (4, 1)
                    for got in (column[:, 0], cstr3_linearize(x, F)[0], rates):
                        assert got.tobytes() == D[:, i].tobytes(), (x, got, D[:, i])
        assert set(cstr._TABLES) == {1, 2, 11, 1000}

    @pytest.mark.parametrize("kind, rtol, floor", [
        ("admissible", 1e-6, 1e-10),
        ("random-beta", 1e-6, 1e-10),  # the beta column is the reaction rate
        ("envelope", 1e-5, 1e-8),  # the operating envelope, at the looser published tolerance
    ])
    def test_jacobian_matches_finite_differences(self, kind, rtol, floor):
        # the joint model's linearization below its rates, against central
        # differences of its drift
        model = joint_model()
        rng = np.random.default_rng(21)
        states = ENVELOPE if kind == "envelope" else [RATE_STATES[kind][0](rng)
                                                      for _ in range(100)]
        for x in states:
            u = np.array([rng.uniform(1e-3, 0.02)])
            J = model.linearize(0.0, x, u)[1:]
            Jfd = fd_jacobian(lambda z: model.drift(0.0, z[:, None], u)[:, 0], x)
            assert np.all(np.abs(J - Jfd) <= rtol * np.maximum(np.abs(Jfd), floor))


def jacobian(x, F):
    return cstr3_linearize(x, F)[1:]


class TestJacobian:
    def test_diagonal_at_zero_concentrations(self):
        F = 0.01
        J = jacobian(np.array([0.0, 0.0, 300.0, PARAMS.beta]), F)
        # no reaction: pure dilution, and beta moves nothing (its column is the rate, 0)
        np.testing.assert_array_equal(J, -F / V * np.diag([1.0, 1.0, 1.0, 0.0]))

    def test_cross_term_stoichiometry(self):
        x = np.array([0.4, 0.9, 330.0, PARAMS.beta])
        F = 0.007
        J = jacobian(x, F)
        k = arrhenius(330.0)
        assert J[1, 0] == pytest.approx(-2.0 * k * x[1], rel=1e-14)
        assert J[1, 0] == pytest.approx(2.0 * (J[0, 0] + F / V), rel=1e-12)


class TestVanishingTemperature:
    @pytest.mark.parametrize("x", VANISHING_T)
    def test_linearize_gives_a_non_finite_dk_dT(self, x):
        # its rate row is the kernel's (TestRateLaw)
        with np.errstate(all="ignore"):
            block = cstr3_linearize(np.array(x), 0.006)
        assert not np.isfinite(block[1:4, 2]).any()  # every entry with dk/dT


class TestJointKernel:
    def test_width_tables_are_read_only_and_rates_are_fresh(self, monkeypatch):
        monkeypatch.setattr(cstr, "_TABLES", {})
        rng = np.random.default_rng(31)
        X = np.column_stack([random_joint_state(rng) for _ in range(11)])
        first = cstr3_drift(X, 0.006)
        tables = cstr._TABLES[11]
        expected = first.tobytes()
        first[...] = np.nan  # a caller writing into its rates touches no table
        assert cstr3_drift(X, 0.006).tobytes() == expected
        # other states and flows at the same width read the same pair, built once
        cstr3_drift(X[:, ::-1].copy(), 0.007)
        assert cstr._TABLES[11] is tables
        for table in tables:
            assert table.shape[1] == 11
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    def test_reads_beta_from_the_state(self):
        # beta enters only through the state's fourth row: another value there
        # moves the T rate by the reaction term and the Jacobian's T row by
        # beta times the reaction's partials, and nothing else
        rng = np.random.default_rng(15)
        X = np.column_stack([random_joint_state(rng) for _ in range(10)])
        Y = X.copy()
        Y[3] = -7.5
        F = 0.007
        D, E = cstr3_drift(X, F), cstr3_drift(Y, F)
        np.testing.assert_array_equal(D[[0, 1, 3]], E[[0, 1, 3]])
        np.testing.assert_array_equal(D[3], 0.0)
        for i in range(X.shape[1]):
            block, other = cstr3_linearize(X[:, i], F), cstr3_linearize(Y[:, i], F)
            np.testing.assert_array_equal(block[[1, 2, 4]], other[[1, 2, 4]])
            np.testing.assert_array_equal(block[4], 0.0)
            r = block[3, 3]  # d(dT/dt)/d(beta), the reaction rate
            assert other[3, 3] == r
            assert D[2, i] - E[2, i] == pytest.approx((X[3, i] + 7.5) * r, rel=1e-9)
            # the reaction's partials (k CB, k CA, dk/dT CA CB), read off the CA row
            partials = -block[1, :3] - [F / V, 0.0, 0.0]
            np.testing.assert_allclose(block[3, :3] - other[3, :3], (X[3, i] + 7.5) * partials,
                                       rtol=1e-9)


class TestReducedModels:
    # the closed-form 2- and 1-state models, which the reduced comparison
    # must reproduce bitwise (tests/test_cli.py), against the one rate law
    def test_two_state_at_fresh_feed(self):
        dCA, dCB, dT, k, r = cstr3_rates(CA_IN, CB_IN, T_IN, PARAMS.beta, 0.007 / V)
        d = two_state_rates(0.0, T_IN, 0.007, PARAMS.beta)
        assert d[0] == pytest.approx(2.0 * k * CA_IN * CB_IN / CB_IN, rel=1e-12)
        assert d[0] == pytest.approx(-dCB / CB_IN, rel=1e-12)
        assert d[1] == pytest.approx(PARAMS.beta * k * CA_IN * CB_IN, rel=1e-12)
        assert d[1] == pytest.approx(dT, rel=1e-12)

    def test_one_state_at_inlet_temperature(self):
        dCA, dCB, dT, k, r = cstr3_rates(CA_IN, CB_IN, T_IN, PARAMS.beta, 0.007 / V)
        d = one_state_rate(T_IN, 0.007, PARAMS.beta)
        assert d == pytest.approx(PARAMS.beta * k * CA_IN * CB_IN, rel=1e-12)
        assert d == pytest.approx(dT, rel=1e-12)

    def test_adiabatic_concentrations_at_inlet(self):
        CA, CB = adiabatic_concentrations(T_IN, PARAMS)
        assert (CA, CB) == (CA_IN, CB_IN)

    def test_temperature_agreement_over_horizon(self):
        # joint-model oracle at the configured beta: from feed-composition
        # start the reductions are exact, so 1 K absorbs only integrator
        # truncation differences
        h = 1.0
        x3 = np.array([[CA_IN], [CB_IN], [T_IN], [PARAMS.beta]])
        x2 = np.array([0.0, T_IN])
        x1 = np.array([T_IN])
        worst2 = worst1 = 0.0
        for i, inputs in enumerate(rk4_inputs(FLOW, 0.0, [2100.0], 2100)[0]):
            t = i * h
            x3 = rk4_step(lambda tt, z, u: cstr3_drift(z, u[0]), t, x3, h, inputs)
            x2 = rk4_step(lambda tt, z, u: two_state_rates(z[0], z[1], u[0], PARAMS.beta), t, x2,
                          h, inputs)
            x1 = rk4_step(lambda tt, z, u: np.array([one_state_rate(z[0], u[0], PARAMS.beta)]), t,
                          x1, h, inputs)
            worst2 = max(worst2, abs(x3[2, 0] - x2[1]))
            worst1 = max(worst1, abs(x3[2, 0] - x1[0]))
        assert worst2 < 1.0
        assert worst1 < 1.0
        assert x3[2, 0] > 330.0  # the profile must actually ignite the reactor


class TestSteadyState:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["exothermic", "endothermic"])
    def test_residual_after_back_substitution(self, sign):
        # an endothermic reactor's admissible temperatures lie below T_IN
        params = dataclasses.replace(PARAMS, beta=sign * PARAMS.beta)
        lo, hi = steady_state_range(params)
        for T_s in np.linspace(lo + 0.5, hi - 0.5, 50):
            F_s = steady_state_flow(float(T_s), params)
            CA, CB = adiabatic_concentrations(T_s, params)
            d = cstr3_drift(np.array([[CA], [CB], [T_s], [params.beta]]), F_s)
            scale = F_s / V * max(CA_IN, CB_IN, T_s - T_IN)
            assert np.max(np.abs(d)) <= 1e-9 * scale

    def test_out_of_branch_rejected(self):
        lo, hi = steady_state_range(PARAMS)
        for T_s in (lo, lo - 5.0, hi, hi + 5.0):
            with pytest.raises(ValueError, match="outside the admissible branch"):
                steady_state_flow(T_s, PARAMS)

    def test_blowup_toward_inlet_temperature(self):
        lo, _ = steady_state_range(PARAMS)
        assert steady_state_flow(lo + 1e-6, PARAMS) > 1e3
        assert steady_state_flow(lo + 1e-6, PARAMS) > steady_state_flow(lo + 1e-3, PARAMS)

    def test_curve_fold_and_residuals(self):
        T_s, F_s = steady_state_curve(PARAMS)
        assert len(T_s) == len(F_s) == 400
        # every emitted point satisfies the stationarity equations
        for T, F in zip(T_s, F_s):
            CA, CB = adiabatic_concentrations(T, PARAMS)
            d = cstr3_drift(np.array([[CA], [CB], [T], [PARAMS.beta]]), F)
            assert np.linalg.norm(d) < 1e-8
        # multiplicity fold: an interior local minimum followed by a local maximum
        dF = np.diff(F_s)
        mins = [i for i in range(1, 399) if dF[i - 1] < 0 < dF[i]]
        maxs = [i for i in range(1, 399) if dF[i - 1] > 0 > dF[i]]
        assert mins and maxs
        assert mins[0] < maxs[0]

    def test_curve_argument_validation(self):
        # a beta this small, of either sign, leaves a range of 0.3 K, narrower
        # than the two margins
        for beta in (0.5, -0.5):
            with pytest.raises(ValueError, match="margin leaves no admissible temperatures"):
                steady_state_curve(dataclasses.replace(PARAMS, beta=beta))


class TestFlowProfile:
    def test_default_profile_lookup(self):
        assert FLOW.at(0.0).shape == (1,)
        assert FLOW.at(-5.0)[0] == 0.010
        assert FLOW.at(199.9)[0] == 0.010
        assert FLOW.at(200.0)[0] == 0.004  # right-continuous at the breakpoint
        assert FLOW.at(1499.0)[0] == 0.004
        assert FLOW.at(1500.0)[0] == 0.007
        assert FLOW.at(1e9)[0] == 0.007

    def test_validation(self):
        # the config schema is the guard of the flow schedule
        with pytest.raises(ValueError):
            load_config(overrides={"flow": {"breakpoints": [0.0, 10.0],
                                            "values": [0.01, 0.0]}})
        with pytest.raises(ValueError):
            load_config(overrides={"flow": {"breakpoints": [10.0, 0.0],
                                            "values": [0.01, 0.02]}})


class TestModelWiring:
    def test_constrain_clamps_concentrations_only(self):
        m = joint_model()
        x = np.array([-0.2, -0.1, 280.0, -5.0])
        np.testing.assert_array_equal(m.constrain(x.copy()), [0.0, 0.0, 280.0, -5.0])
        X = np.array([[-1.0, 0.5], [0.3, -0.4], [290.0, 300.0], [-1.0, 130.0]])
        np.testing.assert_array_equal(m.constrain(X.copy()),
                                      [[0.0, 0.5], [0.3, 0.0], [290.0, 300.0], [-1.0, 130.0]])

    def test_measure_and_diffusion(self):
        # the truth's model: no random-walk channel on beta
        m = joint_model()
        u = np.array([0.0105])
        x = np.array([0.1, 0.2, 300.0, PARAMS.beta])
        assert m.measure(0.0, x) == pytest.approx([300.0])
        X = np.column_stack([x, x + 1.0])
        assert m.measure(0.0, X).shape == (1, 2)
        np.testing.assert_allclose(m.diffusion(u).ravel(),
                                   [0.0, 0.0, 0.1 * PARAMS.sigma_T, 0.0])
        np.testing.assert_array_equal(m.measure_jacobian(0.0, x), [[0.0, 0.0, 1.0, 0.0]])

    def test_default_experiment_bundle(self):
        m = joint_model(CONFIG.sigma_theta)
        z = np.array([0.3, 0.6, 310.0, 128.0])
        u = FLOW.at(0.0)
        assert m.dim_noise == 1 and m.diffusion(u).shape == (4, 1)
        np.testing.assert_array_equal(m.measure_jacobian(0.0, z), [[0.0, 0.0, 1.0, 0.0]])
        assert m.drift(0.0, z[:, None], u)[3, 0] == 0.0
        # the linearization is the EKF's [f; A] block, fresh and writable at every call
        block, again = m.linearize(0.0, z, u), m.linearize(0.0, z, u)
        assert block.shape == (5, 4) and block.flags.writeable
        assert not np.shares_memory(again, block) and again.tobytes() == block.tobytes()
        # the appended parameter state uses the live column, not params.beta
        d = m.drift(0.0, z[:, None], u)[:, 0]
        F = u[0]
        r = arrhenius(310.0) * 0.3 * 0.6
        assert d[2] == pytest.approx(F / V * (T_IN - 310.0) + 128.0 * r, rel=1e-12)

    def test_parameter_noise_adds_channel(self):
        m = joint_model(0.5)
        assert m.dim_noise == 2
        g = m.diffusion(FLOW.at(0.0))
        assert g.shape == (4, 2)
        assert g[3, 1] == 0.5
        with pytest.raises(ValueError):
            joint_model(-0.5)


class TestMomentConsistency:
    def test_one_interval_prediction_tracks_sampling(self):
        # coarse cross-check of the linearized moments against raw sampling
        from cdassim.filters.beliefs import GaussianBelief
        from cdassim.filters.kalman import ekf_predict
        from cdassim.sde import propagate_members

        m = joint_model()
        P0 = np.diag([1e-4, 1e-4, 1.0, 1e-4])
        mean0 = np.array([0.4, 0.8, 300.0, CONFIG.truth_beta])
        belief = GaussianBelief(mean=mean0, cov=P0, time=0.0)
        pred = ekf_predict(m, belief, interval_inputs(FLOW, 0.0, 10.0, substeps=20), 10.0)
        evals = np.linalg.eigvalsh(pred.cov)
        assert evals.min() > -1e-12

        n = 20000
        stream = NoiseStream(909)
        rng = stream.child(0).generator()
        X0 = mean0[:, None] + np.linalg.cholesky(P0) @ rng.standard_normal((4, n))
        X1 = propagate_members(m, X0, interval_inputs(FLOW, 0.0, 10.0, substeps=100), 0.0, 10.0,
                               stream.child(1).generator())
        mc_mean = X1.mean(axis=1)
        se = X1.std(axis=1, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(pred.mean - mc_mean) <= 4.0 * se + 1e-3)
        mc_var = X1.var(axis=1, ddof=1)
        np.testing.assert_allclose(np.diag(pred.cov), mc_var, rtol=0.1, atol=1e-8)
