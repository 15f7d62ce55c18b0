"""Reactor benchmark tests.

Every kernel and model test works on the joint state (CA, CB, T, beta).
Oracles: high-precision re-evaluation of the Arrhenius expression, central
finite differences for every Jacobian entry, the closed-form reduced models
of ``closedform`` against the noise-free joint model with beta held at its
configured value, and back-substitution residuals for the steady-state curve.
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
from cdassim.sde import DivergenceError, NoiseStream, rk4_inputs, rk4_step

from closedform import arrhenius, one_state_rate, two_state_rates
from stages import UNIT_SCALING, euler_maruyama_path, fd_jacobian, interval_inputs

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

    def test_stoichiometric_and_energy_coupling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_admissible_state(rng)
            F = rng.uniform(1e-3, 0.02)
            FV = F / V
            dCA, dCB, dT, dbeta = cstr3_drift(x[:, None], F)[:, 0]
            reac_A = dCA - FV * (CA_IN - x[0])
            assert dCB - FV * (CB_IN - x[1]) == pytest.approx(2.0 * reac_A, abs=1e-10)
            assert dT - FV * (T_IN - x[2]) == pytest.approx(-x[3] * reac_A, abs=1e-10)
            assert dbeta == 0.0

    def test_mixing_invariants(self):
        # d/dt[2CA - CB] and d/dt[T + beta CA] relax by pure mixing
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = random_admissible_state(rng)
            F = rng.uniform(1e-3, 0.02)
            FV = F / V
            dCA, dCB, dT, _ = cstr3_drift(x[:, None], F)[:, 0]
            beta = x[3]
            lhs = 2.0 * dCA - dCB
            rhs = FV * ((2.0 * CA_IN - CB_IN) - (2.0 * x[0] - x[1]))
            assert lhs == pytest.approx(rhs, abs=1e-10)
            lhs = dT + beta * dCA
            rhs = FV * ((T_IN + beta * CA_IN) - (x[2] + beta * x[0]))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_batch_matches_columns(self):
        # bytes, not np.array_equal, which calls -0.0 and 0.0 equal; the
        # truth starts from an empty reactor (CA = CB = 0) at T_IN
        rng = np.random.default_rng(13)
        X = np.column_stack([random_admissible_state(rng) for _ in range(8)]
                            + [EMPTY_REACTOR, [0.0, 0.0, 320.0, PARAMS.beta]])
        D = cstr3_drift(X, 0.006)
        assert D.shape == (4, 10)
        for i in range(10):
            assert D[:, i].tobytes() == cstr3_drift(X[:, i:i + 1], 0.006).tobytes()


def jacobian(x, F):
    return cstr3_linearize(x, F)[1:]


class TestJacobian:
    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = random_admissible_state(rng)
            F = rng.uniform(1e-3, 0.02)
            J = jacobian(x, F)
            Jfd = fd_jacobian(lambda z: cstr3_drift(z[:, None], F)[:, 0], x)
            assert np.all(np.abs(J - Jfd) <= 1e-6 * np.maximum(np.abs(Jfd), 1e-10))

    def test_matches_finite_differences_envelope(self):
        # operating-envelope sweep at the looser published tolerance
        grid_T = np.linspace(273.0, 500.0, 6)
        grid_C = np.linspace(0.0, 1.5, 4)
        for T in grid_T:
            for CA in grid_C:
                for CB in grid_C:
                    x = np.array([CA, CB, T, PARAMS.beta])
                    J = jacobian(x, 0.007)
                    Jfd = fd_jacobian(lambda z: cstr3_drift(z[:, None], 0.007)[:, 0], x)
                    assert np.all(np.abs(J - Jfd) <= 1e-5 * np.maximum(np.abs(Jfd), 1e-8))

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


class TestLinearize:
    @pytest.mark.parametrize("random_beta", [False, True])
    def test_drift_is_bitwise_the_drift_kernel(self, random_beta):
        # the EKF takes its drift from the one-exp linearization, the other
        # filters from cstr3_drift: both must give the same bits, at the
        # truth's beta and at the filters' random ones
        rng = np.random.default_rng(16 + random_beta)
        states = [random_joint_state(rng) if random_beta else random_admissible_state(rng)
                  for _ in range(1200)]
        for x in states[:50]:  # the empty reactor, where the rate vanishes
            x[:2] = 0.0
        model = joint_model()
        for x in states:
            u = np.array([rng.uniform(1e-3, 0.02)])
            # the model's linearization is the EKF's fresh, writable [f; A] block
            block = model.linearize(0.0, x, u)
            assert block.shape == (5, 4) and block.flags.writeable
            assert block[0].tobytes() == cstr3_drift(x[:, None], u[0])[:, 0].tobytes()
            again = model.linearize(0.0, x, u)
            assert again is not block and not np.shares_memory(again, block)
            assert again.tobytes() == block.tobytes()


class TestVanishingTemperature:
    # T = 0 (of either sign) and a T whose square underflows to zero, where
    # Python's float division raises and numpy's gives infinities
    STATES = [[0.6, 0.8, 0.0, 130.0], [0.6, 0.8, -0.0, 130.0], [-0.1, 0.8, 0.0, 130.0],
              [0.0, 0.0, 0.0, 130.0], [0.6, 0.8, 1e-200, 130.0], [0.6, 0.8, -1e-200, 130.0]]

    @pytest.mark.parametrize("x", STATES)
    def test_linearize_gives_the_kernel_rates_and_a_non_finite_dk_dT(self, x):
        x = np.array(x)
        with np.errstate(all="ignore"):
            block = cstr3_linearize(x, 0.006)
            batch = cstr3_drift(np.column_stack([x, x]), 0.006)
        np.testing.assert_array_equal(block[0], batch[:, 0])
        assert not np.isfinite(block[1:4, 2]).any()  # every entry with dk/dT

    @pytest.mark.parametrize("width", [2, 11])
    def test_one_column_is_its_column_in_a_batch_on_edge_states(self, width):
        edges = [*self.STATES,
                 [np.nan, 0.8, 300.0, 130.0], [0.6, 0.8, np.nan, 130.0],
                 [0.6, 0.8, 300.0, np.nan], [0.6, 0.8, np.inf, 130.0],
                 [0.6, 0.8, -np.inf, 130.0], [np.inf, -np.inf, 300.0, 130.0],
                 [0.6, 0.8, -5.0, 130.0], [-0.3, -0.4, 300.0, -130.0],
                 [-0.3, 0.4, 1e4, 130.0]]
        rng = np.random.default_rng(33 + width)
        for k, edge in enumerate(edges):
            X = np.column_stack([random_joint_state(rng) for _ in range(width)])
            i = k % width
            X[:, i] = edge
            with np.errstate(all="ignore"):
                batch = cstr3_drift(X, 0.006)[:, i]
                one = cstr3_drift(X[:, i:i + 1], 0.006)
                rates = np.array([*cstr3_rates(*edge, 0.006 / V)[:3], 0.0])
            assert one.shape == (4, 1)
            for got in (one[:, 0], rates):
                np.testing.assert_array_equal(got, batch)  # NaNs match by position
                assert np.array_equal(np.signbit(got), np.signbit(batch))


class TestJointKernel:
    def test_batch_equals_columns_bitwise(self):
        # the UKF, EnKF and PF evaluate column batches
        rng = np.random.default_rng(14)
        X = np.column_stack([random_joint_state(rng) for _ in range(9)]
                            + [[*EMPTY_REACTOR[:3], 120.0], [0.0, 0.0, 320.0, -120.0]])
        D = cstr3_drift(X, 0.006)
        assert D.shape == (4, 11)
        for i in range(11):
            assert D[:, i].tobytes() == cstr3_drift(X[:, i:i + 1], 0.006).tobytes()

    @pytest.mark.parametrize("width", [1, 11, 1000])
    def test_every_width_is_bitwise_its_columns_and_the_linearization(self, width, monkeypatch):
        # the UKF and the members run at these widths, and one column takes
        # the same batch path, each width on its own constant tables; an
        # empty cache first builds the other widths'
        monkeypatch.setattr(cstr, "_TABLES", {})
        for other in (1000, 11, 1, 3):
            if other != width:
                cstr3_drift(np.ones((4, other)), 0.006)
        rng = np.random.default_rng(30 + width)
        states = [random_joint_state(rng) for _ in range(width)]
        states[:2] = [[*EMPTY_REACTOR[:3], 120.0], [0.0, 0.0, 320.0, -120.0]][:width]
        X = np.column_stack(states)
        F = rng.uniform(1e-3, 0.02)
        D = cstr3_drift(X, F)
        assert D.shape == (4, width)
        for i in range(width):
            column = cstr3_drift(X[:, i:i + 1], F)[:, 0]
            f = cstr3_linearize(X[:, i], F)[0]
            # the float kernel that the EKF, the truth and the reduced models use
            rates = np.array([*cstr3_rates(*X[:, i].tolist(), F / V)[:3], 0.0])
            assert D[:, i].tobytes() == column.tobytes() == f.tobytes() == rates.tobytes()
        assert set(cstr._TABLES) == {1000, 11, 1, 3}

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
            assert block[0].tobytes() == D[:, i].tobytes()
            assert other[0].tobytes() == E[:, i].tobytes()
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
    def test_residual_after_back_substitution(self):
        lo, hi = steady_state_range(PARAMS)
        for T_s in np.linspace(lo + 0.5, hi - 0.5, 50):
            F_s = steady_state_flow(float(T_s), PARAMS)
            CA, CB = adiabatic_concentrations(T_s, PARAMS)
            d = cstr3_drift(np.array([[CA], [CB], [T_s], [PARAMS.beta]]), F_s)
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
        # the appended parameter state uses the live column, not params.beta
        d = m.drift(0.0, z[:, None], u)[:, 0]
        F = u[0]
        r = arrhenius(310.0) * 0.3 * 0.6
        assert d[2] == pytest.approx(F / V * (T_IN - 310.0) + 128.0 * r, rel=1e-12)

    def test_augmented_jacobian_vs_finite_differences(self):
        m = joint_model()
        rng = np.random.default_rng(31)
        u = np.array([0.007])
        for _ in range(20):
            z = random_joint_state(rng)
            J = m.linearize(0.0, z, u)[1:]
            Jfd = fd_jacobian(lambda w: m.drift(0.0, w[:, None], u)[:, 0], z)
            assert np.all(np.abs(J - Jfd) <= 1e-6 * np.maximum(np.abs(Jfd), 1e-10))

    def test_beta_jacobian_formula(self):
        m = joint_model()
        z = np.array([0.5, 0.7, 320.0, 120.0])
        col = m.linearize(0.0, z, np.array([0.007]))[1:, 3]
        r = arrhenius(320.0) * 0.5 * 0.7
        np.testing.assert_allclose(col, [0.0, 0.0, r, 0.0], rtol=1e-14)

    def test_parameter_noise_adds_channel(self):
        m = joint_model(0.5)
        assert m.dim_noise == 2
        g = m.diffusion(FLOW.at(0.0))
        assert g.shape == (4, 2)
        assert g[3, 1] == 0.5
        with pytest.raises(ValueError):
            joint_model(-0.5)


BREAKPOINT_INTERVALS = [(195.0, 205.0, 10), (199.25, 201.25, 4)]


def per_stage_inputs(u, t0, t1, substeps):
    # the interval's stage inputs looked up one stage time at a time
    h = (t1 - t0) / substeps
    return np.array([[u.at(t), u.at(t + 0.5 * h), u.at(t + h)]
                     for t in (t0 + j * h for j in range(substeps))])


def uncached_ekf_predict(model, belief, u, t1, substeps):
    # the moment ODEs with the diffusion evaluated afresh at every stage
    n = belief.dim

    def rhs(t, y, u):
        m = y[:n]
        out = np.empty_like(y)
        out[:n] = model.drift(t, m[:, None], u)[:, 0]
        A = model.linearize(t, m, u)[1:]
        g = np.asarray(model.diffusion(u), dtype=float)
        AP = A @ y[n:].reshape(n, n)
        out[n:].reshape(n, n)[...] = AP + AP.T + g @ g.T
        return out

    h = (t1 - belief.time) / substeps
    y = np.concatenate((belief.mean, belief.cov.ravel()))
    for j, inputs in enumerate(interval_inputs(u, belief.time, t1, substeps)):
        y = rk4_step(rhs, belief.time + j * h, y, h, inputs)
        P = y[n:].reshape(n, n)
        P[...] = 0.5 * (P + P.T)
        y[:n] = model.constrain(y[:n])
    return y[:n], y[n:].reshape(n, n)


def uncached_ukf_predict(model, belief, u, t1, scaling, substeps):
    # the sigma-point push with g dW evaluated afresh at both half-steps
    from cdassim.filters.beliefs import GaussianBelief
    from cdassim.filters.unscented import ukf_sigma_points

    t0 = belief.time
    n, q = belief.dim, model.dim_noise
    cov = np.zeros((n + q, n + q))
    cov[:n, :n] = belief.cov
    cov[n:, n:] = (t1 - t0) * np.eye(q)
    points, wm, wc = ukf_sigma_points(
        GaussianBelief(np.concatenate((belief.mean, np.zeros(q))), cov, t0), scaling)
    h = (t1 - t0) / substeps
    pts = points[:n]
    dW = points[n:] / (2.0 * substeps)
    for j, inputs in enumerate(interval_inputs(u, t0, t1, substeps)):
        t = t0 + j * h
        pts = pts + model.diffusion(inputs[0]) @ dW
        pts = rk4_step(model.drift, t, pts, h, inputs)
        pts = pts + model.diffusion(inputs[2]) @ dW
        pts = model.constrain(pts)
    m = pts @ wm
    dev = pts - m[:, None]
    S = (dev * wc) @ dev.T
    return m, 0.5 * (S + S.T)


class TestStageInputs:
    @pytest.mark.parametrize("t0, t1, substeps", BREAKPOINT_INTERVALS)
    def test_predictions_across_a_breakpoint_match_per_call_lookup(self, t0, t1, substeps):
        # the vectorized stage-input table must reproduce one lookup per stage
        from cdassim.filters.beliefs import GaussianBelief
        from cdassim.filters.kalman import ekf_predict
        from cdassim.filters.unscented import ukf_predict

        model = joint_model()
        belief = GaussianBelief(np.array([0.4, 0.8, 300.0, 125.0]),
                                np.diag([1e-4, 1e-4, 4.0, 25.0]), time=t0)
        for predict in (
            lambda inputs: ekf_predict(model, belief, inputs, t1),
            lambda inputs: ukf_predict(model, belief, inputs, t1, UNIT_SCALING),
        ):
            table = predict(interval_inputs(FLOW, t0, t1, substeps))
            calls = predict(per_stage_inputs(FLOW, t0, t1, substeps))
            assert np.array_equal(table.mean, calls.mean)
            assert np.array_equal(table.cov, calls.cov)

    @pytest.mark.parametrize("sigma_theta", [0.0, 0.05])
    @pytest.mark.parametrize("t0, t1, substeps", BREAKPOINT_INTERVALS)
    def test_diffusion_table_matches_per_stage_evaluation(self, t0, t1, substeps, sigma_theta):
        # the predictions evaluate the diffusion once per input value; a
        # wrong table key would reuse the pre-breakpoint flow's noise after it
        from cdassim.filters.beliefs import GaussianBelief
        from cdassim.filters.kalman import ekf_predict
        from cdassim.filters.unscented import UkfScaling, ukf_predict

        model = joint_model(sigma_theta)
        belief = GaussianBelief(np.array([0.4, 0.8, 300.0, 125.0]),
                                np.diag([1e-4, 1e-4, 4.0, 25.0]), time=t0)
        scaling = UkfScaling(alpha=0.2, beta=2.0, kappa=0.0)
        inputs = interval_inputs(FLOW, t0, t1, substeps)
        pairs = (
            (ekf_predict(model, belief, inputs, t1),
             uncached_ekf_predict(model, belief, FLOW, t1, substeps)),
            (ukf_predict(model, belief, inputs, t1, scaling),
             uncached_ukf_predict(model, belief, FLOW, t1, scaling, substeps)),
        )
        for got, (mean, cov) in pairs:
            assert np.array_equal(got.mean, mean)
            assert np.array_equal(got.cov, cov)

    @pytest.mark.parametrize("t0, t1, substeps", BREAKPOINT_INTERVALS)
    def test_member_propagation_across_a_breakpoint_matches_per_call_lookup(
            self, t0, t1, substeps):
        from cdassim.sde import propagate_members

        model = joint_model(0.05)
        rng = np.random.default_rng(17)
        X = np.column_stack([random_joint_state(rng) for _ in range(50)])
        stream = NoiseStream(23)
        table = propagate_members(model, X, interval_inputs(FLOW, t0, t1, substeps), t0, t1,
                                  stream.generator())
        calls = propagate_members(model, X, per_stage_inputs(FLOW, t0, t1, substeps), t0, t1,
                                  stream.generator())
        assert np.array_equal(table, calls)
        # both arms above share the stage table; the reference looks up each substep
        _, path = euler_maruyama_path(model, X, FLOW, t0, t1, (t1 - t0) / substeps, stream)
        assert np.array_equal(table, path[-1])


class TestMemberKernel:
    """The members' in-place Euler-Maruyama loop against the reference path."""

    T0, T1, SUBSTEPS = 195.0, 205.0, 10  # crosses the 200 s flow breakpoint

    @pytest.mark.parametrize("sigma_theta, channels", [(0.0, 1), (0.05, 2)])
    def test_matches_euler_maruyama_steps_bit_for_bit(self, sigma_theta, channels):
        from cdassim.sde import propagate_members

        model = joint_model(sigma_theta)
        assert model.dim_noise == channels
        rng = np.random.default_rng(29)
        X0 = np.column_stack([random_joint_state(rng) for _ in range(1000)])
        inputs = interval_inputs(FLOW, self.T0, self.T1, self.SUBSTEPS)
        stream = NoiseStream(41, channels)
        X1 = propagate_members(model, X0, inputs, self.T0, self.T1, stream.generator())

        h = (self.T1 - self.T0) / self.SUBSTEPS
        _, path = euler_maruyama_path(model, X0, FLOW, self.T0, self.T1, h, stream)
        assert np.array_equal(X1, path[-1])
        assert X1.flags.c_contiguous
        assert not np.array_equal(X1, X0)

    def test_non_finite_diffusion_names_the_first_substep_with_its_input(self):
        from cdassim.sde import propagate_members

        model = joint_model(0.05)
        early_flow, late_flow = FLOW.at(self.T0)[0], FLOW.at(self.T1)[0]
        calls = []

        def diffusion(u):
            calls.append(u[0])
            g = model.diffusion(u)
            return g * np.nan if u[0] == late_flow else g

        broken = dataclasses.replace(model, diffusion=diffusion)
        X0 = np.column_stack([EMPTY_REACTOR] * 8)
        with pytest.raises(DivergenceError, match=r"non-finite drift/diffusion at t=200\.0$"):
            propagate_members(broken, X0, interval_inputs(FLOW, self.T0, self.T1, self.SUBSTEPS),
                              self.T0, self.T1, NoiseStream(3).generator())
        assert calls == [early_flow, late_flow]  # once per distinct input value


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
