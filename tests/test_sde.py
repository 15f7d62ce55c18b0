"""The integrators' shared contracts and the noise streams.

The members' Euler-Maruyama kernel, :func:`~cdassim.sde.propagate_members`,
against the plain reference path of ``stages.euler_maruyama_path``; each
integrator (the EKF's moments, the UKF's sigma points, the members) on the
one stage-input table against its own per-stage reference; the table
itself, the shared RK4 stepper, the input profiles and the counter-based
:class:`~cdassim.sde.NoiseStream`.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cdassim.config import load_config
from cdassim.cstr import default_experiment_model
from cdassim.filters.beliefs import GaussianBelief
from cdassim.filters.kalman import ekf_predict
from cdassim.filters.unscented import ukf_predict, ukf_sigma_points
from cdassim.sde import (
    DivergenceError,
    NoiseStream,
    PiecewiseConstant,
    SdeModel,
    propagate_members,
    rk4_inputs,
    rk4_step,
)

from stages import (
    UNIT_SCALING,
    constant,
    euler_maruyama_path,
    fd_jacobian,
    interval_inputs,
    linear_sde,
)

CONFIG = load_config()
FLOW = CONFIG.flow_profile()


def cstr_model(sigma_theta: float) -> SdeModel:
    """The joint CSTR model with beta's random-walk channel at ``sigma_theta``."""
    return default_experiment_model(CONFIG.cstr_params(), FLOW, param_diffusion=sigma_theta).model


class FixedNormals:
    """Generator stand-in whose standard normals are ``z``, broadcast to the requested shape."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, shape):
        return np.broadcast_to(self.z, shape).copy()


def increments(stream: NoiseStream, shape, dt: float) -> np.ndarray:
    # Wiener increments N(0, dt) as the Euler-Maruyama steppers draw them
    return stream.generator().standard_normal(shape) * np.sqrt(dt)


class TestNoiseStream:
    def test_replay_is_bitwise_identical(self):
        s = NoiseStream(seed=1234, stream_id=7)
        a = increments(s, 100, 0.25)
        b = increments(s, 100, 0.25)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        s = NoiseStream(seed=1234)
        a = increments(s.child(0), 50, 0.1)
        b = increments(s.child(1), 50, 0.1)
        assert not np.array_equal(a, b)

    def test_child_chains_are_stable(self):
        s = NoiseStream(seed=99)
        assert s.child(3).child(5) == s.child(3).child(5)
        assert s.child(3).child(5) != s.child(5).child(3)

    def test_increment_moments(self):
        s = NoiseStream(seed=42, stream_id=1)
        dw = increments(s, 10**6, 0.1)
        assert abs(dw.mean()) < 5e-4
        assert abs(dw.var() - 0.1) < 0.001  # within 1%

    @pytest.mark.parametrize("stream", [
        NoiseStream(seed=2**64 - 1, stream_id=3),
        NoiseStream(seed=7).child(4).child(2**40).child(0),
        NoiseStream(seed=2**64 - 1).child(1).child(9),
        NoiseStream(seed=5, stream_id=11),
    ])
    def test_seat_replays_a_fresh_generator(self, stream):
        # a partly used generator, of another stream or of this one, seated,
        # draws what a fresh generator of this stream draws; the uint32 draw
        # leaves a half word buffered (has_uint32 set)
        g = NoiseStream(seed=5, stream_id=11).generator()
        g.standard_normal(7)
        g.uniform(size=3)
        g.integers(0, 1000, size=5, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"] == 1
        assert stream.seat(g) is g
        fresh = stream.generator()
        # the stream's Philox key is the 128-bit (seed << 64) | stream_id
        key = (stream.seed << 64) | stream.stream_id
        assert repr(fresh.bit_generator.state) == repr(np.random.Philox(key=key).state)
        for draw in (lambda r: r.standard_normal((3, 5)), lambda r: r.uniform(),
                     lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda r: r.standard_normal(4)):
            assert np.array_equal(draw(g), draw(fresh))
        assert repr(g.bit_generator.state) == repr(fresh.bit_generator.state)


class TestPropagateMembers:
    """The members' Euler-Maruyama kernel: each substep is ``x + f dt + g dw``."""

    @pytest.mark.parametrize("a, sigma, x0, h, z, expected", [
        (0.0, 0.0, [3.0], 0.1, 0.0, [3.0]),  # zero drift and noise: the identity
        (1.0, 0.0, [1.0], 0.1, 0.0, [0.9]),  # a deterministic linear step
        (0.0, 2.0, [0.0], 0.25, 1.0, [1.0]),  # a standard normal of 1 is dw = sqrt(h) = 0.5
        (1.0, 1.0, [1.0, 2.0, 4.0], 0.5, np.array([0.1, 0.0, -0.1]) / np.sqrt(0.5),
         [0.6, 1.0, 1.9]),  # a batch, each member with its own increment
    ], ids=["identity", "linear step", "noise", "batch"])
    def test_one_substep(self, a, sigma, x0, h, z, expected):
        # dx = -a x dt + sigma dw on fixed standard normals z; every expected
        # value but the batch's, whose increments are rounded, is exact
        out = propagate_members(linear_sde(a, sigma), np.array([x0]),
                                interval_inputs(constant(0.0), 0.0, h, 1), 0.0, h,
                                FixedNormals(z))
        if len(x0) == 1:
            assert np.array_equal(out, [expected])
        else:
            np.testing.assert_allclose(out, [expected], rtol=1e-15, atol=1e-15)

    def test_matches_discrete_chain_moments(self):
        # the per-substep update has exactly computable mean and variance, so
        # the sample statistics must match them to Monte Carlo accuracy
        a, sigma, x0, t1 = 0.8, 0.5, 2.0, 1.0
        K, N = 40, 20000
        X1 = propagate_members(linear_sde(a, sigma), np.full((1, N), x0),
                               interval_inputs(constant(0.0), 0.0, t1, K), 0.0, t1,
                               NoiseStream(7, 3).generator())
        h = t1 / K
        factor = 1.0 - a * h
        mean_exact = x0 * factor**K
        var_exact = sigma**2 * h * (1.0 - factor ** (2 * K)) / (1.0 - factor**2)
        assert X1.mean() == pytest.approx(mean_exact, abs=4.0 * np.sqrt(var_exact / N))
        assert X1.var(ddof=1) == pytest.approx(var_exact, rel=4.0 * np.sqrt(2.0 / N))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("drift, x0, message", [
        (lambda t, x, u: np.full_like(x, np.inf), [1.0], r"^non-finite drift/diffusion at t=0\.0$"),
        # a bounded drift that pushes positive members past the float range
        (lambda t, x, u: np.where(x > 0, 1.7e308, 0.0), [-1.0, 50.0], "member 1"),
        # the drift itself overflows during a substep
        (lambda t, x, u: x**3, [0.1, 50.0], r"^non-finite drift/diffusion at t=1\.0$"),
    ], ids=["non-finite drift", "diverged member", "mid-step overflow"])
    def test_divergence_is_reported(self, drift, x0, message):
        model = SdeModel(dim_noise=1, drift=drift, diffusion=lambda u: np.zeros((1, 1)),
                         measure=lambda t, x: x)
        with pytest.raises(DivergenceError, match=message):
            propagate_members(model, np.array([x0]), interval_inputs(constant(0.0), 0.0, 2.0, 8),
                              0.0, 2.0, NoiseStream(2).generator())

    def test_non_finite_diffusion_names_the_first_substep_with_its_input(self):
        model = cstr_model(0.05)
        calls = []

        def diffusion(u):
            calls.append(u[0])
            g = model.diffusion(u)
            return g * np.nan if u[0] == FLOW.at(205.0)[0] else g

        broken = dataclasses.replace(model, diffusion=diffusion)
        X0 = np.column_stack([[0.0, 0.0, 273.65, 133.7792]] * 8)
        with pytest.raises(DivergenceError, match=r"non-finite drift/diffusion at t=200\.0$"):
            propagate_members(broken, X0, interval_inputs(FLOW, 195.0, 205.0, 10), 195.0, 205.0,
                              NoiseStream(3).generator())
        assert calls == [FLOW.at(195.0)[0], FLOW.at(205.0)[0]]  # once per distinct input value


def predict(integrator: str, model: SdeModel, state, t0: float, t1: float):
    """``state`` from ``t0`` to ``t1`` on a zero input: a belief at ``t0`` for
    the EKF and the UKF, a member batch for the members' kernel."""
    inputs = interval_inputs(constant(0.0), t0, t1)
    if integrator == "members":
        return propagate_members(model, state, inputs, t0, t1, NoiseStream(1).generator())
    if integrator == "ekf":
        return ekf_predict(model, state, inputs, t1)
    return ukf_predict(model, state, inputs, t1, UNIT_SCALING)


@pytest.mark.parametrize("integrator", ["ekf", "ukf", "members"])
def test_each_integrator_keeps_a_zero_length_interval_and_rejects_a_backward_one(integrator):
    # a belief comes back as itself, members as an equal copy
    model = linear_sde(1.0, 0.5)
    state = (np.array([[1.0, 2.0]]) if integrator == "members"
             else GaussianBelief(np.ones(1), np.ones((1, 1)), time=3.0))
    same = predict(integrator, model, state, 3.0, 3.0)
    if integrator == "members":
        assert np.array_equal(same, state) and same is not state
    else:
        assert same is state
    with pytest.raises(ValueError):
        predict(integrator, model, state, 3.0, 2.0)


@pytest.mark.parametrize("constrain", [lambda x: np.maximum(x, 0.5),
                                       lambda x: np.maximum(x, 0.5, out=x)],
                         ids=["returns a new array", "writes in place"])
@pytest.mark.parametrize("integrator", ["ekf", "ukf", "members"])
def test_each_integrator_applies_the_constraint(integrator, constrain):
    # a fast decay toward 0, held at 0.5 by the constraint in either form the
    # model allows, so a prediction must use what it returns: the EKF's mean,
    # the UKF's sigma points (so no spread is left), the members
    model = dataclasses.replace(linear_sde(5.0, 0.0), constrain=constrain)
    state = (np.array([[0.9, 1.0, 1.1]]) if integrator == "members"
             else GaussianBelief(np.ones(1), 0.01 * np.ones((1, 1))))
    out = predict(integrator, model, state, 0.0, 2.0)
    if integrator == "members":
        assert np.all(out == 0.5)
    else:
        assert out.mean[0] == pytest.approx(0.5)
    if integrator == "ukf":
        assert out.cov[0, 0] == pytest.approx(0.0, abs=1e-12)


def driven_rows_model(channels: int, driven: dict) -> SdeModel:
    # a (4, channels) diffusion nonzero in the rows of ``driven``, each entry
    # scaling with the input, and a drift whose rows do not interact
    def diffusion(u):
        g = np.zeros((4, channels))
        for row, scales in driven.items():
            g[row] = u[0] * np.array(scales[:channels])
        return g

    return SdeModel(dim_noise=channels, drift=lambda t, x, u: u[0] * np.cos(x) - 0.4 * x,
                    diffusion=diffusion, measure=lambda t, x: x[:1])


DRIVEN_ROWS = {"one row": {2: (0.4, -0.1)},
               "rows 0 and 3": {0: (0.3, 0.0), 3: (-0.2, 0.5)},
               "rows 1 and 2": {1: (0.25, 0.0), 2: (-0.6, 0.3)},
               "no row": {}}
A2, G2 = np.array([[-0.5, 0.2], [0.1, -0.3]]), np.array([[0.4, 0.0], [0.3, 0.2]])

# name -> (model, members, input profile, t0, t1, substeps, noise stream, rows that
# another stream moves)
REFERENCE_CASES = {
    # a time-varying drift through two noise channels
    "linear 2-d": lambda: (
        SdeModel(dim_noise=2, drift=lambda t, x, u: A2 @ x + u[:, None] * (1.0 + t),
                 diffusion=lambda u: G2, measure=lambda t, x: x[:1]),
        np.random.default_rng(3).standard_normal((2, 7)), constant([0.1, -0.2]), 0.5, 1.3, 6,
        NoiseStream(31, 4), [True, True]),
    # input breakpoints on substep starts, and a noise that scales with the input
    "breakpoints on substeps": lambda: (
        SdeModel(dim_noise=1, drift=lambda t, x, u: u - x,
                 diffusion=lambda u: np.atleast_2d(0.3 * u), measure=lambda t, x: x),
        np.array([[0.2]]), PiecewiseConstant(times=[0.0, 0.5, 0.75],
                                             values=[[1.0], [-2.0], [0.5]]), 0.0, 1.0, 20,
        NoiseStream(4), [True]),
    # g dw goes only into the span of rows the diffusion drives; two input
    # values inside the interval, so two diffusions and spans
    **{f"{pattern} ({channels} channel{'s' * (channels > 1)})":
       lambda channels=channels, driven=driven: (
           driven_rows_model(channels, driven),
           np.random.default_rng(channels).uniform(0.5, 2.0, (4, 7)),
           PiecewiseConstant(times=[0.0, 0.45], values=[[1.5], [0.7]]), 0.0, 1.0, 20,
           NoiseStream(19, channels), [row in driven for row in range(4)])
       for pattern, driven in DRIVEN_ROWS.items() for channels in (1, 2)},
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_propagate_members_is_the_reference_path_bit_for_bit(case):
    # every increment comes from one (substeps, dim_noise, N) draw of the
    # stream: substep j of member i uses block[j, :, i], as in the reference
    model, X0, u, t0, t1, substeps, stream, moved = REFERENCE_CASES[case]()
    out = propagate_members(model, X0, interval_inputs(u, t0, t1, substeps), t0, t1,
                            stream.generator())
    _, states = euler_maruyama_path(model, X0, u, t0, t1, (t1 - t0) / substeps, stream)
    assert np.array_equal(out, states[-1]) and out.flags.c_contiguous
    _, other = euler_maruyama_path(model, X0, u, t0, t1, (t1 - t0) / substeps,
                                   NoiseStream(stream.seed + 1, stream.stream_id))
    np.testing.assert_array_equal((out != other[-1]).any(axis=1), moved)


def per_stage_inputs(u, t0, t1, substeps):
    # the interval's stage inputs looked up one stage time at a time
    h = (t1 - t0) / substeps
    return np.array([[u.at(t), u.at(t + 0.5 * h), u.at(t + h)]
                     for t in (t0 + j * h for j in range(substeps))])


def uncached_ekf_predict(model, belief, u, t1, substeps):
    # the moment ODEs on per-stage lookups, the diffusion evaluated afresh at every stage
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
    for j, inputs in enumerate(per_stage_inputs(u, belief.time, t1, substeps)):
        y = rk4_step(rhs, belief.time + j * h, y, h, inputs)
        P = y[n:].reshape(n, n)
        P[...] = 0.5 * (P + P.T)
        y[:n] = model.constrain(y[:n])
    return y[:n], y[n:].reshape(n, n)


def uncached_ukf_predict(model, belief, u, t1, scaling, substeps):
    # the sigma-point push on per-stage lookups, g dW evaluated afresh at both half-steps
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
    for j, inputs in enumerate(per_stage_inputs(u, t0, t1, substeps)):
        t = t0 + j * h
        pts = pts + model.diffusion(inputs[0]) @ dW
        pts = rk4_step(model.drift, t, pts, h, inputs)
        pts = pts + model.diffusion(inputs[2]) @ dW
        pts = model.constrain(pts)
    m = pts @ wm
    dev = pts - m[:, None]
    S = (dev * wc) @ dev.T
    return m, 0.5 * (S + S.T)


@pytest.mark.parametrize("sigma_theta", [0.0, 0.05])
@pytest.mark.parametrize("t0, t1, substeps", [(195.0, 205.0, 10), (199.25, 201.25, 4)])
@pytest.mark.parametrize("integrator", ["ekf", "ukf", "members"])
def test_each_integrator_on_the_stage_table_is_its_per_stage_reference(integrator, t0, t1,
                                                                       substeps, sigma_theta):
    # across the 200 s flow step, with stages that land on it: the one stage
    # table, and the diffusion evaluated once per input value, give what a
    # lookup and a diffusion call per stage give; a wrong table key would
    # reuse the pre-breakpoint flow's noise after it
    model = cstr_model(sigma_theta)
    table = interval_inputs(FLOW, t0, t1, substeps)
    belief = GaussianBelief(np.array([0.4, 0.8, 300.0, 125.0]),
                            np.diag([1e-4, 1e-4, 4.0, 25.0]), time=t0)
    if integrator == "members":  # the reference path looks up each substep's input
        X = np.random.default_rng(17).uniform([[0.0], [0.0], [273.0], [100.0]],
                                              [[1.5], [1.5], [500.0], [160.0]], (4, 100))
        got = propagate_members(model, X, table, t0, t1, NoiseStream(23).generator())
        _, path = euler_maruyama_path(model, X, FLOW, t0, t1, (t1 - t0) / substeps,
                                      NoiseStream(23))
        assert np.array_equal(got, path[-1])
        return
    scaling = CONFIG.ukf_scaling()
    if integrator == "ekf":
        got = ekf_predict(model, belief, table, t1)
        mean, cov = uncached_ekf_predict(model, belief, FLOW, t1, substeps)
    else:
        got = ukf_predict(model, belief, table, t1, scaling)
        mean, cov = uncached_ukf_predict(model, belief, FLOW, t1, scaling, substeps)
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.cov, cov)


def gbm_bundle_model(mu: float, n_paths: int) -> SdeModel:
    # n_paths independent GBM copies as one diagonal system, so the order
    # study runs through the reference path without a Python loop per path;
    # its noise nu x dw depends on the state, so no diffusion(u) can state
    # it: the reference path takes it as its own sigma(t, x, u)
    return SdeModel(
        dim_noise=n_paths,
        drift=lambda t, x, u: mu * x,
        diffusion=None,
        measure=lambda t, x: x,
    )


def gbm_coupled_errors(n_paths: int, dts: list[float], mu: float, nu: float,
                       seed: int, chunk: int = 250) -> tuple[np.ndarray, np.ndarray]:
    """Strong and weak Euler-Maruyama errors on GBM at t=1.

    Each numerical path is coupled to the exact solution
    x0 * exp((mu - nu^2/2) t + nu W(t)) built from the same increments, so
    the weak error can be estimated as a coupled mean difference whose
    variance is of the order of the squared strong error.
    """
    model = gbm_bundle_model(mu, chunk)
    root = NoiseStream(seed=seed, stream_id=0)
    strong = np.zeros(len(dts))
    weak = np.zeros(len(dts))
    for j, dt in enumerate(dts):
        diffs = []
        for c in range(n_paths // chunk):
            stream = root.child(j).child(c)
            times, states = euler_maruyama_path(model, np.ones(chunk), constant(), 0.0, 1.0, dt,
                                                stream, lambda t, x, u: np.diag(nu * x))
            w_total = increments(stream, (len(times) - 1, chunk), dt).sum(axis=0)
            exact = np.exp((mu - 0.5 * nu**2) * 1.0 + nu * w_total)
            diffs.append(states[-1] - exact)
        diffs = np.concatenate(diffs)
        strong[j] = np.abs(diffs).mean()
        weak[j] = abs(diffs.mean())
    return strong, weak


# ~10^4 paths keep the Monte-Carlo noise on the coupled estimators well
# below the discretization biases being measured.
GBM_N_PATHS = 10_000
GBM_DTS = [2.0**-k for k in range(4, 9)]


@pytest.fixture(scope="module")
def gbm_errors():
    return gbm_coupled_errors(GBM_N_PATHS, GBM_DTS, mu=1.0, nu=0.5, seed=2024)


class TestEulerMaruyamaOrders:
    def test_strong_order_half(self, gbm_errors):
        strong, _ = gbm_errors
        slope = np.polyfit(np.log2(GBM_DTS), np.log2(strong), 1)[0]
        assert 0.35 < slope < 0.65
        ratios = strong[:-1] / strong[1:]
        assert np.all(ratios > 1.25) and np.all(ratios < 1.6)  # ~sqrt(2) per halving

    def test_weak_order_one(self, gbm_errors):
        _, weak = gbm_errors
        slope = np.polyfit(np.log2(GBM_DTS), np.log2(weak), 1)[0]
        assert 0.8 < slope < 1.2


class TestRk4:
    def test_linear_step_is_quartic_taylor_polynomial(self):
        # one classical RK4 step on y' = A y applies exactly the degree-4
        # Taylor polynomial of expm(hA)
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        y = rng.normal(size=3)
        h = 0.3
        hA = h * A
        taylor = np.eye(3)
        term = np.eye(3)
        for k in range(1, 5):
            term = term @ hA / k
            taylor = taylor + term
        got = rk4_step(lambda t, z, u: A @ z, 0.0, y, h, (None, None, None))
        np.testing.assert_allclose(got, taylor @ y, rtol=0, atol=1e-14)

    def test_stage_inputs_match_per_call_lookup(self):
        # one table for a whole run must reproduce one lookup per stage and
        # one table per interval, bit for bit: a first measurement at the
        # initial time (a zero-length interval), intervals that straddle
        # the 200 s and 1500 s breakpoints and ones whose stages land on them
        t_init, substeps = 190.0, 4
        times = np.array([190.0, 193.3, 199.1, 200.7, 204.0, 1496.0, 1500.0, 1501.3, 1510.9])
        profile = PiecewiseConstant(times=[0.0, 200.0, 1500.0],
                                    values=[[0.010], [0.004], [0.007]])
        # a two-input staircase with a breakpoint every 7.5 s
        steps = 7.5 * np.arange(203)
        staircase = PiecewiseConstant(times=steps,
                                      values=np.column_stack((0.002 * np.arange(203),
                                                              np.sin(steps))))
        for u in (profile, staircase, constant([2.5, -1.0]), constant()):
            dim_u = u.values.shape[1]
            table = rk4_inputs(u, t_init, times, substeps)
            assert table.shape == (times.size, substeps, 3, dim_u)
            t0 = t_init
            for i, t1 in enumerate(times.tolist()):
                h = (t1 - t0) / substeps
                assert rk4_inputs(u, t0, [t1], substeps)[0].tobytes() == table[i].tobytes()
                for j in range(substeps):
                    t = t0 + j * h
                    expected = np.array([u.at(t), u.at(t + 0.5 * h), u.at(t + h)])
                    assert table[i, j].tobytes() == expected.tobytes()
                t0 = t1

    def test_constant_and_missing_inputs(self):
        ((u0, um, u1),), = rk4_inputs(constant([2.5]), 0.0, [0.1], 1)
        assert u0 == um == u1 == 2.5
        ((u0, _, _),), = rk4_inputs(constant(), 0.0, [0.1], 1)
        assert u0.size == 0


class TestFdJacobian:
    def test_quadratic(self):
        J = fd_jacobian(lambda x: np.array([x[0] ** 2, x[0] * x[1]]), np.array([2.0, 3.0]))
        assert np.allclose(J, [[4.0, 0.0], [3.0, 2.0]], rtol=1e-7)


class TestPiecewiseConstant:
    def test_lookup(self):
        p = PiecewiseConstant(times=[0.0, 10.0], values=[1.0, 2.0])
        assert p.at(0.0) == 1.0
        assert p.at(9.999) == 1.0
        assert p.at(10.0) == 2.0
        assert p.at(1e9) == 2.0
        assert p.at(-5.0) == 1.0
        np.testing.assert_array_equal(p.at([-5.0, 0.0, 9.999, 10.0, 1e9]),
                                      [[1.0], [1.0], [1.0], [2.0], [2.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant(times=[0.0, 0.0], values=[1.0, 2.0])
