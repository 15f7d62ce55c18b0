"""SDE core: integrator ordering, noise streams, the shared RK4 stepper."""
from __future__ import annotations

import numpy as np
import pytest

from cdassim.sde import (
    DivergenceError,
    NoiseStream,
    PiecewiseConstant,
    SdeModel,
    euler_maruyama_step,
    rk4_inputs,
    rk4_step,
    simulate_path,
)

from stages import constant, fd_jacobian


def gbm_model(mu: float, nu: float) -> SdeModel:
    # Multiplicative noise: exercises the integrator interface beyond the
    # state-independent diffusion the filters assume.
    return SdeModel(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: mu * x,
        diffusion=lambda t, x, u: np.atleast_2d(nu * x),
        measure=lambda t, x: x,
    )


def linear_model(a: float, sigma: float) -> SdeModel:
    return SdeModel(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: -a * x,
        diffusion=lambda t, x, u: np.array([[sigma]]),
        measure=lambda t, x: x,
    )


def increments(stream: NoiseStream, shape, dt: float) -> np.ndarray:
    # Wiener increments N(0, dt) as simulate_path and the filters draw them
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
        for draw in (lambda r: r.standard_normal((3, 5)), lambda r: r.uniform(),
                     lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda r: r.standard_normal(4)):
            assert np.array_equal(draw(g), draw(fresh))
        assert repr(g.bit_generator.state) == repr(fresh.bit_generator.state)


class TestEulerMaruyamaStep:
    def test_zero_drift_zero_noise_is_identity(self):
        m = linear_model(0.0, 0.0)
        x = np.array([3.0])
        out = euler_maruyama_step(m, 0.0, x, None, 0.1, np.zeros(1))
        assert np.array_equal(out, x)

    def test_deterministic_linear_step(self):
        m = linear_model(1.0, 0.0)
        out = euler_maruyama_step(m, 0.0, np.array([1.0]), None, 0.1, np.zeros(1))
        assert out == pytest.approx(0.9)

    def test_noise_enters_linearly(self):
        m = linear_model(0.0, 2.0)
        out = euler_maruyama_step(m, 0.0, np.array([0.0]), None, 0.1, np.array([0.5]))
        assert out == pytest.approx(1.0)

    def test_batch_states(self):
        m = linear_model(1.0, 1.0)
        X = np.array([[1.0, 2.0, 4.0]])
        dw = np.array([[0.1, 0.0, -0.1]])
        out = euler_maruyama_step(m, 0.0, X, None, 0.5, dw)
        assert out.shape == (1, 3)
        assert np.allclose(out, [[0.6, 1.0, 1.9]])

    def test_nonfinite_drift_raises(self):
        bad = SdeModel(
            dim_state=1, dim_noise=1,
            drift=lambda t, x, u: np.array([np.inf]),
            diffusion=lambda t, x, u: np.array([[1.0]]),
            measure=lambda t, x: x,
        )
        with pytest.raises(DivergenceError, match="non-finite drift/diffusion at t=0.0"):
            euler_maruyama_step(bad, 0.0, np.array([1.0]), None, 0.1, np.zeros(1))


class TestSimulatePath:
    def test_grid_and_shapes(self):
        m = linear_model(0.5, 0.1)
        traj = simulate_path(m, [1.0], constant(), 0.0, 2.0, 0.25, NoiseStream(seed=3))
        assert len(traj) == 9
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        assert traj.states.shape == (9, 1)

    def test_determinism_bitwise(self):
        m = gbm_model(0.1, 0.3)
        a = simulate_path(m, [1.0], constant(), 0.0, 1.0, 0.01, NoiseStream(seed=11, stream_id=2))
        b = simulate_path(m, [1.0], constant(), 0.0, 1.0, 0.01, NoiseStream(seed=11, stream_id=2))
        assert np.array_equal(a.states, b.states)

    def test_incommensurate_dt_rejected(self):
        m = linear_model(1.0, 0.0)
        with pytest.raises(ValueError):
            simulate_path(m, [1.0], constant(), 0.0, 1.0, 0.3, NoiseStream(seed=1))

    def test_constrain_hook_applied(self):
        m = SdeModel(
            dim_state=1, dim_noise=1,
            drift=lambda t, x, u: np.array([-10.0]),
            diffusion=lambda t, x, u: np.array([[0.0]]),
            measure=lambda t, x: x,
            constrain=lambda x: np.maximum(x, 0.0, out=x),
        )
        traj = simulate_path(m, [0.5], constant(), 0.0, 1.0, 0.1, NoiseStream(seed=1))
        assert np.all(traj.states >= 0.0)
        assert traj.states[-1, 0] == 0.0

    def test_input_table_matches_per_step_lookup(self):
        # one vectorized lookup per path must reproduce one lookup per step,
        # including the steps that start exactly on a breakpoint
        p = PiecewiseConstant(times=[0.0, 0.5, 0.75], values=[[1.0], [-2.0], [0.5]])
        m = SdeModel(
            dim_state=1, dim_noise=1,
            drift=lambda t, x, u: u - x,
            diffusion=lambda t, x, u: np.atleast_2d(0.3 * u),
            measure=lambda t, x: x,
        )
        traj = simulate_path(m, [0.2], p, 0.0, 1.0, 0.05, NoiseStream(seed=4))
        np.testing.assert_array_equal(traj.inputs, [p.at(t) for t in traj.times])
        assert set(traj.inputs.ravel()) == {1.0, -2.0, 0.5}
        # the path shares one lookup table; this one looks up each step
        dws = NoiseStream(seed=4).generator().standard_normal((20, 1)) * np.sqrt(0.05)
        x = np.array([0.2])
        for i, t in enumerate(traj.times[:-1]):
            x = euler_maruyama_step(m, t, x, p.at(t), 0.05, dws[i])
            assert np.array_equal(traj.states[i + 1], x)


def gbm_bundle_model(mu: float, nu: float, n_paths: int) -> SdeModel:
    # n_paths independent GBM copies as one diagonal system, so the order
    # study runs through simulate_path without a Python loop per path.
    return SdeModel(
        dim_state=n_paths,
        dim_noise=n_paths,
        drift=lambda t, x, u: mu * x,
        diffusion=lambda t, x, u: np.diag(nu * x),
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
    model = gbm_bundle_model(mu, nu, chunk)
    root = NoiseStream(seed=seed, stream_id=0)
    strong = np.zeros(len(dts))
    weak = np.zeros(len(dts))
    for j, dt in enumerate(dts):
        diffs = []
        for c in range(n_paths // chunk):
            stream = root.child(j).child(c)
            traj = simulate_path(model, np.ones(chunk), constant(), 0.0, 1.0, dt, stream)
            w_total = increments(stream, (len(traj) - 1, chunk), dt).sum(axis=0)
            exact = np.exp((mu - 0.5 * nu**2) * 1.0 + nu * w_total)
            diffs.append(traj.states[-1] - exact)
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
        starts = np.concatenate(([t_init], times))[:-1]
        profile = PiecewiseConstant(times=[0.0, 200.0, 1500.0],
                                    values=[[0.010], [0.004], [0.007]])
        # a two-input staircase with a breakpoint every 7.5 s
        steps = 7.5 * np.arange(203)
        staircase = PiecewiseConstant(times=steps,
                                      values=np.column_stack((0.002 * np.arange(203),
                                                              np.sin(steps))))
        for u in (profile, staircase, constant([2.5, -1.0]), constant()):
            dim_u = u.values.shape[1]
            table = rk4_inputs(u, starts, (times - starts) / substeps, substeps)
            assert table.shape == (times.size, substeps, 3, dim_u)
            t0 = t_init
            for i, t1 in enumerate(times.tolist()):
                h = (t1 - t0) / substeps
                assert rk4_inputs(u, [t0], [h], substeps)[0].tobytes() == table[i].tobytes()
                for j in range(substeps):
                    t = t0 + j * h
                    expected = np.array([u.at(t), u.at(t + 0.5 * h), u.at(t + h)])
                    assert table[i, j].tobytes() == expected.tobytes()
                t0 = t1

    def test_constant_and_missing_inputs(self):
        ((u0, um, u1),), = rk4_inputs(constant([2.5]), [0.0], [0.1], 1)
        assert u0 == um == u1 == 2.5
        ((u0, _, _),), = rk4_inputs(constant(), [0.0], [0.1], 1)
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
