"""SDE core: the members' Euler-Maruyama kernel, integrator ordering, noise streams, the shared RK4 stepper."""
from __future__ import annotations

import numpy as np
import pytest

from cdassim.config import ConfigError, load_config
from cdassim.sde import (
    DivergenceError,
    NoiseStream,
    PiecewiseConstant,
    SdeModel,
    propagate_members,
    rk4_inputs,
    rk4_step,
)

from stages import constant, euler_maruyama_path, fd_jacobian, interval_inputs, linear_sde


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


class TestEulerMaruyamaStep:
    """One substep of :func:`propagate_members`: ``x + f dt + g dw``."""

    def test_zero_drift_zero_noise_is_identity(self):
        x = np.array([[3.0]])
        out = propagate_members(linear_sde(0.0, 0.0), x,
                                interval_inputs(constant(0.0), 0.0, 0.1, 1), 0.0, 0.1,
                                NoiseStream(seed=1).generator())
        assert np.array_equal(out, x)

    def test_deterministic_linear_step(self):
        out = propagate_members(linear_sde(1.0, 0.0), np.array([[1.0]]),
                                interval_inputs(constant(0.0), 0.0, 0.1, 1), 0.0, 0.1,
                                NoiseStream(seed=1).generator())
        assert out[0, 0] == pytest.approx(0.9)

    def test_noise_enters_linearly(self):
        # h = 0.25, so a standard normal of 1 is the increment dw = 0.5
        out = propagate_members(linear_sde(0.0, 2.0), np.array([[0.0]]),
                                interval_inputs(constant(0.0), 0.0, 0.25, 1), 0.0, 0.25,
                                FixedNormals(1.0))
        assert out[0, 0] == pytest.approx(1.0)

    def test_batch_states(self):
        dw = np.array([0.1, 0.0, -0.1])
        out = propagate_members(linear_sde(1.0, 1.0), np.array([[1.0, 2.0, 4.0]]),
                                interval_inputs(constant(0.0), 0.0, 0.5, 1), 0.0, 0.5,
                                FixedNormals(dw / np.sqrt(0.5)))
        assert out.shape == (1, 3)
        assert np.allclose(out, [[0.6, 1.0, 1.9]])

    def test_nonfinite_drift_raises(self):
        bad = SdeModel(
            dim_noise=1,
            drift=lambda t, x, u: np.array([np.inf]),
            diffusion=lambda u: np.array([[1.0]]),
            measure=lambda t, x: x,
        )
        with pytest.raises(DivergenceError, match="non-finite drift/diffusion at t=0.0"):
            propagate_members(bad, np.array([[1.0]]), interval_inputs(constant(), 0.0, 0.1, 1),
                              0.0, 0.1, NoiseStream(seed=1).generator())


class TestSimulatePath:
    """A sample path: :func:`propagate_members` across the substeps of an interval."""

    def test_grid_and_shapes(self):
        seen = []
        model = SdeModel(
            dim_noise=1,
            drift=lambda t, x, u: seen.append(t) or -0.5 * x,
            diffusion=lambda u: np.array([[0.1]]),
            measure=lambda t, x: x,
        )
        out = propagate_members(model, np.ones((1, 3)), interval_inputs(constant(), 0.0, 2.0, 8),
                                0.0, 2.0, NoiseStream(seed=3).generator())
        assert out.shape == (1, 3)
        assert seen == [0.25 * j for j in range(8)]

    def test_determinism_bitwise(self):
        def path():
            return propagate_members(linear_sde(0.1, 0.3), np.ones((1, 5)),
                                     interval_inputs(constant(0.0), 0.0, 1.0, 100), 0.0, 1.0,
                                     NoiseStream(seed=11, stream_id=2).generator())
        assert np.array_equal(path(), path())

    def test_incommensurate_dt_rejected(self):
        # the truth's step is the sampling interval over a whole substep
        # count, so a step that does not divide the interval cannot be asked for
        assert load_config(overrides={"substeps": 4}).substeps == 4
        for substeps in (2.5, 0):
            with pytest.raises(ConfigError, match="substeps"):
                load_config(overrides={"substeps": substeps})

    def test_constrain_hook_applied(self):
        m = SdeModel(
            dim_noise=1,
            drift=lambda t, x, u: np.full_like(x, -10.0),
            diffusion=lambda u: np.array([[0.0]]),
            measure=lambda t, x: x,
            constrain=lambda x: np.maximum(x, 0.0, out=x),
        )
        # one interval per substep, as the truth is recorded at each sample
        x = np.array([[0.5]])
        rng = NoiseStream(seed=1).generator()
        states = []
        for k in range(10):
            t0, t1 = 0.1 * k, 0.1 * (k + 1)
            x = propagate_members(m, x, interval_inputs(constant(), t0, t1, 1), t0, t1, rng)
            states.append(x[0, 0])
        assert min(states) >= 0.0
        assert states[-1] == 0.0

    def test_input_table_matches_per_step_lookup(self):
        # one table for the interval must reproduce one lookup per step,
        # including the steps that start exactly on a breakpoint
        p = PiecewiseConstant(times=[0.0, 0.5, 0.75], values=[[1.0], [-2.0], [0.5]])
        m = SdeModel(
            dim_noise=1,
            drift=lambda t, x, u: u - x,
            diffusion=lambda u: np.atleast_2d(0.3 * u),
            measure=lambda t, x: x,
        )
        table = interval_inputs(p, 0.0, 1.0, 20)
        times, states = euler_maruyama_path(m, [[0.2]], p, 0.0, 1.0, 0.05, NoiseStream(seed=4))
        np.testing.assert_array_equal(table[:, 0], [p.at(t) for t in times[:-1]])
        assert set(table[:, 0].ravel()) == {1.0, -2.0, 0.5}
        out = propagate_members(m, np.array([[0.2]]), table, 0.0, 1.0,
                                NoiseStream(seed=4).generator())
        assert np.array_equal(out, states[-1])


class TestDrivenRows:
    """:func:`propagate_members` pushes ``g dw`` only into the rows the diffusion drives."""

    # rows of a (4, channels) diffusion that are nonzero; each entry scales with the input
    PATTERNS = {
        "one row": {2: (0.4, -0.1)},
        "rows 0 and 3": {0: (0.3, 0.0), 3: (-0.2, 0.5)},
        "rows 1 and 2": {1: (0.25, 0.0), 2: (-0.6, 0.3)},
        "no row": {},
    }

    @staticmethod
    def model(channels: int, driven: dict) -> SdeModel:
        def diffusion(u):
            g = np.zeros((4, channels))
            for row, scales in driven.items():
                g[row] = u[0] * np.array(scales[:channels])
            return g

        return SdeModel(
            dim_noise=channels,
            drift=lambda t, x, u: u[0] * np.cos(x) - 0.4 * x,  # rows do not interact
            diffusion=diffusion,
            measure=lambda t, x: x[:1],
        )

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("pattern", list(PATTERNS))
    def test_matches_the_reference_path_bit_for_bit(self, channels, pattern):
        # two input values inside the interval, so two diffusions and spans
        p = PiecewiseConstant(times=[0.0, 0.45], values=[[1.5], [0.7]])
        model = self.model(channels, self.PATTERNS[pattern])
        X0 = np.random.default_rng(channels).uniform(0.5, 2.0, (4, 7))
        stream = NoiseStream(seed=19, stream_id=channels)
        out = propagate_members(model, X0, interval_inputs(p, 0.0, 1.0, 20), 0.0, 1.0,
                                stream.generator())
        _, states = euler_maruyama_path(model, X0, p, 0.0, 1.0, 0.05, stream)
        assert np.array_equal(out, states[-1])
        # another noise stream moves exactly the driven rows
        _, other = euler_maruyama_path(model, X0, p, 0.0, 1.0, 0.05,
                                       NoiseStream(seed=20, stream_id=channels))
        np.testing.assert_array_equal((out != other[-1]).any(axis=1),
                                      [row in self.PATTERNS[pattern] for row in range(4)])


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
