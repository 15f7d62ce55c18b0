"""Closed-form test oracles: a scalar Kalman recursion and the reduced reactor models.

For dx = (b - a x) dt + sigma dw observed as y = x + v with v ~ N(0, R),
the time update over dt has the exact discrete form

    m' = phi m + (b / a) (1 - phi),        phi = exp(-a dt)
    P' = phi^2 P + sigma^2 (1 - phi^2) / (2 a)

(with the a -> 0 limits b dt and sigma^2 dt), and the measurement update is
the scalar Kalman formula. Nothing here touches the package's filter code.

The reduced reactor models are written out on numpy scalars, apart from
the package's single rate law: the 2-state model in the extent of reaction
X = (CB_IN - CB) / CB_IN and T, and the 1-state model in T with the
concentrations eliminated along the adiabatic branch. They read only the
reactor's constants from :mod:`cdassim.cstr`.
"""
import numpy as np

from cdassim.cstr import CA_IN, CB_IN, EA_R, K0, T_IN, V


def ou_transition(a: float, b: float, sigma: float, dt: float) -> tuple[float, float, float]:
    """Exact (phi, shift, q) with m' = phi m + shift and P' = phi^2 P + q."""
    if a == 0.0:
        return 1.0, b * dt, sigma**2 * dt
    phi = float(np.exp(-a * dt))
    return phi, (b / a) * (1.0 - phi), sigma**2 * (1.0 - phi**2) / (2.0 * a)


def scalar_kalman(a, b, sigma, R, m0, P0, times, ys, t0=0.0) -> dict[str, np.ndarray]:
    """Run the exact filter; returns per-step prior/posterior moments and gains."""
    times = np.asarray(times, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    n = times.size
    out = {key: np.empty(n)
           for key in ("prior_mean", "prior_var", "post_mean", "post_var", "gain")}
    m, P, t_prev = float(m0), float(P0), float(t0)
    for k in range(n):
        phi, shift, q = ou_transition(a, b, sigma, times[k] - t_prev)
        m = phi * m + shift
        P = phi * phi * P + q
        out["prior_mean"][k], out["prior_var"][k] = m, P
        K = P / (P + R)
        m = m + K * (ys[k] - m)
        P = (1.0 - K) * P
        out["post_mean"][k], out["post_var"][k] = m, P
        out["gain"][k] = K
        t_prev = float(times[k])
    return out


def arrhenius(T):
    """Rate constant k(T) = K0 exp(-EA_R / T) on numpy scalars; broadcasts over T."""
    return K0 * np.exp(-EA_R / np.float64(T))


def two_state_rates(X, T, F, beta) -> np.ndarray:
    """Rates of (X, T): CB = CB_IN (1 - X) and, by stoichiometry, CA = CA_IN - (CB_IN / 2) X."""
    CA = CA_IN - 0.5 * CB_IN * X
    CB = CB_IN * (1.0 - X)
    FV = F / V
    r = arrhenius(T) * CA * CB
    return np.array([-FV * X + 2.0 * r / CB_IN, FV * (T_IN - T) + beta * r])


def one_state_rate(T, F, beta):
    """Rate of T, with CA and CB read off T along the adiabatic branch."""
    rise = (np.float64(T) - T_IN) / beta
    CA, CB = CA_IN - rise, CB_IN - 2.0 * rise
    r = arrhenius(T) * CA * CB
    return F / V * (T_IN - T) + beta * r
