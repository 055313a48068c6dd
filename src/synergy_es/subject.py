"""Grey-box simulated subject: preference map + learning dynamics + noise.

The model is a static synergy-to-performance map feeding a stable,
unity-gain LTI system in the iteration domain, with additive Gaussian
output noise:

    u_i     = f(theta_i)^T lambda          (quadratic basis [th^2, th, 1])
    x_{i+1} = Phi x_i + Gamma u_i
    J_i     = Psi x_i + v_i,  v_i ~ N(mean, std^2)

Note the relative degree: J_i reflects the synergy applied one iteration
earlier.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import frexp, fsum, inf, isfinite

import numpy as np

from .config import (check_fields, format_matrix, format_vector, parse_matrix,
                     parse_section, parse_vector, parsed, read_config, write_config)

THETA_BOUNDS = (0.8, 2.4)
NOISE_BLOCK = 64  # standard normals drawn per call into the generator


class NonConcaveMapError(ValueError):
    """The quadratic coefficient is not negative, so no unique maximum exists."""


@dataclass(frozen=True)
class PreferenceMap:
    """Quadratic synergy-to-steady-state-performance map; lam is stored as
    a tuple of three floats, so equal maps compare and hash alike."""

    lam: tuple

    def __post_init__(self):
        check_fields(self, lengths={"lam": 3}, labels={"lam": "lambda"})

    def value(self, theta):
        """Steady-state performance at a synergy value (exact polynomial)."""
        th = np.asarray(theta, dtype=float)
        return self.lam[0] * th * th + self.lam[1] * th + self.lam[2]

    def derivatives(self, theta):
        """Analytic (first, second) derivatives at theta."""
        return 2.0 * self.lam[0] * theta + self.lam[1], 2.0 * self.lam[0]

    def optimum(self):
        """Unique maximizer -lam1/(2 lam0); requires strict concavity."""
        if self.lam[0] >= 0:
            raise NonConcaveMapError(
                "map is not strictly concave (lam[0] >= 0); no unique maximum")
        return -self.lam[1] / (2.0 * self.lam[0])


# The state update rounds each row of Phi x and Psi x as a chain of fused
# multiply-adds, fma(a, x, s) = a*x + s rounded once. fma is Dekker's exact
# product a*x = p + e (T. J. Dekker, Numer. Math. 18, 1971; a and x cut by
# Veltkamp's split into 26-bit halves) summed with s by math.fsum. That is
# exact while every nonzero |a| and |x| lies in [_TINY, _HUGE]; outside it
# each fma is rounded from its exact value in fractions.
_SPLIT = 134217729.0  # 2**27 + 1
_TINY, _HUGE = 2.0 ** -450, 2.0 ** 450


def _split(a):
    """(a, hi, lo) with a == hi + lo, each half 26 bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return a, hi, a - hi


def _in_range(values):
    return all(_TINY <= abs(v) <= _HUGE or not v for v in values)


def _chain_order(n):
    """Index order of a Phi row's chain: the order of OpenBLAS's Haswell
    gemv kernel for n <= 3; Psi's chain, and Phi's above 3, run 0, 1, ...,
    n-1 (numpy's gemv there is blocked, not a chain)."""
    return {1: (0,), 2: (1, 0), 3: (1, 0, 2)}.get(n, range(n))


def _chain_terms(coefficients, order):
    """(a_j0, j0, fma terms) of one chain. A term is (a, a_hi, a_lo, j), or
    (a, None, None, j) where a is 0 or a power of 2, so that a*x is exact."""
    j0, *rest = order
    terms = []
    for j in rest:
        a = coefficients[j]
        terms.append((a, None, None, j) if not a or abs(frexp(a)[0]) == 0.5
                     else (*_split(a), j))
    return coefficients[j0], j0, tuple(terms)


def _fma_chains(chains, xs):
    """Per chain of _chain_terms, fma(a_k, x_k, ... fma(a_1, x_1, a_0 * x_0)),
    each x = xs[j] split as (x, x_hi, x_lo)."""
    out = []
    for s, j, terms in chains:
        s *= xs[j][0]
        for a, ah, al, j in terms:
            x, xh, xl = xs[j]
            p = a * x
            if ah is None:
                s = p + s
                continue
            e = ((ah * xh - p) + ah * xl + al * xh) + al * xl  # a*x - p, exactly
            s = fsum((p, e, s)) if e else p + s  # e == 0: p + s is the fma
        out.append(s)
    return out


def _exact_fma_chains(chains, xs):
    """_fma_chains on values outside [_TINY, _HUGE]: each fma rounded from
    its exact value, or inf or nan where IEEE gives it."""
    out = []
    for s, j, terms in chains:
        s *= xs[j][0]
        for a, _, _, j in terms:
            x = xs[j][0]
            if not isfinite(x):
                s = a * x + s
            elif isfinite(s):  # else a*x + s is s: a*x is finite
                exact = Fraction(a) * Fraction(x) + Fraction(s)
                try:
                    s = float(exact)  # the sign of a 0 is lost to step's + 0.0
                except OverflowError:
                    s = inf if exact > 0 else -inf
        out.append(s)
    return out


@dataclass(frozen=True, eq=False)
class AdaptationDynamics:
    """Iteration-domain LTI (Phi, Gamma, Psi) modeling motor adaptation,
    stored as read-only float64 arrays (-0.0 kept); == is identity."""

    phi: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        n = len(np.atleast_1d(self.phi))
        check_fields(self, lengths={"phi": (n, n), "gamma": (n,), "psi": (n,)})
        own = vars(self)  # what step() reads, set past the frozen __setattr__
        # step()'s chains: one per row of Phi, then Psi's
        own["_chains"] = [*(_chain_terms(row, _chain_order(n)) for row in self.phi.tolist()),
                          _chain_terms(self.psi.tolist(), range(n))]
        own["_gamma"] = self.gamma.tolist()
        own["_fast"] = _in_range(self.phi.ravel().tolist() + self.psi.tolist())
        # the order-2 body's coefficients: per chain its first a, then the
        # fma's term (a, hi, lo), hi None where a*x is exact; Phi rows
        # start at x1, Psi at x0
        own["_order2"] = None if n != 2 or not self._fast else tuple(
            v for s, _, ((a, ah, al, _),) in self._chains
            for v in (s, a, ah, al)) + tuple(self._gamma)

    @property
    def order(self):
        return self.phi.shape[0]

    @cached_property
    def _spectral_radius(self):  # once per object: the dynamics are frozen
        return float(np.max(np.abs(np.linalg.eigvals(self.phi))))

    def spectral_radius(self):
        return self._spectral_radius

    def is_stable(self):
        return self.spectral_radius() < 1.0

    def step(self, state, u):
        """One recursion step: returns (next_state as a tuple of floats,
        noise-free output Psi x).

        Each row of Phi x and Psi x is the FMA chain of _fma_chains, in the
        order of _chain_order; then a Phi row r gives r + 0.0 + g * u and
        Psi x gives y + 0.0 (the + 0.0 turns -0.0 into 0.0). Up to order 3
        these are the bits of phi @ state + gamma * u and psi @ state on
        OpenBLAS's Haswell kernels, but computed on Python floats, so they
        are the same whatever BLAS numpy runs on. A state of the wrong
        dimension raises ValueError.
        """
        u = float(u)
        if self._order2 is not None:
            b0, a0, a0h, a0l, b1, a1, a1h, a1l, c0, c1, c1h, c1l, g0, g1 = self._order2
            x0, x1 = state
            if (_TINY <= abs(x0) <= _HUGE or not x0) and (_TINY <= abs(x1) <= _HUGE or not x1):
                # _fma_chains unrolled: Phi rows fma(a, x0, b * x1), Psi
                # fma(c1, x1, c0 * x0); an exact term's fma is p + s
                if a0h is not None or a1h is not None:
                    t = _SPLIT * x0
                    h0 = t - (t - x0)
                    l0 = x0 - h0
                s = b0 * x1
                p = a0 * x0
                if a0h is None:
                    r0 = p + s
                else:
                    e = ((a0h * h0 - p) + a0h * l0 + a0l * h0) + a0l * l0
                    r0 = fsum((p, e, s)) if e else p + s
                s = b1 * x1
                p = a1 * x0
                if a1h is None:
                    r1 = p + s
                else:
                    e = ((a1h * h0 - p) + a1h * l0 + a1l * h0) + a1l * l0
                    r1 = fsum((p, e, s)) if e else p + s
                s = c0 * x0
                p = c1 * x1
                if c1h is None:
                    y = p + s
                else:
                    t = _SPLIT * x1
                    h1 = t - (t - x1)
                    l1 = x1 - h1
                    e = ((c1h * h1 - p) + c1h * l1 + c1l * h1) + c1l * l1
                    y = fsum((p, e, s)) if e else p + s
                return (r0 + 0.0 + g0 * u, r1 + 0.0 + g1 * u), y + 0.0
        if len(state) != len(self._gamma):
            raise ValueError(f"state has {len(state)} values, "
                             f"the dynamics order is {len(self._gamma)}")
        xs, fast = [], self._fast
        for x in state:
            t = _SPLIT * x
            h = t - (t - x)
            xs.append((x, h, x - h))
            if not (_TINY <= abs(x) <= _HUGE or not x):
                fast = False
        *rows, y = (_fma_chains if fast else _exact_fma_chains)(self._chains, xs)
        return tuple([r + 0.0 + g * u for r, g in zip(rows, self._gamma)]), y + 0.0

    def steady_state_gain(self):
        """Psi (I - Phi)^-1 Gamma; errors on a marginally stable plant."""
        eye = np.eye(self.order)
        try:
            sol = np.linalg.solve(eye - self.phi, self.gamma)
        except np.linalg.LinAlgError:
            raise ValueError("(I - Phi) is singular; no finite steady-state gain")
        if not np.isfinite(sol).all():
            raise ValueError("(I - Phi) is singular; no finite steady-state gain")
        return float(self.psi @ sol)

    def normalized(self):
        """Scale Gamma so the steady-state gain is exactly 1."""
        g = self.steady_state_gain()
        if g == 0.0:
            raise ValueError("zero steady-state gain cannot be normalized")
        return AdaptationDynamics(self.phi, self.gamma / g, self.psi)


@dataclass
class MotorNoise:
    """Gaussian output noise; equal seeds give identical sample sequences."""

    mean: float = 0.0
    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, finite=("mean",), nonnegative=("std", "seed"),
                     ints=("seed",), labels={"mean": "noise_mean", "std": "noise_std"})
        self.reset()

    def sample(self):
        # one standard normal per call, even at std == 0, to keep draw counts
        # stable; drawn NOISE_BLOCK at a time, which gives the same values
        if not self._block:
            self._block = self._rng.standard_normal(NOISE_BLOCK).tolist()
            self._block.reverse()  # pop() then takes them in order
        return self.mean + self.std * self._block.pop()

    def reset(self, seed=None):
        if seed is not None:
            self.seed = replace(self, seed=seed).seed  # checked before it is stored
        self._rng = np.random.default_rng(self.seed)
        self._block = []


@dataclass(eq=False)
class SimulatedSubject:
    """Composable grey-box subject: map -> LTI -> additive noise. step()
    reads map and dynamics on each call; reset() returns to initial_state."""

    map: PreferenceMap
    dynamics: AdaptationDynamics
    noise: MotorNoise = field(default_factory=MotorNoise)
    initial_state: tuple = None
    subject_id: str = "subject"

    def __post_init__(self):
        if not self.dynamics.is_stable():
            raise ValueError("adaptation dynamics must be stable (rho(Phi) < 1)")
        if self.initial_state is None:
            self.initial_state = (0.0,) * self.dynamics.order
        check_fields(self, lengths={"initial_state": self.dynamics.order})
        self.state = self.initial_state

    def step(self, theta):
        """Apply a synergy for one task iteration; returns measured J."""
        th = float(theta)
        l2, l1, l0 = self.map.lam
        u = l2 * th * th + l1 * th + l0  # map.value(th), on floats
        self.state, y = self.dynamics.step(self.state, u)
        return y + self.noise.sample()

    def reset(self, seed=None):
        self.state = self.initial_state
        self.noise.reset(seed)

    def optimum(self):
        return self.map.optimum()


# Identified parameters for the two reference subjects.
LAMBDA_A = np.array([-158.15, 529.18, -293.34])
LAMBDA_B = np.array([-96.18, 342.13, -147.86])
PHI_A = np.array([[0.0, 1.0], [0.068, 0.35]])
GAMMA_A = np.array([0.839, 0.037])
PSI_A = np.array([1.0, 0.0])
PHI_B = np.array([[0.0, 1.0], [-0.017, 0.25]])
GAMMA_B = np.array([-0.091, 0.834])
PSI_B = np.array([1.0, 0.0])
NOISE_STD_A = 16.81
NOISE_STD_B = 22.36


# A's and B's map and dynamics, frozen values that every subject built shares
_MODEL_A = PreferenceMap(LAMBDA_A), AdaptationDynamics(PHI_A, GAMMA_A, PSI_A)
_MODEL_B = PreferenceMap(LAMBDA_B), AdaptationDynamics(PHI_B, GAMMA_B, PSI_B)


def subject_a(seed=0, noise_std=NOISE_STD_A):
    return SimulatedSubject(*_MODEL_A, MotorNoise(0.0, noise_std, seed), subject_id="A")


def subject_b(seed=0, noise_std=NOISE_STD_B):
    return SimulatedSubject(*_MODEL_B, MotorNoise(0.0, noise_std, seed), subject_id="B")


def static_subject(pref_map, steady_at=None):
    """Noise-free subject with no learning dynamics beyond the one-iteration
    latency.

    Order-1 dynamics Phi=0, Gamma=Psi=1: J_i = u(theta_{i-1}), which is the
    memoryless limit of the grey-box model (unity gain, relative degree
    one preserved). With steady_at set, the first output already reflects
    that synergy (a truly static plant has no settling transient).
    """
    dyn = AdaptationDynamics([[0.0]], [1.0], [1.0])
    x0 = None if steady_at is None else (pref_map.value(steady_at),)
    return SimulatedSubject(pref_map, dyn, initial_state=x0, subject_id="static")


def save_subject(path, subject):
    """Write a subject definition to a human-readable config file."""
    write_config(path, {"subject": {
        "lambda": format_vector(subject.map.lam),
        "phi": format_matrix(subject.dynamics.phi),
        "gamma": format_vector(subject.dynamics.gamma),
        "psi": format_vector(subject.dynamics.psi),
        "noise_mean": repr(subject.noise.mean),
        "noise_std": repr(subject.noise.std),
        "seed": str(subject.noise.seed),
        "initial_state": format_vector(subject.initial_state),
        "id": subject.subject_id,
    }})


# [subject] key -> parser of its value; lambda, phi, gamma and psi are required
SUBJECT_KEYS = {"lambda": parse_vector, "phi": parse_matrix, "gamma": parse_vector,
                "psi": parse_vector, "noise_mean": float, "noise_std": float,
                "seed": int, "initial_state": parse_vector, "id": str}


def load_subject(path):
    cp = read_config(path)
    if not cp.has_section("subject"):
        raise ValueError(f"{path}: no [subject] section")
    where = f"{path}: [subject]"
    sec = parse_section(cp["subject"], where, SUBJECT_KEYS,
                        required=("lambda", "phi", "gamma", "psi"))
    # values that parse but make no model are named after the file too
    return parsed(lambda sec: SimulatedSubject(
        PreferenceMap(sec["lambda"]),
        AdaptationDynamics(sec["phi"], sec["gamma"], sec["psi"]),
        MotorNoise(sec.get("noise_mean", 0.0), sec.get("noise_std", 0.0),
                   sec.get("seed", 0)),
        sec.get("initial_state"), sec.get("id", "subject")), sec, where)
