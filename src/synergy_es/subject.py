"""Grey-box simulated subject: preference map + learning dynamics + noise.

The model is a static synergy-to-performance map feeding a stable,
unity-gain LTI system in the iteration domain, with additive Gaussian
output noise:

    u_i     = f(theta_i)^T lambda          (quadratic basis [th^2, th, 1])
    x_{i+1} = Phi x_i + Gamma u_i
    J_i     = Psi x_i + v_i,  v_i ~ N(mean, std^2)

Note the relative degree: J_i reflects the synergy applied one iteration
earlier.

A SimulatedSubject computes all three lines in one call per iteration:
its step is a closure built by the compiled kernel of its dynamics' chain
structure (_kernel_source), with the state in closure cells, so the
state is read-only from outside. The same kernel's response(inputs)
advances the state by the same block, from rest and without map or
noise: AdaptationDynamics.response, sysid's free run.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import frexp, fsum, inf, isfinite
from operator import attrgetter

import numpy as np

from .config import (check_fields, check_value, format_matrix, format_vector, parse_matrix,
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
# the fma is rounded from its exact value in fractions (_fma).
_SPLIT = 134217729.0  # 2**27 + 1
_TINY, _HUGE = 2.0 ** -450, 2.0 ** 450


def _split(a):
    """(a, hi, lo) with a == hi + lo, each half 26 bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return a, hi, a - hi


def _chain_order(n):
    """Index order of a Phi row's chain: the order of OpenBLAS's Haswell
    gemv kernel for n <= 3; Psi's chain, and Phi's above 3, run 0, 1, ...,
    n-1 (numpy's gemv there is blocked, not a chain)."""
    return {1: (0,), 2: (1, 0), 3: (1, 0, 2)}.get(n, range(n))


def _term_kind(a, first):
    """How a kernel adds a*x to its chain: '0' drops it, '1' adds x, 'x'
    adds the product (the chain's first, or a power of 2, so a*x is
    exact), 'f' adds it by one exact fma, _fma (a outside [_TINY, _HUGE],
    not the first), and 'd' adds it by Dekker's product and fsum."""
    if not a:
        return "0"
    if a == 1.0:
        return "1"
    if not (first or _TINY <= abs(a) <= _HUGE):
        return "f"
    return "x" if first or abs(frexp(a)[0]) == 0.5 else "d"


def _kernel_source(n, kinds):
    """Source of kernel(<coefficients>, g0, ..., exact) for one chain
    structure: the order n and, per chain (the n rows of Phi, then Psi), a
    _term_kind per term in chain order. kernel returns (response, subject):
    response(inputs), the dynamics' noise-free outputs from rest as a list,
    and subject(m2, m1, m0, noise, x0, ...), a SimulatedSubject's
    (step(theta), state()) on the map's lambda and a state held in closure
    cells: step runs the map, the chains and the noise sample in one call.

    Both advance the state by one block, emitted in each: the chains
    unrolled, on the coefficients as arguments, a state value split once
    where a 'd' term needs it. A zero's sign can differ from the full
    chain's only in a partial sum, which the final + 0.0 clears; a state
    value outside [_TINY, _HUGE] takes exact(state, u). step adds
    noise.mean + noise.std * z, z popped from the noise's own block, as
    MotorNoise.sample does. The bit-for-bit references are in
    tests/test_subject.py: _fma_chains, _reference_step and
    _reference_subject_step.
    """
    params, body, split, out = [], [], set(), []
    for i, (order, chain) in enumerate(zip([_chain_order(n)] * n + [range(n)], kinds)):
        s = None  # the chain's sum so far, an expression; None while 0
        for j, kind in zip(order, chain):
            a = f"a{i}_{j}"
            if kind == "0":
                continue
            product = f"x{j}" if kind == "1" else f"{a} * x{j}"
            params += {"x": [a], "f": [a], "d": [a, a + "h", a + "l"]}.get(kind, [])
            if s is None:
                s = product
            elif kind == "f":
                s = f"_fma({a}, x{j}, {s})"
            elif kind != "d":
                s = f"{product} + {s if s.isidentifier() else f'({s})'}"
            else:
                if not s.isidentifier():  # a sum or product: bind it once
                    body.append(f"r{i} = {s}")
                    s = f"r{i}"
                split.add(j)
                body += [f"p = {product}",
                         f"e = (({a}h * h{j} - p) + {a}h * l{j} + {a}l * h{j}) + {a}l * l{j}",
                         f"r{i} = fsum((p, e, {s})) if e else p + {s}"]
                s = f"r{i}"
        out.append("0.0" if s is None else f"{s} + 0.0")
    body[:0] = [line for j in sorted(split) for line in (
        f"t = {_SPLIT!r} * x{j}", f"h{j} = t - (t - x{j})", f"l{j} = x{j} - h{j}")]
    xs, comma = ", ".join(f"x{j}" for j in range(n)), "," * (n == 1)  # a 1-tuple
    rows = ", ".join(f"{r} + g{i} * u" for i, r in enumerate(out[:n]))
    in_range = f" and\n{' ' * 16}".join(
        f"({_TINY!r} <= abs(x{j}) <= {_HUGE!r} or not x{j})" for j in range(n))
    advance = [  # x0, ... and y from x0, ... and u
        f"            if ({in_range}):",
        *(f"                {line}" for line in body),
        f"                {xs}, y = {rows}, {out[n]}",
        "            else:",
        f"                ({xs}{comma}), y = exact(({xs}{comma}), u)",
    ]
    lines = [
        f"def kernel({', '.join(params + [f'g{i}' for i in range(n)])}, exact):",
        "    def response(inputs):",
        f"        {xs} = {', '.join(['0.0'] * n)}",
        "        ys = []",
        "        for u in inputs:",
        *advance,
        "            ys.append(y)",
        "        return ys",
        f"    def subject(m2, m1, m0, noise, {xs}):",
        "        def step(theta):",
        f"            nonlocal {xs}",
        "            th = float(theta)",
        "            u = m2 * th * th + m1 * th + m0",
        *advance,
        "            block = noise._block",
        "            if block:",
        "                return y + (noise.mean + noise.std * block.pop())",
        "            return y + noise.sample()",
        "        def state():",
        f"            return {xs}{comma}",
        "        return step, state",
        "    return response, subject",
    ]
    return "\n".join(lines) + "\n"


def _fma(a, x, s):
    """a*x + s rounded once from its exact value, or inf or nan where IEEE
    gives it: one term of _exact_fma_chains, and an 'f' term's sum."""
    if not isfinite(x):
        return a * x + s
    if not isfinite(s):  # a*x is finite, so the sum is s; a float a*x may overflow
        return s
    from fractions import Fraction  # here, not at import: only 'f' terms need it
    exact = Fraction(a) * Fraction(x) + Fraction(s)
    try:
        return float(exact)  # the sign of a 0 is lost to the kernels' + 0.0
    except OverflowError:
        return inf if exact > 0 else -inf


def _exact_fma_chains(chains, xs):
    """Per chain of (a, j) terms, fma(a_k, x_k, ... fma(a_1, x_1, a_0 * x_0))
    with x = xs[j], each fma by _fma."""
    out = []
    for (s, j), *terms in chains:
        s *= xs[j]
        for a, j in terms:
            s = _fma(a, xs[j], s)
        out.append(s)
    return out


def _exact_step(chains, gamma, state, u):
    """A kernel's step from a state value outside [_TINY, _HUGE]."""
    *rows, y = _exact_fma_chains(chains, state)
    return tuple([r + 0.0 + g * u for r, g in zip(rows, gamma)]), y + 0.0


@lru_cache(maxsize=128)
def _kernel(n, kinds):
    """kernel of _kernel_source(n, kinds), compiled once per structure."""
    namespace = {"fsum": fsum, "_fma": _fma}
    exec(compile(_kernel_source(n, kinds), f"<step kernel {n} {kinds}>", "exec"),
         namespace)
    return namespace["kernel"]


def steady_state_gain(phi, gamma, psi):
    """Psi (I - Phi)^-1 Gamma; errors on a marginally stable plant."""
    try:
        sol = np.linalg.solve(np.eye(len(gamma)) - phi, gamma)
    except np.linalg.LinAlgError:
        raise ValueError("(I - Phi) is singular; no finite steady-state gain")
    if not np.isfinite(sol).all():
        raise ValueError("(I - Phi) is singular; no finite steady-state gain")
    return float(psi @ sol)


@dataclass(frozen=True, eq=False)
class AdaptationDynamics:
    """Iteration-domain LTI (Phi, Gamma, Psi) modeling motor adaptation,
    stored as read-only float64 arrays (-0.0 kept); == is identity.

    Each row of Phi x and Psi x is a chain of fused multiply-adds in the
    order of _chain_order; then a Phi row r gives the next state's
    r + 0.0 + g * u and Psi x gives the output y + 0.0 (the + 0.0 turns
    -0.0 into 0.0). Up to order 3 these are the bits of
    phi @ state + gamma * u and psi @ state on OpenBLAS's Haswell kernels,
    but computed on Python floats, so they are the same whatever BLAS
    numpy runs on. The kernel of the dynamics' chain structure
    (_kernel_source), bound to their coefficients, gives response(inputs),
    the noise-free output from rest as a list, and _subject, the factory
    of a SimulatedSubject's step.
    """

    phi: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        n = len(np.atleast_1d(self.phi))
        if not n:  # an order-0 model has no chain to compile
            raise ValueError("phi is empty; the order must be at least 1")
        check_fields(self, lengths={"phi": (n, n), "gamma": (n,), "psi": (n,)})
        phi, gamma, psi = self.phi.tolist(), self.gamma.tolist(), self.psi.tolist()
        # (a, j) per term of each chain: one per row of Phi, then Psi's
        chains = [*([(row[j], j) for j in _chain_order(n)] for row in phi),
                  [(psi[j], j) for j in range(n)]]
        kinds = tuple("".join(_term_kind(a, not k) for k, (a, _) in enumerate(chain))
                      for chain in chains)
        coefficients = [v for chain, chain_kinds in zip(chains, kinds)
                        for (a, _), kind in zip(chain, chain_kinds) if kind in "xfd"
                        for v in (_split(a) if kind == "d" else (a,))]
        response, subject = _kernel(n, kinds)(*coefficients, *gamma,
                                              partial(_exact_step, chains, gamma))
        vars(self).update(response=response, _subject=subject)  # past the frozen __setattr__

    def __reduce__(self):  # response and _subject are closures; rebuild them
        return AdaptationDynamics, (self.phi, self.gamma, self.psi)

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

    def steady_state_gain(self):
        """Psi (I - Phi)^-1 Gamma; errors on a marginally stable plant."""
        return steady_state_gain(self.phi, self.gamma, self.psi)


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
        if seed is not None:  # checked as __post_init__ checks it, before it is stored
            seed = check_value(seed, "seed", integer=True)
            if seed < 0:
                raise ValueError(f"seed = {seed} must be >= 0")
            self.seed = seed
        self._rng = np.random.default_rng(self.seed)
        self._block = []


class SimulatedSubject:
    """Composable grey-box subject: map -> LTI -> additive noise.

    map, dynamics and initial_state are fixed when the subject is built;
    assigning one raises AttributeError (a different model is a new
    subject). noise, a MotorNoise that checks itself, may be replaced.
    state is read-only: step() moves it and reset() returns it to
    initial_state. step(theta) is one call into the closure that
    dynamics._subject builds (see the module docstring); assigning noise,
    reset() and unpickling rebuild it. It pops its samples from the
    noise's own block, so the sample stream is the noise's whoever draws.
    """

    def __init__(self, map, dynamics, noise=None, initial_state=None,
                 subject_id="subject"):
        if not dynamics.is_stable():
            raise ValueError("adaptation dynamics must be stable (rho(Phi) < 1)")
        n = dynamics.order
        self._map, self._dynamics = map, dynamics
        self._initial_state = ((0.0,) * n if initial_state is None
                               else check_value(initial_state, "initial_state", n))
        self._noise = MotorNoise() if noise is None else noise
        self.subject_id = subject_id
        self._bind(self._initial_state)

    map = property(attrgetter("_map"))
    dynamics = property(attrgetter("_dynamics"))
    initial_state = property(attrgetter("_initial_state"))

    def _bind(self, state):
        """Build the step closure at state, on the current noise."""
        self._step, self._state = self._dynamics._subject(*self._map.lam, self._noise,
                                                          *state)

    @property
    def state(self):
        return self._state()

    @property
    def noise(self):
        return self._noise

    @noise.setter
    def noise(self, noise):
        self._noise = noise
        self._bind(self.state)

    def step(self, theta):
        """Apply a synergy for one task iteration; returns measured J."""
        return self._step(theta)

    def reset(self, seed=None):
        self._noise.reset(seed)  # first: a rejected seed leaves the state as it was
        self._bind(self._initial_state)

    def __reduce__(self):  # _step is a closure; rebuilt at the current state
        return (SimulatedSubject, (self._map, self._dynamics, self._noise,
                                   self._initial_state, self.subject_id), self.state)

    def __setstate__(self, state):
        self._bind(state)

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


def _subject_id(text):
    """text, which names trace files (<prefix>_<id>_s<seed>.csv, at most 255
    bytes) and a trace metadata line."""
    if not set(text).isdisjoint("\r\n\0/"):
        raise ValueError(f"{text!r} holds a line break, NUL or '/'")
    if len(text.encode()) > 200:
        raise ValueError(f"{len(text.encode())} bytes long, over the 200 that "
                         "leave room in a trace file name")
    return text


# [subject] key -> parser of its value; lambda, phi, gamma and psi are required
SUBJECT_KEYS = {"lambda": parse_vector, "phi": parse_matrix, "gamma": parse_vector,
                "psi": parse_vector, "noise_mean": float, "noise_std": float,
                "seed": int, "initial_state": parse_vector, "id": _subject_id}


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
