"""Port-correlation models for a fluid antenna receiver and the keyed Philox
streams that correlated shadow-fading draws come from.

A fluid antenna exposes N selectable port positions along a line. Because
adjacent ports are electrically close, the shadow-fading seen on different
ports is spatially correlated; under isotropic 2-D scattering the correlation
between two points separated by s wavelengths is J0(2*pi*s).

Two port-spacing conventions are supported and recorded on the layout:

``endpoint`` (default)
    N ports spread across a total length of W wavelengths. The correlation
    step between adjacent port indices is W/(N-1); the geometric offset of
    port i is i*W*lambda/N metres. (The two denominators differ on purpose:
    each matches the bookkeeping its formula is conventionally written with,
    and the discrepancy is O(1/N).)

``index``
    Adjacent ports sit exactly W wavelengths apart, so the correlation step
    is W and port i sits at i*W*lambda metres. The benchmark presets use
    this convention (its headline method gaps are the ones the acceptance
    suite pins); every result table records which convention produced it.

Three correlation models produce an N x N unit-diagonal matrix:

* ``JAKES_EXACT``  per-pair J0(2*pi*|k-l|*step),
* ``AVERAGE_MU``   equicorrelated with the single averaged coefficient mu^2,
* ``INDEPENDENT``  identity (conventional multipoint array).
"""

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .specfun import bessel_j0

# A covariance whose smallest eigenvalue needs more repair than this is being
# used outside the model's validity range and must fail loudly.
PSD_SHIFT_LIMIT = 1e-6
_PSD_PAD = 1e-12
MAX_PORTS = 4096  # most ports of a layout: its float64 covariance takes 128 MiB

# The port-spacing conventions, each with the note a result table records.
SPACING_NOTE = {
    "endpoint": ("spacing=endpoint: N ports across W*lambda; correlation step "
                 "W/(N-1), port offsets i*W*lambda/N"),
    "index": ("spacing=index: adjacent ports W*lambda apart; correlation step W, "
              "port offsets i*W*lambda"),
}
SPACING_CONVENTIONS = tuple(SPACING_NOTE)

# Hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx),
# which philox_keys reproduces over arrays of seeds.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _check_real(name, value, lo=-math.inf, hi=math.inf, positive=False):
    """``value`` if it is a finite real number in [lo, hi], and above 0 when
    ``positive``, else ValueError naming ``name``. A bool, a string, None or an
    array is not a number; an int is finite when it converts to a float, and
    is returned unchanged."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)  # converts an int to a float
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int beyond the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


class ModelValidityError(ValueError):
    """Correlation model produced a matrix requiring too large a PSD repair."""


class CorrelationModel(Enum):
    JAKES_EXACT = "jakes"
    AVERAGE_MU = "average-mu"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class FasLayout:
    """Geometry of the selectable ports of a fluid antenna.

    Attributes:
        n_ports: number of selectable ports N (>= 2 for any correlation
            formula; 1 is permitted only for the single-antenna baseline).
        aperture: normalized length factor W (dimensionless, in units of the
            wavelength). Meaning depends on ``spacing``.
        wavelength: carrier wavelength in metres.
        spacing: port-spacing convention, ``endpoint`` or ``index``.
    """

    n_ports: int
    aperture: float
    wavelength: float = 0.125
    spacing: str = "endpoint"

    def __post_init__(self):
        n = self.n_ports
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not 1 <= n < math.inf \
                or int(n) != n:
            raise ValueError(f"n_ports must be a positive integer, got {n}")
        if n > MAX_PORTS:
            raise ValueError(f"n_ports must be at most {MAX_PORTS}, got {n}")
        object.__setattr__(self, "n_ports", int(n))
        _check_real("aperture", self.aperture, lo=0.0)
        _check_real("wavelength", self.wavelength, positive=True)
        if self.spacing not in SPACING_CONVENTIONS:
            raise ValueError(f"spacing must be one of {SPACING_CONVENTIONS}, got {self.spacing!r}")

    def correlation_step(self):
        """Normalized separation (in wavelengths) per index step, as used by
        the correlation formulas. Requires N >= 2 under ``endpoint``."""
        if self.spacing == "index":
            return self.aperture
        if self.n_ports < 2:
            raise ValueError("endpoint correlation step requires n_ports >= 2")
        return self.aperture / (self.n_ports - 1)

    def port_offsets_m(self):
        """Geometric port offsets from the reference port, in metres."""
        i = np.arange(self.n_ports, dtype=float)
        if self.spacing == "index":
            return i * self.aperture * self.wavelength
        return i * self.aperture * self.wavelength / self.n_ports

    @property
    def span_m(self):
        """Distance between the first and last port, in metres."""
        offs = self.port_offsets_m()
        return float(offs[-1] - offs[0])


@dataclass
class CovarianceMatrix:
    """Scaled port covariance sigma2 * R with its PSD-repair bookkeeping.

    ``entries`` is symmetric with diagonal sigma2 * (1 + shift); ``shift`` is
    the diagonal loading (in correlation units) applied when the raw model
    matrix had a slightly negative smallest eigenvalue.
    """

    entries: np.ndarray
    shift: float = 0.0
    raw_eigenvalues: np.ndarray = None  # JAKES_EXACT only: the raw matrix's, ascending

    @property
    def dim(self):
        return self.entries.shape[0]

    @property
    def regularized(self):  # whether the model matrix needed a PSD repair
        return self.shift > 0.0

    def factor(self):
        """Lower-triangular-like factor L with L @ L.T == entries.

        Cholesky when positive definite, symmetric eigenfactor otherwise
        (covers PSD-singular cases such as a fully correlated matrix).
        """
        try:
            return np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(self.entries)
            return v * np.sqrt(np.clip(w, 0.0, None))


def lag_correlations(layout):
    """Port correlation at each index lag, as an (N,) array.

    Entry k is J0(2*pi*k*step), the correlation between any two ports k
    index steps apart (entry 0 is 1); step is the layout's normalized
    separation per index step. Requires N >= 2.
    """
    n = layout.n_ports
    if n < 2:
        raise ValueError("port correlations require n_ports >= 2")
    step = layout.correlation_step()
    return np.array([1.0] + [bessel_j0(2.0 * np.pi * k * step) for k in range(1, n)])


@lru_cache(maxsize=64)
def average_mu_squared(layout):
    """Single averaged correlation coefficient mu^2 of the layout.

    mu^2 = | 2/(N(N-1)) * sum_{k=1}^{N-1} (N-k) J0(2*pi*k*step) |,
    the absolute value of the mean over all port pairs. Always in [0, 1].
    Cached per layout: a solve group's points share one layout (each of an
    SNR sweep's seven builds its covariance from it), and repeated sweeps in
    one process reuse it. Requires N >= 2.
    """
    n = layout.n_ports
    rho = lag_correlations(layout).tolist()
    # summed left to right: np.sum's pairwise order would move the last bits
    total = 0.0
    for k in range(1, n):
        total += (n - k) * rho[k]
    return abs(2.0 * total / (n * (n - 1)))


def build_covariance(layout, model, sigma2):
    """N x N shadow-fading covariance sigma2 * R for the requested model.

    R has unit diagonal; off-diagonals are the per-pair J0 correlations
    (JAKES_EXACT), the constant mu^2 (AVERAGE_MU), or zero (INDEPENDENT).
    If the raw R has a (numerically) negative smallest eigenvalue it is
    diagonally loaded by |eig_min| + 1e-12 and the repair is recorded;
    a repair larger than ``PSD_SHIFT_LIMIT`` raises ModelValidityError.
    eig_min is read from the closed-form spectrum of the equicorrelated
    matrix and of the identity; only a JAKES_EXACT matrix is decomposed.
    """
    _check_real("sigma2", sigma2, positive=True)
    n = layout.n_ports
    eigs = None
    if model is CorrelationModel.INDEPENDENT:
        r, eig_min = np.eye(n), 1.0
    elif model is CorrelationModel.AVERAGE_MU:
        a = average_mu_squared(layout)
        r = np.full((n, n), a)
        np.fill_diagonal(r, 1.0)
        eig_min = min(1.0 - a, 1.0 + (n - 1) * a)  # (1-a)I + a*11^T: 1-a, and 1+(N-1)a once
    elif model is CorrelationModel.JAKES_EXACT:
        idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        r = lag_correlations(layout)[idx]
        eigs = np.linalg.eigvalsh(r)
        eig_min = float(eigs[0])
    else:
        raise ValueError(f"unknown correlation model: {model!r}")

    shift = 0.0
    if eig_min < 0.0:
        shift = -eig_min + _PSD_PAD
        if shift > PSD_SHIFT_LIMIT:
            raise ModelValidityError(
                f"correlation matrix needs a diagonal shift of {shift:.3e} "
                f"(> {PSD_SHIFT_LIMIT:.0e}) to be PSD; model used outside its validity range"
            )
        r = r + shift * np.eye(n)

    return CovarianceMatrix(entries=sigma2 * r, shift=shift, raw_eigenvalues=eigs)


def _seed_words(values):
    """Non-negative ints as uint32 words, least significant first, the way
    numpy's SeedSequence splits its entropy (0 is one word)."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError(f"seed values must be non-negative integers, got {v}")
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


def _hashmix(const, mult):
    """SeedSequence's multiply-xorshift step over uint32 arrays; the
    multiplier it carries from call to call starts at ``const``."""
    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return step


def _hash_keys(words):
    """numpy SeedSequence's key derivation over rows of entropy words.

    ``words`` is a (B, W) uint32 array; row b gets the key that
    ``Philox(SeedSequence(entropy_b))`` uses, i.e. mix_entropy into a
    4-word pool and then generate_state(2, np.uint64). The hash constants
    evolve identically for every row, so each step is one array operation.
    Returns a (B, 2) uint64 array.
    """
    n_rows, n_words = words.shape
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(n_rows, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, n_words):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[:, i_src]))

    generate = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([generate(value) for value in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _integer(v):
    """An integer value (a seed value, a count) as an int; floats and bools
    raise TypeError instead of being cut to a neighbouring int."""
    if isinstance(v, bool):
        raise TypeError(f"seed values must be integers, got {v!r}")
    return operator.index(v)


def philox_keys(seed, tails=None):
    """128-bit Philox keys of seeded streams, as a (B, 2) uint64 array.

    The stream of a seed is ``Philox(SeedSequence((len(seed), *seed)))``.
    Without ``tails`` this is the one key of the seed's stream, the one
    forward_model.simulate_measurements draws from. Row b of a (B, k) array
    of trailing values (1-D: k = 1) gives the key of the stream of
    ``(*seed, *tails[b])``, all rows in one pass. A seed is an int or a
    tuple of ints; the tuple length is folded into the entropy because
    SeedSequence ignores trailing zero words, which would otherwise alias
    (s,) and (s, 0). An int seed s is the tuple (s,). A seed value that is
    not an integer (a float, a bool) raises TypeError.
    """
    values = [_integer(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed,))]
    tails = np.zeros((1, 0), np.int64) if tails is None else np.asarray(tails, dtype=np.int64)
    if tails.ndim < 2:
        tails = tails.reshape(-1, 1)
    if tails.size and (tails.min() < 0 or tails.max() > _MASK32):
        raise ValueError("trailing seed values must lie in [0, 2**32)")
    head = _seed_words((len(values) + tails.shape[1], *values))
    words = np.empty((tails.shape[0], len(head) + tails.shape[1]), dtype=np.uint32)
    words[:, :len(head)] = head
    words[:, len(head):] = tails
    return _hash_keys(words)


def standard_normal_rows(keys, width, gen=None):
    """Standard normals of many Philox streams, one row per key of ``keys``.

    Row i is what a fresh generator keyed ``keys[i]`` draws: for the keys of
    ``philox_keys(seed, trials)``, the first ``width`` normals of
    ``Philox(SeedSequence((len(seed) + 1, *seed, trials[i])))``.
    One generator is re-keyed per row (zero counter, empty buffer) from one
    state dict of Python ints, which its setter reads over twice as fast as
    numpy arrays. It is ``gen`` (a Philox ``Generator``, never shared across
    threads) or a new one: each row starts afresh, so one serves many calls.
    """
    z = np.empty((len(keys), int(width)))
    gen = np.random.Generator(np.random.Philox(key=0)) if gen is None else gen
    bitgen = gen.bit_generator
    fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, key in enumerate(zip(*keys.T.tolist())):  # two lists: less memory than pairs
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.standard_normal(out=z[i])
    return z
