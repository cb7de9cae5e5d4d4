"""Scene geometry and RSSI generation.

The transmitter sits at distance d and bearing theta from the reference port.
Received power follows the log-distance model

    rssi(d_i) = 10*log10(A^2 / d_i^n) + 30   [dBm]

where A = sqrt(P_T * lambda^2 * G_T * G_R) / (4*pi) collects the link
constants (transmit power in watts; the +30 converts dBW to dBm) and d_i is
the port-to-transmitter distance

    d_i^2 = off_i^2 + d^2 - 2*off_i*d*cos(theta)

with off_i the geometric port offset in metres. Measured vectors add one
correlated shadow-fading draw per snapshot on top of the noiseless profile.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import _check_real, _integer, philox_keys, standard_normal_rows

# Declared convention for the SNR axis of all experiment sweeps; sigma2 is
# the shadow-fading variance in dB^2, so sigma = 1 dB at SNR 0. Stamped into
# every result-file header so outputs are self-describing.
SNR_CONVENTION = "sigma2_dB2 = 10**(-snr_db/10) (shadow-fading sigma = 1 dB at SNR 0 dB)"

# Far-field ratio below which the equal-mean-power approximation behind the
# correlated-measurement model starts to degrade.
FAR_FIELD_RATIO = 10.0

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class Scene:
    """Transmitter ground truth and link constants.

    distance in metres, bearing in radians, tx power in dBm, linear antenna
    gains, and path-loss exponent n in [2, 6].
    """

    distance: float
    bearing: float
    tx_power_dbm: float = 0.0
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    path_loss_exp: float = 2.0

    def __post_init__(self):
        for name in ("distance", "gain_tx", "gain_rx"):
            _check_real(name, getattr(self, name), positive=True)
        _check_real("bearing", self.bearing)
        _check_real("tx_power_dbm", self.tx_power_dbm)
        _check_real("path_loss_exp", self.path_loss_exp, lo=2.0, hi=6.0)

    def amp_const(self, wavelength):
        """Link amplitude constant A = sqrt(P_T lambda^2 G_T G_R) / (4 pi);
        a transmit power beyond the float range raises."""
        try:
            p_t_watts = 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)
        except OverflowError:
            raise ValueError(f"tx_power_dbm {self.tx_power_dbm} puts the transmit power "
                             "beyond the float range") from None
        return float(np.sqrt(p_t_watts * wavelength ** 2 * self.gain_tx * self.gain_rx)
                     / (4.0 * np.pi))

    def profile(self, layout):
        """The scene's link model over the ports of ``layout``."""
        return RssiProfile(layout, self.bearing, self.amp_const(layout.wavelength),
                           self.path_loss_exp)


class OnPortError(ValueError):
    """A distance at which the transmitter coincides with a port."""


class RssiProfile:
    """Noiseless RSSI over the ports of a layout as a function of distance,
    for one bearing and link: the model every estimator inverts. The
    constructor checks that the bearing is finite and the link constants
    positive and finite. The distance-free terms are computed once, so a
    solver that evaluates many distances pays only for the rest.
    """

    def __init__(self, layout, theta, amp_const, path_loss_exp):
        _check_real("theta", theta)
        _check_real("amp_const", amp_const, positive=True)
        _check_real("path_loss_exp", path_loss_exp, positive=True)
        self.n_ports = layout.n_ports
        self.amp_const = amp_const
        self.path_loss_exp = path_loss_exp
        offs = layout.port_offsets_m()
        self._offs_sq = offs ** 2
        self._two_offs = 2.0 * offs
        self._cos = np.cos(theta)
        self._two_offs_cos = self._two_offs * self._cos
        self._level = 30.0 + 20.0 * np.log10(amp_const)
        self._slope = 5.0 * path_loss_exp

    @property
    def pole(self):
        """The largest d at which ``dropped_term_derivative`` is singular,
        max_i 2 * off_i * cos(theta); at most 0 when it has no singularity
        at d > 0."""
        return float(self._two_offs_cos.max())

    def at(self, d):
        """RSSI over all ports at distance d: a scalar d gives shape (N,),
        an array of shape (M,) gives shape (M, N)."""
        d = np.asarray(d, dtype=float)
        rssi = self.rssi(self.dist_sq(d.reshape(-1)))
        return rssi[0] if d.ndim == 0 else rssi

    def dist_sq(self, d):
        """Squared port distances d_i^2 for distances d of shape (M,): (M, N)."""
        dv = d[:, np.newaxis]
        di_sq = self._offs_sq + dv ** 2 - self._two_offs * dv * self._cos
        if np.count_nonzero(di_sq <= 0.0):
            raise OnPortError("degenerate geometry: transmitter coincides with a port")
        return di_sq

    def rssi(self, di_sq):
        """RSSI in dBm from the squared port distances."""
        return self._level - self._slope * np.log10(di_sq)

    def derivative(self, d, di_sq):
        """Exact dM_i/dd from the distances and their squared port distances."""
        num = 2.0 * d[:, np.newaxis] - self._two_offs_cos
        return -(self._slope / _LN10) * num / di_sq

    def dropped_term_derivative(self, d):
        """dM_i/dd with the quadratic offset term dropped, for distances d of
        shape (M,): (M, N). The weighted-ML solver's weights are built from

            -(10/ln 10) * (2d - 2*off_i*cos(theta)) / (d^2 - 2*off_i*d*cos(theta))

        (the offsets are small against d). It is singular at d equal to
        twice a projected port offset, which raises.
        """
        dv = d[:, np.newaxis]
        den = dv ** 2 - self._two_offs * dv * self._cos
        if np.count_nonzero(den == 0.0):
            raise ValueError("derivative singular: d equals twice a projected port offset")
        return -(10.0 / _LN10) * (2.0 * dv - self._two_offs_cos) / den


def snr_to_sigma2(snr_db):
    """Shadow-fading variance (dB^2) for a nominal SNR in dB.

    This is a declared convention, not a derived quantity: sigma2 =
    10**(-snr_db/10), i.e. sigma = 1 dB at SNR 0. The convention string
    (SNR_CONVENTION) is stamped into every result file. An SNR whose
    variance is not positive and finite raises.
    """
    try:
        sigma2 = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"snr_db {snr_db} gives shadow-fading variance {sigma2}; "
                         "it must be positive and finite")
    return sigma2


def in_near_field(layout, distance):
    """Whether ``distance`` is below FAR_FIELD_RATIO port spans of a port
    sweep, where the equal-mean-power approximation degrades."""
    return layout.n_ports > 1 and distance < FAR_FIELD_RATIO * layout.span_m


def simulate_measurements(layout, scene, cov, rng_seed, n_snapshots):
    """Simulate ``n_snapshots`` RSSI vectors, noiseless profile plus fading,
    as an (n_snapshots, N) array.

    The fading is Z @ L.T: Z holds the first n_snapshots * N normals of the
    seed's stream (channel.philox_keys), row by row, and L is the covariance
    factor. Z never depends on the covariance, so two calls with the same
    seed but different covariances are paired draws (identical underlying
    normals).
    """
    if cov.dim != layout.n_ports:
        raise ValueError(
            f"covariance dimension {cov.dim} does not match layout with "
            f"{layout.n_ports} ports"
        )
    try:
        n = _integer(n_snapshots)
    except TypeError:
        n = 0
    if n < 1:
        raise ValueError(f"n_snapshots must be a positive integer, got {n_snapshots!r}")
    if in_near_field(layout, scene.distance):
        warnings.warn(
            f"transmitter distance {scene.distance:.3g} m is less than "
            f"{FAR_FIELD_RATIO:.0f}x the port span {layout.span_m:.3g} m; "
            "the equal-mean-power approximation degrades",
            stacklevel=2,
        )
    z = standard_normal_rows(philox_keys(rng_seed), n * cov.dim).reshape(n, cov.dim)
    return scene.profile(layout).at(scene.distance) + z @ cov.factor().T


def write_measurements(path, rows):
    """Write a (snapshots, N) array of readings in the line-oriented record
    format.

    One snapshot per line: snapshot index, then the N port readings in dBm,
    comma separated, 9 significant digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(rows):
            values = ",".join(f"{v:.9g}" for v in row)
            fh.write(f"{t},{values}\n")


def read_measurements(path, n_ports):
    """Parse a measurement file written by write_measurements into a
    (snapshots, n_ports) array.

    Each line must carry an integer snapshot index and exactly n_ports
    readings. Raises ValueError on any malformed line and on a file without
    snapshots.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != n_ports + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected snapshot index plus "
                    f"{n_ports} readings, got {len(parts)} fields"
                )
            try:
                int(parts[0])  # the snapshot index
                rows.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable index or reading: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no snapshots found")
    return np.array(rows)
