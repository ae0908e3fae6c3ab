"""Stochastic small-scale fading: Rayleigh and Rician channel stages.

The flat channel of §5.3 (one attenuation, one phase) describes a static
link; real links also fade as the multipath environment moves.  These
stages model that with the two classical small-scale distributions:

* **Rayleigh** — no line of sight; the complex gain is circularly
  symmetric Gaussian, ``g ~ CN(0, Ω)``, so the envelope ``|g|`` is
  Rayleigh distributed with mean power ``E[|g|²] = Ω``.
* **Rician** — a line-of-sight ray of power ``K/(K+1)·Ω`` plus scattered
  energy of power ``1/(K+1)·Ω``; ``K`` (the K-factor) is given in dB and
  large ``K`` degenerates to the static flat channel.

Each stage supports two time structures:

* ``mode="block"`` — one gain per application (per packet): the channel
  is constant over a packet and independent across packets, the standard
  block-fading abstraction;
* ``mode="drift"`` — the gain evolves *within* the packet as a
  first-order Gauss–Markov process with per-sample correlation ``ρ``
  derived from the ``doppler`` rate, reproducing the slow variation §6
  warns about ("they do vary with time").

All randomness comes from the ``rng`` handed to the stage — in the
simulator that is the per-trial engine substream, so fades are
reproducible and independent of worker scheduling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.model import Channel
from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal
from repro.utils.db import db_to_power_ratio

#: Time structures a fading stage supports.
FADING_MODES = ("block", "drift")

#: Fading families a link or impairment config may request.
FADING_KINDS = ("none", "rayleigh", "rician")


class FadingChannel(Channel):
    """Common machinery of the Rayleigh and Rician stages.

    Parameters
    ----------
    mean_power_gain:
        Average power gain ``Ω = E[|g|²]`` of the fade (1.0 keeps the
        link budget neutral; the deterministic path attenuation stays in
        :class:`~repro.channel.flat.FlatFadingChannel`).
    mode:
        ``"block"`` (one gain per application) or ``"drift"`` (in-packet
        Gauss–Markov evolution).
    doppler:
        Normalised fade rate for ``mode="drift"``: the fraction of the
        gain decorrelated per sample (per-sample correlation is
        ``ρ = 1 - doppler``).  Must be 0 in block mode.
    rng:
        Random generator the fades are drawn from; defaults to a fresh
        unseeded generator (tests and simulators always pass one).
    """

    def __init__(
        self,
        mean_power_gain: float = 1.0,
        mode: str = "block",
        doppler: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        if mean_power_gain <= 0:
            raise ChannelError("mean_power_gain must be positive")
        if mode not in FADING_MODES:
            raise ChannelError(
                f"unknown fading mode {mode!r}; choose from {FADING_MODES}"
            )
        if not 0.0 <= doppler < 1.0:
            raise ChannelError("doppler must lie in [0, 1)")
        if mode == "block" and doppler != 0.0:
            raise ChannelError("block fading takes no doppler rate")
        self.mean_power_gain = float(mean_power_gain)
        self.mode = mode
        self.doppler = float(doppler)
        self._rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    # Gain processes
    # ------------------------------------------------------------------
    def _scattered_gain(self, scale: float) -> complex:
        """One circularly symmetric Gaussian draw of mean power ``scale``."""
        std = np.sqrt(scale / 2.0)
        return complex(
            self._rng.normal(0.0, std) + 1j * self._rng.normal(0.0, std)
        )

    def _scattered_drift(self, n_samples: int, scale: float) -> np.ndarray:
        """A stationary Gauss–Markov scattered-gain track of ``n_samples``.

        ``g[0] ~ CN(0, scale)`` and
        ``g[n] = ρ g[n-1] + sqrt(1-ρ²) w[n]`` with ``w ~ CN(0, scale)``,
        which keeps every marginal at mean power ``scale`` while the
        autocorrelation decays as ``ρ^k``.
        """
        rho = 1.0 - self.doppler
        innovation_scale = np.sqrt(max(1.0 - rho * rho, 0.0))
        std = np.sqrt(scale / 2.0)
        noise = self._rng.normal(0.0, std, (2, n_samples))
        gains = np.empty(n_samples, dtype=np.complex128)
        current = complex(noise[0, 0], noise[1, 0])
        gains[0] = current
        for index in range(1, n_samples):
            innovation = complex(noise[0, index], noise[1, index])
            current = rho * current + innovation_scale * innovation
            gains[index] = current
        return gains

    def _line_of_sight(self) -> complex:
        """The deterministic LOS component (none for Rayleigh)."""
        return 0.0 + 0.0j

    def _scattered_power(self) -> float:
        """Mean power of the scattered (diffuse) component."""
        return self.mean_power_gain

    def draw_gains(self, n_samples: int) -> np.ndarray:
        """Draw the complex gain track for one application.

        Returns a 0-d array (one gain) in block mode and an
        ``(n_samples,)`` array in drift mode; either broadcasts over the
        signal with a single multiply.
        """
        if n_samples < 0:
            raise ChannelError("n_samples must be non-negative")
        los = self._line_of_sight()
        scattered = self._scattered_power()
        if self.mode == "block":
            return np.asarray(los + self._scattered_gain(scattered))
        return los + self._scattered_drift(int(n_samples), scattered)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, signal: ComplexSignal) -> ComplexSignal:
        """Multiply the signal by one freshly drawn fade realisation."""
        if signal.samples.size == 0:
            return signal
        return ComplexSignal(signal.samples * self.draw_gains(signal.samples.size))


class RayleighFadingChannel(FadingChannel):
    """Rayleigh fading: scattered energy only, no line-of-sight ray.

    The complex gain is ``CN(0, Ω)``; the envelope is Rayleigh with mean
    power ``Ω = mean_power_gain``.  See :class:`FadingChannel` for the
    block/drift time structures and the rng contract.
    """


def make_fading_channel(
    kind: str,
    k_db: float = 6.0,
    los_phase: float = 0.0,
    mean_power_gain: float = 1.0,
    mode: str = "block",
    doppler: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Optional[FadingChannel]:
    """Build the fading stage a link's fields describe (``None`` for "none").

    This is the one place the string form (``Link.fading`` /
    ``ImpairmentConfig.fading``) is mapped to a concrete stage, so the
    simulator and the CLI agree on what each name means.
    """
    if kind == "none":
        return None
    if kind == "rayleigh":
        return RayleighFadingChannel(
            mean_power_gain=mean_power_gain, mode=mode, doppler=doppler, rng=rng
        )
    if kind == "rician":
        return RicianFadingChannel(
            k_db=k_db,
            los_phase=los_phase,
            mean_power_gain=mean_power_gain,
            mode=mode,
            doppler=doppler,
            rng=rng,
        )
    raise ChannelError(f"unknown fading kind {kind!r}; choose from {FADING_KINDS}")


class RicianFadingChannel(FadingChannel):
    """Rician fading: a line-of-sight ray plus Rayleigh-scattered energy.

    Parameters
    ----------
    k_db:
        Rician K-factor in dB — the LOS-to-scattered power ratio.  The
        LOS ray carries ``K/(K+1)`` of the mean power and the scattered
        component ``1/(K+1)``; ``k_db → -∞`` recovers Rayleigh and large
        ``k_db`` approaches the static flat channel.
    los_phase:
        Phase of the LOS ray in radians (the specular path's geometry).
    mean_power_gain, mode, doppler, rng:
        As for :class:`FadingChannel`.
    """

    def __init__(
        self,
        k_db: float = 6.0,
        los_phase: float = 0.0,
        mean_power_gain: float = 1.0,
        mode: str = "block",
        doppler: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        super().__init__(
            mean_power_gain=mean_power_gain, mode=mode, doppler=doppler, rng=rng
        )
        self.k_db = float(k_db)
        self.los_phase = float(los_phase)
        self._k_linear = db_to_power_ratio(self.k_db)

    def _line_of_sight(self) -> complex:
        los_power = self.mean_power_gain * self._k_linear / (self._k_linear + 1.0)
        return complex(np.sqrt(los_power) * np.exp(1j * self.los_phase))

    def _scattered_power(self) -> float:
        return self.mean_power_gain / (self._k_linear + 1.0)
