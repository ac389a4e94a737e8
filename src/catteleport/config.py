"""Flat key-value run configuration.

Config files hold one ``key = value`` pair per line with ``#`` comments.
Frequencies are given in Hz (matching how experiments quote them) and are
converted to angular units with explicit 2*pi factors when the mode system
is built; damping is given as inverse rates in seconds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .dynamics import ModeSystem
from .errors import ConfigError, NullState
from .protocol import DEFAULT_DELTA_HZ, DEFAULT_SMALL_DELTA_HZ
from .protocol import ProtocolConfig, default_spectator_phase
from .states import cat_norm

TWO_PI = 2.0 * math.pi
# Largest |alpha| and |beta| a config may set.  The paper's regime is |alpha|
# of a few; at 10 the Fock oracle already needs ~200 levels per mode, past
# ~38 exp(-|a|**2 / 2) underflows to 0 and past ~1e154 |a|**2 overflows.
MAX_AMPLITUDE = 10.0
# Most time points a config may ask for: at the bound coeffs peaks at about
# 520 MB of memory.  The benchmark's largest grid has 20 000.
MAX_N_POINTS = 10 ** 6
# The config keys behind each ModeSystem and ProtocolConfig field, named in
# their error messages.
_FIELD_KEYS = {
    "omega1": ("omega1_Hz",), "omega2": ("omega1_Hz", "Delta_Hz"),
    "gamma11": ("gamma11_inv_s",), "gamma22": ("gamma22_inv_s",),
    "gamma12": ("gamma12",), "gamma21": ("gamma21",),
    "lamb11": ("lamb11_Hz",), "lamb22": ("lamb22_Hz",),
    "lamb12": ("lamb12_Hz",), "lamb21": ("lamb21_Hz",),
    "beta": ("beta_re", "beta_im"), "parity_sign": ("parity",),
}


@dataclass(frozen=True)
class RunConfig:
    """One field per config key; a key's type is the type of its default."""

    gamma11_inv_s: float = 1.0e-3
    gamma22_inv_s: float = 0.9e-3
    gamma12: float = 0.0
    gamma21: float = 0.0
    omega1_Hz: float = 51.1e9                 # microwave-domain mode 1
    Delta_Hz: float = DEFAULT_DELTA_HZ        # omega2 = omega1 + 2*pi*Delta
    delta_Hz: float = DEFAULT_SMALL_DELTA_HZ  # atom detuning from mode 1
    lamb11_Hz: float = 0.0
    lamb22_Hz: float = 0.0
    lamb12_Hz: float = 0.0
    lamb21_Hz: float = 0.0
    alpha_re: float = 1.0
    alpha_im: float = 0.0
    beta_re: float = 1.0
    beta_im: float = 0.0
    c_plus: float = 1.0 / math.sqrt(2.0)
    c_minus: float = 1.0 / math.sqrt(2.0)
    parity: int = 1
    spectator_phase_on: bool = True
    seed: int = 0
    t_max_s: float = 1.0e-3
    n_points: int = 200
    frame: str = "rotating"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name, amp in (("alpha", self.alpha), ("beta", self.beta)):
            size = math.hypot(amp.real, amp.imag)   # abs() raises past 1.8e308
            if size > MAX_AMPLITUDE:
                raise ConfigError(f"{name}_re and {name}_im give |{name}| = {size:.6g}, "
                                  f"above {MAX_AMPLITUDE:g}")
        if self.frame not in ("rotating", "lab"):
            raise ConfigError(f"frame must be 'rotating' or 'lab', got {self.frame!r}")
        if not 2 <= self.n_points <= MAX_N_POINTS:
            raise ConfigError(f"n_points must lie in [2, {MAX_N_POINTS}], got {self.n_points}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for key in ("gamma11_inv_s", "gamma22_inv_s", "t_max_s"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive")
        try:
            self.mode_system()
            pc = self.protocol_config()
        except ValueError as exc:
            keys = dict.fromkeys(key for name, names in _FIELD_KEYS.items()
                                 if re.search(rf"\b{name}\b", str(exc)) for key in names)
            raise ConfigError(f"{exc}; set by {', '.join(keys)}") from None
        try:
            cat_norm(pc.target)
        except NullState:
            raise ConfigError(f"alpha_re, alpha_im and parity = {self.parity} "
                              "make the mode-1 cat the null vector") from None

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def beta(self) -> complex:
        return complex(self.beta_re, self.beta_im)

    @property
    def rotating_frame(self) -> bool:
        return self.frame == "rotating"

    @property
    def spectator_phase(self) -> float:
        """The phase the spectator mode picks up during one dispersive pi
        interval at the configured detunings; 0 when switched off."""
        if not self.spectator_phase_on:
            return 0.0
        if self.Delta_Hz + self.delta_Hz == 0.0:
            raise ConfigError("delta_Hz = -Delta_Hz: the spectator phase "
                              "pi * delta_Hz / (Delta_Hz + delta_Hz) divides by zero")
        phase = default_spectator_phase(self.delta_Hz, self.Delta_Hz)
        if not math.isfinite(phase):
            raise ConfigError(f"delta_Hz = {self.delta_Hz!r} and Delta_Hz = {self.Delta_Hz!r} "
                              f"overflow the spectator phase pi * delta_Hz / (Delta_Hz + "
                              f"delta_Hz) to {phase!r}")
        return phase

    def mode_system(self) -> ModeSystem:
        omega1 = TWO_PI * self.omega1_Hz
        return ModeSystem(
            omega1=omega1,
            omega2=omega1 + TWO_PI * self.Delta_Hz,
            gamma11=1.0 / self.gamma11_inv_s,
            gamma22=1.0 / self.gamma22_inv_s,
            gamma12=self.gamma12,
            gamma21=self.gamma21,
            lamb11=TWO_PI * self.lamb11_Hz,
            lamb22=TWO_PI * self.lamb22_Hz,
            lamb12=TWO_PI * self.lamb12_Hz,
            lamb21=TWO_PI * self.lamb21_Hz,
        )

    def protocol_config(self) -> ProtocolConfig:
        norm = math.hypot(self.c_plus, self.c_minus)
        if norm < 1e-14:
            raise ConfigError("c_plus and c_minus cannot both vanish")
        return ProtocolConfig(
            alpha=self.alpha,
            beta=self.beta,
            c_plus=self.c_plus / norm,
            c_minus=self.c_minus / norm,
            parity_sign=self.parity,
            spectator_phase=self.spectator_phase,
        )


def default_config() -> RunConfig:
    return RunConfig()


def _coerce(typ: type, key: str, raw: str):
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: cannot parse boolean from {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(types[key], key, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
