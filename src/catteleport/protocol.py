"""Ideal teleportation pipeline as a symbolic state machine over TermState.

The pipeline (lossless; losses live in :mod:`catteleport.fidelity`):

    R1' pi/2 pulse -> dispersive pi on mode 1 -> Stark switch ->
    dispersive pi on mode 2 -> R2' pi/2 pulse -> atom detection ->
    reference-field displacement -> mode-2 phase discrimination.

Both Ramsey zones apply a pi/2 pulse from the same one-parameter family,
distinguished by the classical drive phase: R1' uses phase 0, R2' uses
phase pi.  That pair is the unique assignment consistent with the pulse
acting on |g> as (|g>+|e>)/sqrt(2) at R1' while giving the four measurement
branches after R2' the sign pattern the correction step relies on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import NullState
from .states import (
    AtomLevel,
    CatSpec,
    Term,
    TermState,
    cat_term_state,
    merge_terms,
    normalized,
    project_atom,
    scale_state,
    state_overlap,
    term_norm,
)

# Default experimental phases: chi*tau = pi with chi = g^2/delta gives
# tau = pi*delta/g^2, hence spectator phase g^2*tau/(Delta+delta).
DEFAULT_DELTA_HZ = 1.0e7
DEFAULT_SMALL_DELTA_HZ = 1.0e5


def default_spectator_phase(delta_hz: float = DEFAULT_SMALL_DELTA_HZ,
                            big_delta_hz: float = DEFAULT_DELTA_HZ) -> float:
    return math.pi * delta_hz / (big_delta_hz + delta_hz)


class ChiMode(Enum):
    """Which mode carries the dispersive shift chi."""

    MODE1 = "mode1"
    MODE2 = "mode2"


class Classification(Enum):
    SUCCESS_DIRECT = "success_direct"
    SUCCESS_AFTER_CORRECTION = "success_after_correction"
    FAILURE = "failure"


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one teleportation run."""

    alpha: complex
    beta: complex
    c_plus: complex
    c_minus: complex
    parity_sign: int = 1
    spectator_phase: float = field(default_factory=default_spectator_phase)

    def __post_init__(self):
        # building both cats runs CatSpec's checks of the coefficients, the
        # parity and the amplitudes
        self.target, self.target_mode2
        if self.effective_phase_error >= 1.0:
            raise ValueError(f"beta = {self.beta!r}: the phase readout cannot "
                             "tell the reference field from the vacuum")

    @property
    def effective_phase_error(self) -> float:
        """Misidentification probability |<0|2 beta>|^2."""
        return math.exp(-4.0 * abs(self.beta) ** 2)

    @property
    def target(self) -> CatSpec:
        """The state the protocol should deposit in mode 1."""
        return CatSpec(self.c_plus, self.c_minus, self.alpha, self.parity_sign)

    @property
    def target_mode2(self) -> CatSpec:
        """The initially prepared mode-2 cat."""
        return CatSpec(self.c_plus, self.c_minus, self.beta, self.parity_sign)


@dataclass(frozen=True)
class BranchOutcome:
    """One of the four (atom, field sign) measurement branches."""

    atom: AtomLevel
    field_sign: int
    residual_mode1: TermState
    probability: float
    classification: Classification


def ramsey_half_pulse(state: TermState, drive_phase: float = 0.0) -> TermState:
    """pi/2 pulse: |g> -> (|g> + e^{i phi}|e>)/sqrt2, |e> -> (|e> - e^{-i phi}|g>)/sqrt2."""
    inv = 1.0 / math.sqrt(2.0)
    ph = cmath.exp(1j * drive_phase)
    out = []
    for t in state.terms:
        if t.atom is AtomLevel.G:
            out.append(Term(t.weight * inv, AtomLevel.G, t.amp1, t.amp2))
            out.append(Term(t.weight * inv * ph, AtomLevel.E, t.amp1, t.amp2))
        else:
            out.append(Term(t.weight * inv, AtomLevel.E, t.amp1, t.amp2))
            out.append(Term(-t.weight * inv / ph, AtomLevel.G, t.amp1, t.amp2))
    return merge_terms(TermState(tuple(out)))


def dispersive_pi(state: TermState, mode: ChiMode,
                  spectator_phase: float = 0.0) -> TermState:
    """Dispersive pi interaction: e-terms flip the selected mode's amplitude.

    The non-selected mode of each e-term picks up the small deterministic
    spectator phase; g-terms are untouched.
    """
    spec = cmath.exp(1j * spectator_phase)
    out = []
    for t in state.terms:
        if t.atom is AtomLevel.E:
            if mode is ChiMode.MODE1:
                out.append(Term(t.weight, t.atom, -t.amp1, spec * t.amp2))
            else:
                out.append(Term(t.weight, t.atom, spec * t.amp1, -t.amp2))
        else:
            out.append(t)
    return TermState(tuple(out))


def displace_mode2(state: TermState, ref_amp: complex) -> TermState:
    """Displacement D(ref) on mode 2: |a> -> e^{i Im(ref conj(a))} |a + ref>."""
    ref = complex(ref_amp)
    out = []
    for t in state.terms:
        phase = cmath.exp(1j * (ref * t.amp2.conjugate()).imag)
        out.append(Term(t.weight * phase, t.atom, t.amp1, t.amp2 + ref))
    return TermState(tuple(out))


def apply_correction(state: TermState) -> TermState:
    """Conditional pi-phase on mode 1: every amplitude alpha -> -alpha."""
    return TermState(
        tuple(Term(t.weight, t.atom, -t.amp1, t.amp2) for t in state.terms)
    )


def phase_branches(state: TermState, beta_ref: complex):
    """Both phase-readout branches of a displaced state, without sampling.

    Returns ((sign, post_state, probability), ...) for signs +1 and -1.  Each
    term goes to the nearer readout centre: 2*beta_ref gives +1, 0 gives -1,
    and a tie gives +1.  Probabilities are the cluster norms renormalized to
    sum to the squared norm of ``state``.  The discarded cross-cluster
    coherence is O(exp(-2|beta|^2)), a bound that holds only with the
    spectator phase off.  With it on, the terms of a cluster carry distinct
    mode-2 amplitudes whose overlaps the residual also ignores (see
    ``_strip_mode2``): at alpha = 1.5, beta = 2 the g/+ branch reports
    F = 0.998243 where the exact readout gives 0.987726.
    """
    center_plus = 2.0 * complex(beta_ref)
    plus, zero = [], []
    for t in state.terms:
        (plus if abs(t.amp2 - center_plus) <= abs(t.amp2) else zero).append(t)
    plus, zero = TermState(tuple(plus)), TermState(tuple(zero))
    n_plus2 = term_norm(plus) ** 2
    n_zero2 = term_norm(zero) ** 2
    total = n_plus2 + n_zero2
    if total < 1e-28:
        raise NullState("displaced state has no readout amplitude")
    norm2 = term_norm(state) ** 2
    branches = []
    for sign, sub, n2 in ((1, plus, n_plus2), (-1, zero, n_zero2)):
        prob = norm2 * n2 / total
        post = scale_state(sub, 1.0 / math.sqrt(n2)) if n2 > 1e-28 else sub
        branches.append((sign, post, prob))
    return tuple(branches)


def _strip_mode2(cluster_state: TermState) -> TermState:
    """Drop the measured mode-2 register of a cluster sub-state.

    Cluster members are treated as sharing one readout state, so weights are
    kept as-is; the atom tag is reset to G for target comparisons.
    """
    out = tuple(
        Term(t.weight, AtomLevel.G, t.amp1, 0.0) for t in cluster_state.terms
    )
    return TermState(out)


def _classify(atom: AtomLevel, sign: int) -> Classification:
    if atom is AtomLevel.G:
        return (Classification.SUCCESS_DIRECT if sign == 1
                else Classification.SUCCESS_AFTER_CORRECTION)
    return Classification.FAILURE


def run_protocol(cfg: ProtocolConfig) -> tuple[BranchOutcome, ...]:
    """Execute the full ideal pipeline and return all four exact branches."""
    state = cat_term_state(cfg.target_mode2, mode1_amp=cfg.alpha)
    state = ramsey_half_pulse(state, drive_phase=0.0)
    state = dispersive_pi(state, ChiMode.MODE1, cfg.spectator_phase)
    # Stark switch: instantaneous change of which mode carries chi; no
    # additional phase accrues here in the ideal (lossless) pipeline.
    state = dispersive_pi(state, ChiMode.MODE2, cfg.spectator_phase)
    state = ramsey_half_pulse(state, drive_phase=math.pi)

    outcomes = []
    for atom in (AtomLevel.G, AtomLevel.E):
        try:
            branch, p_atom = project_atom(state, atom)
        except NullState:   # p(atom) = 0 is a result: both readouts are empty
            p_atom, branches = 0.0, ((1, TermState(()), 0.0), (-1, TermState(()), 0.0))
        else:
            branches = phase_branches(displace_mode2(branch, cfg.beta), cfg.beta)
        for sign, post, p_sign in branches:
            try:
                residual = normalized(_strip_mode2(post))
            except NullState:
                residual = TermState(())
            outcomes.append(BranchOutcome(
                atom=atom,
                field_sign=sign,
                residual_mode1=residual,
                probability=p_atom * p_sign,
                classification=_classify(atom, sign),
            ))
    return tuple(outcomes)


def target_state(cfg: ProtocolConfig) -> TermState:
    """Normalized mode-1 target C+|alpha> + parity C-|-alpha> (atom tag G)."""
    return TermState.from_tuples(
        (weight, AtomLevel.G, amp, 0.0) for weight, amp in cfg.target.components())


def residual_fidelity(residual: TermState, cfg: ProtocolConfig) -> float:
    """|<target|residual>|^2 for a normalized mode-1 residual."""
    if not residual.terms:
        return 0.0
    return abs(state_overlap(target_state(cfg), residual)) ** 2


def sample_outcomes(outcomes: Sequence[BranchOutcome], trials: int,
                    error_prob: float, rng: np.random.Generator) -> dict:
    """Sampled counts of reported (atom, sign) pairs over ``trials`` runs."""
    probs = np.array([o.probability for o in outcomes])
    probs = probs / probs.sum()
    counts = {(o.atom, o.field_sign): 0 for o in outcomes}
    draws = rng.choice(len(outcomes), size=trials, p=probs)
    flips = rng.random(trials) < error_prob
    # slot 2i counts outcome i as drawn, slot 2i+1 with its readout sign flipped
    tally = np.bincount(2 * draws + flips, minlength=2 * len(outcomes))
    for i, o in enumerate(outcomes):
        counts[(o.atom, o.field_sign)] += int(tally[2 * i])
        counts[(o.atom, -o.field_sign)] += int(tally[2 * i + 1])
    return counts
