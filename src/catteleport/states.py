"""Exact algebra of coherent states, cat states, and finite coherent superpositions.

Coherent amplitudes are kept as symbolic labels (complex numbers); nothing in
this module ever expands a state in the number basis.  All norms and
probabilities are evaluated through the non-orthogonal overlap

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple

from .errors import ConsistencyError, NullState

# Two amplitude labels closer than this are treated as the same coherent state.
LABEL_TOL = 1e-12
# Norms with a larger relative imaginary residue indicate a Gram-matrix bug.
IMAG_RESIDUE_TOL = 1e-12
# Below this a superposition is considered the null vector.
NULL_NORM_TOL = 1e-14


class AtomLevel(Enum):
    """Circular two-level atom states."""

    G = "g"
    E = "e"


def overlap(a: complex, b: complex) -> complex:
    """Coherent-state overlap <a|b>."""
    a = complex(a)
    b = complex(b)
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


@dataclass(frozen=True)
class CatSpec:
    """Superposition c_plus|alpha> + parity_sign * c_minus|-alpha>.

    The coefficients obey |c_plus|^2 + |c_minus|^2 = 1; the physical norm
    additionally involves the <alpha|-alpha> overlap, see :func:`cat_norm`.
    """

    c_plus: complex
    c_minus: complex
    alpha: complex
    parity_sign: int = 1

    def __post_init__(self):
        if self.parity_sign not in (1, -1):
            raise ValueError("parity_sign must be +1 or -1")
        coeff = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if abs(coeff - 1.0) > 1e-12:
            raise ValueError(
                f"|c_plus|^2 + |c_minus|^2 = {coeff!r}, expected 1 within 1e-12"
            )
        for v in (self.c_plus, self.c_minus, self.alpha):
            if not (math.isfinite(complex(v).real) and math.isfinite(complex(v).imag)):
                raise ValueError("amplitudes must be finite")

    def components(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """(weight, amplitude) of both coherent components of the normalized cat."""
        n = cat_norm(self)
        alpha = complex(self.alpha)
        return ((complex(self.c_plus) / n, alpha),
                (self.parity_sign * complex(self.c_minus) / n, -alpha))


def cat_norm(spec: CatSpec) -> float:
    """Physical norm of the cat superposition described by ``spec``."""
    cross = (
        spec.c_plus.conjugate()
        * complex(spec.c_minus)
        * overlap(spec.alpha, -complex(spec.alpha))
    )
    n2 = (
        abs(spec.c_plus) ** 2
        + abs(spec.c_minus) ** 2
        + 2.0 * spec.parity_sign * cross.real
    )
    n = math.sqrt(max(n2, 0.0))
    if n < NULL_NORM_TOL:
        raise NullState("cat superposition is the null vector")
    return n


@dataclass(frozen=True)
class Term:
    """One component of a TermState: weight * |atom> |amp1>_1 |amp2>_2."""

    weight: complex
    atom: AtomLevel
    amp1: complex
    amp2: complex


@dataclass(frozen=True)
class TermState:
    """Finite superposition of (atom level, two coherent amplitudes) terms."""

    terms: Tuple[Term, ...]

    @classmethod
    def from_tuples(cls, entries: Iterable[tuple]) -> "TermState":
        terms = []
        for weight, atom, amp1, amp2 in entries:
            if not isinstance(atom, AtomLevel):
                atom = AtomLevel(atom)
            terms.append(Term(complex(weight), atom, complex(amp1), complex(amp2)))
        return cls(tuple(terms))


def state_overlap(bra: TermState, ket: TermState) -> complex:
    """Inner product <bra|ket> including all coherent cross terms."""
    total = 0.0 + 0.0j
    for tj in bra.terms:
        for tk in ket.terms:
            if tj.atom is not tk.atom:
                continue
            total += (
                tj.weight.conjugate()
                * tk.weight
                * overlap(tj.amp1, tk.amp1)
                * overlap(tj.amp2, tk.amp2)
            )
    return total


def _gram_noise(state: TermState) -> float:
    """K eps (sum |w_i|)^2: the Gram sum of K terms, K^2 products of at most
    |w_i| |w_j| each, keeps rounding noise of about this size when its terms
    nearly cancel, however small the sum itself."""
    return len(state.terms) * math.ulp(1.0) * sum(abs(t.weight) for t in state.terms) ** 2


def term_norm(state: TermState) -> float:
    """Physical norm of ``state`` via the Gram matrix of its coherent labels."""
    n2 = state_overlap(state, state)
    residue = abs(n2.imag)
    # an imaginary part within that noise is rounding, not an error
    if residue > IMAG_RESIDUE_TOL * max(1.0, abs(n2.real)) and residue > _gram_noise(state):
        raise ConsistencyError(f"norm^2 has imaginary residue {n2.imag!r}")
    return math.sqrt(max(n2.real, 0.0))


def scale_state(state: TermState, factor: complex) -> TermState:
    return TermState(
        tuple(Term(t.weight * factor, t.atom, t.amp1, t.amp2) for t in state.terms)
    )


def merge_terms(state: TermState) -> TermState:
    """Sum weights of terms whose (atom, amp1, amp2) labels coincide.

    Labels within LABEL_TOL are identified; terms whose merged weight is
    negligible relative to the largest weight are dropped.
    """
    merged: list[Term] = []
    for t in state.terms:
        for i, m in enumerate(merged):
            if (
                t.atom is m.atom
                and abs(t.amp1 - m.amp1) < LABEL_TOL
                and abs(t.amp2 - m.amp2) < LABEL_TOL
            ):
                merged[i] = Term(m.weight + t.weight, m.atom, m.amp1, m.amp2)
                break
        else:
            merged.append(t)
    if not merged:
        return TermState(())
    wmax = max(abs(m.weight) for m in merged)
    kept = tuple(m for m in merged if abs(m.weight) > 1e-14 * wmax)
    return TermState(kept)


def normalized(state: TermState) -> TermState:
    n = term_norm(state)
    if n < NULL_NORM_TOL:
        raise NullState("cannot normalize a null superposition")
    return scale_state(state, 1.0 / n)


def project_atom(state: TermState, outcome: AtomLevel) -> tuple[TermState, float]:
    """Project onto an atom-detection outcome.

    Returns the renormalized sub-superposition and its Born probability.
    The two outcome probabilities sum to the squared norm of ``state``
    exactly, since the atom levels are orthogonal.
    """
    sub = TermState(tuple(t for t in state.terms if t.atom is outcome))
    if not sub.terms:
        raise NullState(f"no amplitude on atom outcome {outcome.value!r}")
    n = term_norm(sub)
    if n < NULL_NORM_TOL or n * n <= _gram_noise(sub):   # n^2 is rounding noise
        raise NullState(f"branch {outcome.value!r} has zero norm")
    return scale_state(sub, 1.0 / n), n * n


def cat_term_state(spec: CatSpec, mode1_amp: complex) -> TermState:
    """Normalized TermState: atom in g, |mode1_amp> in mode 1, the cat in mode 2."""
    return TermState.from_tuples(
        (weight, AtomLevel.G, mode1_amp, amp) for weight, amp in spec.components())
