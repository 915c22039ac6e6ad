"""Complexified exterior algebra over a rank-4 coframe.

Forms are stored as sparse coefficient maps on sorted basis words.  Letters
are the integers 1..4; their meaning depends on the frame tag:

* ``REAL``     e1 < e2 < e3 < e4
* ``COMPLEX``  phi1 < phi2 < conj(phi1) < conj(phi2)   (letters 3, 4 are the
  conjugates of 1, 2)
* ``UNITARY``  psi1 < psi2 < conj(psi1) < conj(psi2)

This module is the one place that knows the 16 basis words of Lambda(R^4).
At import it indexes them once into three tables: the merge table (a
disjoint pair of words -> the merged word and the sign of the merge), the
conjugation table (a word -> the word of its barred letters and the sign of
sorting them) and each word's (p,q) type.  :func:`wedge`,
:meth:`InvariantForm.conjugated`, :meth:`InvariantForm.bidegree`,
:func:`word_bidegree`, :func:`sign_of_merge` and the validation of a form's
words read those tables; nothing sorts letters per call.

Coefficients are exact scalars (``QI``; ``RootExt`` in the unitary
cross-check of the Hodge star).  Zero forms keep their frame and degree so
operator compositions stay total; a wedge whose degree exceeds 4 returns the
canonical zero form of the full degree, and its ``vanishes_by_degree``
property records that the vanishing is forced by the dimension rather than
by cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import DegreeMismatchError, FrameMismatchError
from .linalg import invert_matrix
from .scalars import QI, QI_ZERO, to_complex

Word = Tuple[int, ...]

DIM = 4


class FrameTag(Enum):
    REAL = "real"
    COMPLEX = "complex"
    UNITARY = "unitary"


_LETTER_NAMES = {
    FrameTag.REAL: {1: "e1", 2: "e2", 3: "e3", 4: "e4"},
    FrameTag.COMPLEX: {1: "1", 2: "2", 3: "1̄", 4: "2̄"},
    FrameTag.UNITARY: {1: "1", 2: "2", 3: "1̄", 4: "2̄"},
}

# conjugation swaps each letter with its barred partner in complex-type frames
_CONJ_LETTER = {1: 3, 2: 4, 3: 1, 4: 2}


def word_and_sign(letters: Sequence[int]) -> tuple[Word | None, int]:
    """Sorted word of a letter sequence and the sign of the sorting
    permutation; (None, 0) when a letter repeats.  Used to build the tables
    below (and the Hodge star's index table) at import, never per call."""
    if len(set(letters)) != len(letters):
        return None, 0
    inversions = sum(1 for i, a in enumerate(letters) for b in letters[i + 1:] if a > b)
    return tuple(sorted(letters)), -1 if inversions % 2 else 1


# the 16 basis words of Lambda(R^4), by degree, and the tables read per call
_WORDS_BY_DEGREE = tuple(tuple(combinations(range(1, DIM + 1), k)) for k in range(DIM + 1))
_WORD_SETS = tuple(frozenset(words) for words in _WORDS_BY_DEGREE)
_WORDS = tuple(w for words in _WORDS_BY_DEGREE for w in words)
# _MERGE[w1][w2] = (sorted w1 + w2, sign of the merge) for disjoint w1, w2
_MERGE = {w1: {w2: word_and_sign(w1 + w2) for w2 in _WORDS if not set(w1) & set(w2)}
          for w1 in _WORDS}
# word of the barred letters and the sign of sorting them, in complex-type frames
_CONJ = {w: word_and_sign(tuple(_CONJ_LETTER[x] for x in w)) for w in _WORDS}
# (p, q) type in complex-type frames: letters 1, 2 are unbarred, 3, 4 barred
_TYPE = {w: (sum(1 for x in w if x <= 2), sum(1 for x in w if x > 2)) for w in _WORDS}


def words_of_degree(k: int) -> tuple[Word, ...]:
    if k < 0:
        raise DegreeMismatchError(f"negative degree {k}")
    if k > DIM:
        return ()
    return _WORDS_BY_DEGREE[k]


def sign_of_merge(w1: Word, w2: Word) -> int:
    """Sign of merging two sorted words, 0 when they share a letter."""
    merged = _MERGE[tuple(w1)].get(tuple(w2))
    return merged[1] if merged else 0


def word_bidegree(word: Word) -> tuple[int, int]:
    """(p, q) type of a basis word in a complex-type frame."""
    return _TYPE[tuple(word)]


def _word_error(word: Word, degree: int) -> DegreeMismatchError:
    if len(word) != degree:
        return DegreeMismatchError(f"word {word} does not have degree {degree}")
    if any(not 1 <= x <= DIM for x in word):
        return DegreeMismatchError(f"word {word} has letters outside 1..{DIM}")
    return DegreeMismatchError(f"word {word} is not strictly increasing")


@dataclass(frozen=True)
class InvariantForm:
    """A left-invariant k-form: frame tag, degree, and word -> scalar map."""

    frame: FrameTag
    degree: int
    coeffs: Mapping[Word, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeMismatchError(f"negative degree {self.degree}")
        if self.degree > DIM and self.coeffs:
            raise DegreeMismatchError(
                f"degree {self.degree} exceeds the dimension; only the zero form exists"
            )
        if self.coeffs and not self.coeffs.keys() <= _WORD_SETS[self.degree]:
            bad = next(w for w in self.coeffs if w not in _WORD_SETS[self.degree])
            raise _word_error(bad, self.degree)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(frame: FrameTag, degree: int, coeffs: Mapping[Word, object]) -> "InvariantForm":
        pruned = {w: c for w, c in coeffs.items() if c}
        return InvariantForm(frame, degree, pruned)

    @staticmethod
    def zero(frame: FrameTag, degree: int) -> "InvariantForm":
        return InvariantForm(frame, degree, {})

    @staticmethod
    def basis(frame: FrameTag, word: Iterable[int], coeff=None) -> "InvariantForm":
        word = tuple(word)
        if coeff is None:
            coeff = QI(1)
        return InvariantForm.build(frame, len(word), {word: coeff})

    @staticmethod
    def constant(frame: FrameTag, value) -> "InvariantForm":
        return InvariantForm.build(frame, 0, {(): value})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def vanishes_by_degree(self) -> bool:
        return self.degree > DIM

    def get(self, word: Word):
        return self.coeffs.get(tuple(word), QI_ZERO)

    def items(self):
        return sorted(self.coeffs.items())

    def bidegree(self) -> tuple[int, int] | None:
        """(p, q) when the form has pure type in a complex-type frame, else None."""
        if self.frame is FrameTag.REAL or not self.coeffs:
            return None
        seen = {_TYPE[w] for w in self.coeffs}
        return seen.pop() if len(seen) == 1 else None

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "InvariantForm") -> None:
        if self.frame is not other.frame:
            raise FrameMismatchError(f"{self.frame} vs {other.frame}")
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out[w] + c if w in out else c
        return InvariantForm.build(self.frame, self.degree, out)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(self.frame, self.degree,
                             {w: -c for w, c in self.coeffs.items()})

    def scaled(self, scalar) -> "InvariantForm":
        if not scalar:
            return InvariantForm.zero(self.frame, self.degree)
        return InvariantForm.build(self.frame, self.degree,
                                   {w: scalar * c for w, c in self.coeffs.items()})

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        return wedge(self, other)

    def conjugated(self) -> "InvariantForm":
        """Complex conjugate; in complex-type frames letters swap with their bars."""
        if self.frame is FrameTag.REAL:
            return InvariantForm.build(
                self.frame, self.degree,
                {w: c.conjugate() for w, c in self.coeffs.items()})
        out: dict[Word, object] = {}
        for w, c in self.coeffs.items():
            word, sign = _CONJ[w]
            out[word] = c.conjugate() if sign > 0 else -(c.conjugate())
        return InvariantForm(self.frame, self.degree, out)

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(to_complex(c)) for c in self.coeffs.values())

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return format_form(self)


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product; frames must match, degrees add.

    Degrees summing above the dimension yield the canonical zero form of the
    full degree (see :attr:`InvariantForm.vanishes_by_degree`).
    """
    if a.frame is not b.frame:
        raise FrameMismatchError(f"{a.frame} vs {b.frame}")
    degree = a.degree + b.degree
    if degree > DIM:
        return InvariantForm.zero(a.frame, degree)
    out: dict[Word, object] = {}
    for w1, c1 in a.coeffs.items():
        merges = _MERGE[w1]
        for w2, c2 in b.coeffs.items():
            merged = merges.get(w2)
            if merged is None:
                continue
            word, sign = merged
            val = c1 * c2 if sign > 0 else -(c1 * c2)
            out[word] = out[word] + val if word in out else val
    return InvariantForm.build(a.frame, degree, out)


def substitute_letters(f: InvariantForm, target: FrameTag, letters_in_target
                       ) -> InvariantForm:
    """Expand a form after substituting each source letter by a target 1-form.

    ``letters_in_target[i][j]`` is the coefficient of target letter j+1 in
    source letter i+1.
    """
    if f.degree == 0:
        return InvariantForm.build(target, 0, dict(f.coeffs))
    letter_forms = [
        InvariantForm.build(target, 1,
                            {(j,): letters_in_target[i][j - 1]
                             for j in range(1, DIM + 1)})
        for i in range(DIM)
    ]
    total = InvariantForm.zero(target, f.degree)
    for word, c in f.coeffs.items():
        term = InvariantForm.constant(target, c)
        for letter in word:
            term = wedge(term, letter_forms[letter - 1])
        total = total + term
    return total


def change_frame(f: InvariantForm, target: FrameTag, basis_matrix) -> InvariantForm:
    """Rewrite a form in another coframe.

    ``basis_matrix`` is a 4x4 matrix whose row i expresses target letter i as
    a combination of the source letters.  Its inverse therefore expresses the
    source letters in the target coframe; each source letter is substituted
    and the wedges expanded.  Raises ``SingularMatrixError`` for a singular
    matrix.
    """
    inv = invert_matrix([list(row) for row in basis_matrix])
    return substitute_letters(f, target, inv)


def format_form(f: InvariantForm) -> str:
    if f.is_zero:
        return "0"
    symbol = {FrameTag.REAL: "e", FrameTag.COMPLEX: "phi", FrameTag.UNITARY: "psi"}[f.frame]
    names = _LETTER_NAMES[f.frame]
    parts = []
    for word, c in f.items():
        if f.frame is FrameTag.REAL:
            wtxt = f"e^{{{''.join(str(x) for x in word)}}}" if word else "1"
        else:
            wtxt = f"{symbol}^{{{''.join(names[x] for x in word)}}}" if word else "1"
        ctxt = str(c)
        if ctxt == "1" and word:
            parts.append(wtxt)
        elif ctxt == "-1" and word:
            parts.append(f"-{wtxt}")
        else:
            needs_parens = ("+" in ctxt[1:]) or ("-" in ctxt[1:])
            ctxt = f"({ctxt})" if needs_parens else ctxt
            parts.append(f"{ctxt}*{wtxt}" if word else ctxt)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")
