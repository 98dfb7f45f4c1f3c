"""Instances of the (omega-)Post Correspondence Problem and their ground-truth oracles.

An instance is a pair of morphisms ``h, g`` from a domain alphabet into an
image alphabet, each letter being a single character.  Image letters carry
1-based codes given by their position in the declared image alphabet, and
``s`` denotes ``len(image_alphabet) + 1``, so all codes lie in ``1..s-1``.

Everything here is brute force on purpose: these functions are the oracles
that the automaton and game constructions are checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PcpError(ValueError):
    """Malformed instance text or an operation called outside its domain."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=True)
class PcpInstance:
    domain_alphabet: tuple[str, ...]
    image_alphabet: tuple[str, ...]
    h_images: dict[str, str]
    g_images: dict[str, str]

    def __post_init__(self) -> None:
        if len(set(self.domain_alphabet)) != len(self.domain_alphabet):
            raise PcpError(f"duplicate domain letters: {self.domain_alphabet}")
        if len(set(self.image_alphabet)) != len(self.image_alphabet):
            raise PcpError(f"duplicate image letters: {self.image_alphabet}")
        for letter in self.domain_alphabet:
            if letter not in self.h_images or letter not in self.g_images:
                raise PcpError(f"letter {letter!r} is missing an image")
        for images in (self.h_images, self.g_images):
            for letter, image in images.items():
                if letter not in self.domain_alphabet:
                    raise PcpError(f"image given for unknown letter {letter!r}")
                for b in image:
                    if b not in self.image_alphabet:
                        raise PcpError(f"image letter {b!r} not in image alphabet")

    def __hash__(self) -> int:
        return hash((
            self.domain_alphabet,
            self.image_alphabet,
            tuple(sorted(self.h_images.items())),
            tuple(sorted(self.g_images.items())),
        ))

    @property
    def s(self) -> int:
        """One more than the image alphabet size; letter codes lie in 1..s-1."""
        return len(self.image_alphabet) + 1

    def code(self, image_letter: str) -> int:
        """1-based position of an image letter in the declared order."""
        try:
            return self.image_alphabet.index(image_letter) + 1
        except ValueError:
            raise PcpError(f"unknown image letter {image_letter!r}") from None

    def h(self, w: str) -> str:
        self.check_word(w)
        return "".join(self.h_images[a] for a in w)

    def g(self, w: str) -> str:
        self.check_word(w)
        return "".join(self.g_images[a] for a in w)

    def check_word(self, w: str) -> None:
        """Raise PcpError at the first letter of w outside the domain alphabet."""
        for a in w:
            if a not in self.domain_alphabet:
                raise PcpError(f"unknown domain letter {a!r}")


class BadPrefixCase(enum.Enum):
    """The six non-solution witness shapes, in their canonical listing order."""

    I = "i"      # equal image lengths, single-letter prefix
    II = "ii"    # equal image lengths, longer prefix
    III = "iii"  # mismatch inside the first letter's image under both morphisms
    IV = "iv"    # mismatch inside the same (non-first) letter's images
    V = "v"      # h-image longer, mismatch spans different letters
    VI = "vi"    # g-image longer, mismatch spans different letters


def _letter_spanning(image_lengths: list[int], position: int) -> int:
    """1-based index of the domain letter whose image covers the given position."""
    total = 0
    for t, length in enumerate(image_lengths, start=1):
        total += length
        if position <= total:
            return t
    raise PcpError(f"position {position} beyond image of length {total}")


def bad_prefix_case(inst: PcpInstance, p: str) -> BadPrefixCase | None:
    """First applicable witness case for p, or None when p is a good prefix.

    The cases overlap (a first-letter mismatch may coincide with equal image
    lengths); a mismatch is classified by the mismatch cases III..VI first,
    falling back to the length-equality cases I/II, which also absorb
    mismatches that none of III..VI describe (equal lengths, different
    letters).  No claim is made that the cases are mutually exclusive.
    """
    if not p:
        raise PcpError("prefix must be nonempty")
    hp, gp = inst.h(p), inst.g(p)
    mismatch = next(
        (i for i, (x, y) in enumerate(zip(hp, gp), start=1) if x != y), None
    )
    if mismatch is not None:
        h_first = len(inst.h_images[p[0]])
        g_first = len(inst.g_images[p[0]])
        if mismatch <= h_first and mismatch <= g_first:
            return BadPrefixCase.III
        t_h = _letter_spanning([len(inst.h_images[a]) for a in p], mismatch)
        t_g = _letter_spanning([len(inst.g_images[a]) for a in p], mismatch)
        if t_h == t_g:
            return BadPrefixCase.IV
        if len(hp) > len(gp):
            return BadPrefixCase.V
        if len(gp) > len(hp):
            return BadPrefixCase.VI
    if len(hp) == len(gp):
        return BadPrefixCase.I if len(p) == 1 else BadPrefixCase.II
    return None


DEFAULT_MARKER = "α"


def desynchronize(inst: PcpInstance, marker: str = DEFAULT_MARKER) -> PcpInstance:
    """Insert a fresh marker letter so image lengths can never agree.

    The marker goes to the left of every letter in each h-image and to the
    right of every letter in each g-image, with ``h(marker) = ε`` and
    ``g(marker) = marker``.
    """
    if len(marker) != 1:
        raise PcpError(f"marker must be a single character, got {marker!r}")
    if marker in inst.domain_alphabet or marker in inst.image_alphabet:
        raise PcpError(f"marker {marker!r} collides with an existing letter")
    h_images = {a: "".join(marker + b for b in img) for a, img in inst.h_images.items()}
    g_images = {a: "".join(b + marker for b in img) for a, img in inst.g_images.items()}
    h_images[marker] = ""
    g_images[marker] = marker
    return PcpInstance(
        domain_alphabet=inst.domain_alphabet + (marker,),
        image_alphabet=inst.image_alphabet + (marker,),
        h_images=h_images,
        g_images=g_images,
    )


def parse_instance(text: str) -> PcpInstance:
    """Parse the instance file format (see the README for the grammar)."""
    domain: tuple[str, ...] | None = None
    images: tuple[str, ...] | None = None
    h_images: dict[str, str] = {}
    g_images: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            if domain is not None:
                raise PcpError("duplicate alphabet header", lineno)
            domain = _parse_letters(line[len("alphabet:"):], lineno)
        elif line.startswith("images:"):
            if domain is None:
                raise PcpError("missing alphabet header", lineno)
            if images is not None:
                raise PcpError("duplicate images header", lineno)
            images = _parse_letters(line[len("images:"):], lineno)
        elif line.startswith("map "):
            if domain is None:
                raise PcpError("missing alphabet header", lineno)
            if images is None:
                raise PcpError("missing images header", lineno)
            fields = line.split()
            if len(fields) != 4:
                raise PcpError(f"malformed map line {line!r}", lineno)
            _, letter, h_img, g_img = fields
            if letter not in domain:
                raise PcpError(f"unknown domain letter {letter!r}", lineno)
            if letter in h_images:
                raise PcpError(f"duplicate definition for letter {letter!r}", lineno)
            h_images[letter] = _parse_image(h_img, images, lineno)
            g_images[letter] = _parse_image(g_img, images, lineno)
        else:
            raise PcpError(f"unrecognized line {line!r}", lineno)
    if domain is None:
        raise PcpError("missing alphabet header")
    if images is None:
        raise PcpError("missing images header")
    for letter in domain:
        if letter not in h_images:
            raise PcpError(f"no map line for letter {letter!r}")
    return PcpInstance(domain, images, h_images, g_images)


def _parse_letters(rest: str, lineno: int) -> tuple[str, ...]:
    letters = tuple(rest.split())
    if not letters:
        raise PcpError("empty letter list", lineno)
    for letter in letters:
        if len(letter) != 1:
            raise PcpError(f"letters must be single characters, got {letter!r}", lineno)
    if len(set(letters)) != len(letters):
        raise PcpError("duplicate letter declaration", lineno)
    return letters


def _parse_image(text: str, images: tuple[str, ...], lineno: int) -> str:
    if text == "_":
        return ""
    for b in text:
        if b not in images:
            raise PcpError(f"unknown letter {b!r} in image {text!r}", lineno)
    return text


def serialize_instance(inst: PcpInstance) -> str:
    lines = [
        "alphabet: " + " ".join(inst.domain_alphabet),
        "images: " + " ".join(inst.image_alphabet),
    ]
    for a in inst.domain_alphabet:
        lines.append(f"map {a} {inst.h_images[a] or '_'} {inst.g_images[a] or '_'}")
    return "\n".join(lines) + "\n"
