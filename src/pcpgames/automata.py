"""Integer-weighted automata on infinite words.

The central construction compiles a PCP instance into a complete
nondeterministic 5-state automaton whose zero-weight accepting path
prefixes witness exactly the bad prefixes of the input word.  The module
also provides the transition-reversal variant (negated weights, initial
and final state swapped) and the self-loop unfolding into nine states,
together with bounded acceptance and universality checks that serve as
desk-scale stand-ins for the undecidable unbounded questions.

Both checks run an on-the-fly subset construction over configurations
``(state, weight)``: the frontier of a prefix is the set of configurations
its transition paths reach, so a prefix is accepted iff its frontier holds
a final state with weight 0.  ``bounded_universality`` searches prefixes
depth first in lexicographic order, carries each prefix's frontier to its
extensions instead of re-reading the word, and skips every extension of an
accepted prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .pcp import PcpInstance

STATE_NAMES_5 = ("q0", "q1", "q2", "q3", "q4")
STATE_NAMES_9 = ("q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")


class BuiltOnFirstAccess:
    """A cached property that stores its value with ``object.__setattr__``.

    ``functools.cached_property`` stores through the instance ``__dict__``,
    which on CPython 3.11 turns the instance's inline attribute values into
    a dict and makes every later attribute load on it about three times
    slower.  The frozen dataclasses of the hot loops (the automaton read by
    every subset step, the domain read at every solver node) use this one.
    """

    def __init__(self, build: Callable[[Any], Any]):
        self.build = build

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = self.build(instance)
        object.__setattr__(instance, self.build.__name__, value)
        return value


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Transition:
    source: str
    letter: str
    target: str
    weight: int


@dataclass(frozen=True)
class WeightedAutomaton:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: frozenset[Transition]
    initial: str
    finals: frozenset[str]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not a state")
        if not self.finals <= set(self.states):
            raise AutomatonError("final states must be states")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise AutomatonError(f"transition {t} uses unknown states")
            if t.letter not in self.alphabet:
                raise AutomatonError(f"transition {t} uses unknown letter")

    @BuiltOnFirstAccess
    def _index(self) -> dict[tuple[str, str], tuple[Transition, ...]]:
        """``(source, letter)`` -> its transitions, sorted; built on first use."""
        index: dict[tuple[str, str], list[Transition]] = {}
        for t in sorted(self.transitions):
            index.setdefault((t.source, t.letter), []).append(t)
        return {key: tuple(ts) for key, ts in index.items()}

    def sorted_transitions(self) -> list[Transition]:
        return sorted(self.transitions)


def build_solution_checker(inst: PcpInstance) -> WeightedAutomaton:
    """Compile a PCP instance into the 5-state solution-checking automaton.

    For every domain letter there are seven base transitions tracking
    s-scaled image-length differences, plus six indexed families that guess
    and verify a mismatch position by storing letter codes in the weight.
    """
    s = inst.s
    trans: set[Transition] = set()
    codes = [inst.code(b) for b in inst.image_alphabet]
    for a in inst.domain_alphabet:
        h, g = inst.h_images[a], inst.g_images[a]
        dh, dg = len(h), len(g)
        trans.add(Transition("q0", a, "q1", s * (dh - dg)))
        trans.add(Transition("q0", a, "q4", s * (dh - dg)))
        trans.add(Transition("q1", a, "q1", s * (dh - dg)))
        trans.add(Transition("q2", a, "q2", -s * dg))
        trans.add(Transition("q3", a, "q3", s * dh))
        trans.add(Transition("q1", a, "q4", 0))
        trans.add(Transition("q4", a, "q4", 0))
        h_codes = [inst.code(b) for b in h]
        g_codes = [inst.code(b) for b in g]
        # (1) guess the mismatch at position k of h(a), storing its letter code
        for k, jk in enumerate(h_codes, start=1):
            trans.add(Transition("q1", a, "q2", s * (k - dg) + jk))
        # (2) verify against position l of g(a): any code other than the letter there
        for ell, il in enumerate(g_codes, start=1):
            for c in codes:
                if c != il:
                    trans.add(Transition("q2", a, "q4", -s * ell - c))
        # (3) symmetric guess on the g side
        for k, jk in enumerate(g_codes, start=1):
            trans.add(Transition("q1", a, "q3", s * (-k + dh) - jk))
        # (4) symmetric verification on the h side
        for ell, il in enumerate(h_codes, start=1):
            for c in codes:
                if c != il:
                    trans.add(Transition("q3", a, "q4", s * ell + c))
        # (5) guess and verify within the same letter, read from q1
        for k, jk in enumerate(h_codes, start=1):
            for ell, il in enumerate(g_codes, start=1):
                for c in codes:
                    if c != il:
                        trans.add(Transition("q1", a, "q4", (k - ell) * s + jk - c))
        # (6) guess and verify within the first letter, read from q0
        for k in range(1, min(dh, dg) + 1):
            jk = h_codes[k - 1]
            ik = g_codes[k - 1]
            for c in codes:
                if c != ik:
                    trans.add(Transition("q0", a, "q4", jk - c))
    return WeightedAutomaton(
        states=STATE_NAMES_5,
        alphabet=inst.domain_alphabet,
        transitions=frozenset(trans),
        initial="q0",
        finals=frozenset({"q4"}),
    )


def reverse(aut: WeightedAutomaton) -> WeightedAutomaton:
    """Reverse every transition, negate its weight, and swap initial with final."""
    if len(aut.finals) != 1:
        raise AutomatonError("reversal needs a single final state")
    (final,) = aut.finals
    return WeightedAutomaton(
        states=aut.states,
        alphabet=aut.alphabet,
        transitions=frozenset(
            Transition(t.target, t.letter, t.source, -t.weight) for t in aut.transitions
        ),
        initial=final,
        finals=frozenset({aut.initial}),
    )


_PRIMED = {"q1": "q5", "q2": "q6", "q3": "q7", "q4": "q8"}


def unfold_self_loops(aut: WeightedAutomaton) -> WeightedAutomaton:
    """Replace self-loops on q1..q4 by bounces into primed copies q5..q8.

    Every deleted self-loop on qi becomes the pair of cross edges qi -> qi+4
    and qi+4 -> qi; all other transitions among q1..q4 are duplicated onto
    the primed copies, and edges touching q0 are duplicated with the primed
    endpoint.  Finals among q1..q4 gain their primed twin.
    """
    if tuple(aut.states) != STATE_NAMES_5:
        raise AutomatonError("unfolding expects the 5-state automaton q0..q4")
    trans: set[Transition] = set()
    for t in aut.transitions:
        if t.source == t.target:
            if t.source == "q0":
                raise AutomatonError("q0 self-loops are outside the construction")
            primed = _PRIMED[t.source]
            trans.add(Transition(t.source, t.letter, primed, t.weight))
            trans.add(Transition(primed, t.letter, t.source, t.weight))
        elif t.source == "q0":
            trans.add(t)
            trans.add(Transition("q0", t.letter, _PRIMED[t.target], t.weight))
        elif t.target == "q0":
            trans.add(t)
            trans.add(Transition(_PRIMED[t.source], t.letter, "q0", t.weight))
        else:
            trans.add(t)
            trans.add(Transition(_PRIMED[t.source], t.letter, _PRIMED[t.target], t.weight))
    finals = set()
    for f in aut.finals:
        finals.add(f)
        if f in _PRIMED:
            finals.add(_PRIMED[f])
    return WeightedAutomaton(
        states=STATE_NAMES_9,
        alphabet=aut.alphabet,
        transitions=frozenset(trans),
        initial=aut.initial,
        finals=frozenset(finals),
    )


_Frontier = frozenset[tuple[str, int]]


def _step(aut: WeightedAutomaton, frontier: _Frontier, letter: str) -> _Frontier:
    """The configurations reached from ``frontier`` by one transition reading ``letter``."""
    index = aut._index
    return frozenset(
        (t.target, weight + t.weight)
        for state, weight in frontier
        for t in index.get((state, letter), ())
    )


def _accepting(aut: WeightedAutomaton, frontier: _Frontier) -> bool:
    return any((f, 0) in frontier for f in aut.finals)


def accepts_within(aut: WeightedAutomaton, w: str) -> bool:
    """True iff some nonempty prefix of w carries a zero-weight path into a final state."""
    for letter in w:
        if letter not in aut.alphabet:
            raise AutomatonError(f"letter {letter!r} is not in the alphabet {aut.alphabet}")
    frontier: _Frontier = frozenset({(aut.initial, 0)})
    for letter in w:
        frontier = _step(aut, frontier, letter)
        if _accepting(aut, frontier):
            return True
    return False


@dataclass(frozen=True)
class UniversalityVerdict:
    """The outcome of a bounded universality search at horizon L.

    ``AllAccepted(L)`` proves that every infinite word is accepted, since
    every infinite word has a prefix of length L and that prefix already has
    an accepted prefix.  ``Counterexample(u)`` proves less: no prefix of u
    up to length L is accepted, but an extension of u may still be.
    """

    horizon: int
    counterexample: str | None

    @property
    def all_accepted(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if self.all_accepted:
            return f"AllAccepted({self.horizon})"
        return f"Counterexample({self.counterexample})"


def bounded_universality(
    aut: WeightedAutomaton, horizon: int, max_configs: int = 1 << 20
) -> UniversalityVerdict:
    """Search the length-``horizon`` words for one with no accepted prefix.

    One depth-first search over prefixes, in lexicographic order of the
    alphabet, carries each prefix's frontier (the ``(state, weight)``
    configurations its paths reach) to its extensions, and skips the
    extensions of an accepted prefix, since they are accepted too.  The
    first prefix to reach length ``horizon`` unaccepted is the least
    counterexample.  ``AllAccepted`` holds for every infinite word; a
    ``Counterexample(u)`` only says that no prefix of u up to length
    ``horizon`` is accepted.  ``max_configs`` caps the number of
    configurations the search may step, summed over every prefix it extends.
    """
    if horizon < 1:
        raise AutomatonError("horizon must be positive")
    letters = sorted(aut.alphabet, reverse=True)
    word: list[str] = []
    start: _Frontier = frozenset({(aut.initial, 0)})
    # (length of the parent prefix, next letter, parent's frontier); an
    # explicit stack, since the horizon may exceed the recursion limit
    stack = [(0, letter, start) for letter in letters]
    stepped = 0
    while stack:
        depth, letter, frontier = stack.pop()
        stepped += len(frontier)
        if stepped > max_configs:
            raise AutomatonError(f"the search stepped more than {max_configs} configurations, the safety cap")
        frontier = _step(aut, frontier, letter)
        del word[depth:]
        word.append(letter)
        if _accepting(aut, frontier):
            continue
        if depth + 1 == horizon:
            return UniversalityVerdict(horizon, "".join(word))
        stack.extend((depth + 1, b, frontier) for b in letters)
    return UniversalityVerdict(horizon, None)


def export_dot(aut: WeightedAutomaton) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;", '  __init [shape=point,label=""];']
    for q in aut.states:
        shape = "doublecircle" if q in aut.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  __init -> {aut.initial};")
    for t in aut.sorted_transitions():
        lines.append(f'  {t.source} -> {t.target} [label="{t.letter},{t.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_flat(aut: WeightedAutomaton) -> str:
    """One transition per line: ``from letter to weight``, sorted for diffing."""
    header = [
        "states " + " ".join(aut.states),
        "alphabet " + " ".join(aut.alphabet),
        "initial " + aut.initial,
        "finals " + " ".join(sorted(aut.finals)),
    ]
    body = [f"{t.source} {t.letter} {t.target} {t.weight}" for t in aut.sorted_transitions()]
    return "\n".join(header + body) + "\n"
