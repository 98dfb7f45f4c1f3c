"""Fixtures and the slow reference oracles the fast code is tested against."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from pcpgames import pcp
from pcpgames.domains import build_pipeline
from pcpgames.engine import ATTACKER, DEFENDER

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def load_instance(name: str) -> pcp.PcpInstance:
    return pcp.parse_instance((FIXTURES / f"{name}.pcp").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def i1():
    return load_instance("i1")


@pytest.fixture(scope="session")
def eq():
    return load_instance("eq")


@pytest.fixture(scope="session")
def mm():
    return load_instance("mm")


@pytest.fixture(scope="session")
def fin():
    return load_instance("fin")


@pytest.fixture(scope="session")
def fixture_instances(i1, eq, mm, fin):
    return {"i1": i1, "eq": eq, "mm": mm, "fin": fin}


@pytest.fixture(scope="session")
def pipelines(i1, eq, mm):
    return {name: build_pipeline(inst) for name, inst in (("i1", i1), ("eq", eq), ("mm", mm))}


# --- oracles ---


def paths_over(aut, w: str, start: str | None = None):
    """Every transition path from ``start`` (the initial state by default)
    reading a nonempty prefix of w, depth first in sorted transition order.

    Filters ``aut.transitions`` itself, so it shares no code with the
    frontier search in ``automata`` that it checks.
    """
    stack = [(aut.initial if start is None else start, ())]
    while stack:
        state, path = stack.pop()
        if path:
            yield path
        if len(path) < len(w):
            letter = w[len(path)]
            steps = sorted(t for t in aut.transitions if t.source == state and t.letter == letter)
            stack.extend((t.target, path + (t,)) for t in reversed(steps))


def accepting(aut, path) -> bool:
    """The path ends in a final state with total weight 0."""
    return path[-1].target in aut.finals and sum(t.weight for t in path) == 0


def brute_attacker_wins(domain, cfg, rounds: int) -> bool:
    """Unmemoized minimax: can the attacker force the target within ``rounds``?"""
    if rounds == 0:
        return False
    for d in range(domain.move_count(DEFENDER)):
        after_d = domain.apply(cfg, DEFENDER, d)
        if not any(
            domain.is_target(domain.apply(after_d, ATTACKER, a))
            or brute_attacker_wins(domain, domain.apply(after_d, ATTACKER, a), rounds - 1)
            for a in range(domain.move_count(ATTACKER))
        ):
            return False
    return True


def scripts(domain, player: str, horizon: int):
    """Every sequence of ``horizon`` move indices of ``player``."""
    return itertools.product(range(domain.move_count(player)), repeat=horizon)
