#!/usr/bin/env python3
"""Drive one instance through every representation and report the verdicts.

Usage: python scripts/run_pipeline.py [instance.pcp] [--rounds K] [--seed N]

For each representation the bounded-horizon solver runs at the same horizon;
all verdicts must agree because every domain is the image of the same word
game.  A random play is then replayed across all representations and the
target predicates compared at every move.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcpgames import engine, pcp
from pcpgames.domains import REPRESENTATIONS, build_pipeline

DEFAULT_INSTANCE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "eq.pcp"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("instance", nargs="?", default=str(DEFAULT_INSTANCE))
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    inst = pcp.parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    pipe = build_pipeline(inst)
    print(f"instance: {args.instance}")
    print(f"automaton: {len(pipe.automaton.states)} states, "
          f"{len(pipe.automaton.transitions)} transitions, "
          f"unfolded: {len(pipe.game_automaton.states)} states")
    print(f"word game: {len(pipe.weighted_game.defender_moves)} defender / "
          f"{len(pipe.weighted_game.attacker_moves)} attacker moves")

    verdicts = {}
    for representation in REPRESENTATIONS:
        domain = pipe.domain(representation)
        started = time.time()
        result = engine.attacker_wins_within(domain, args.rounds)
        verdicts[representation] = result.verdict
        print(f"  {representation:7s}: {result.verdict:24s} "
              f"explored={result.explored:6d}  [{time.time() - started:.2f}s]")
    if len(set(verdicts.values())) != 1:
        print("REPRESENTATIONS DISAGREE", verdicts)
        return 1

    domain = pipe.domain("word")
    trace = engine.play(
        domain,
        engine.random_policy(args.seed),
        engine.random_policy(args.seed + 1),
        4,
        stop_at_target=False,
    )
    report = engine.crosscheck(trace, pipe.crosscheck_domains())
    print("random-play crosscheck:", "AGREE" if report.agree else "DISAGREE")
    return 0 if report.agree else 1


if __name__ == "__main__":
    sys.exit(main())
