"""Command-line front end for the instance -> automaton -> games pipeline.

The commands parse their arguments and policy specs and call the library,
which owns every file format: ``pcp`` reads instance files, ``wordgames``
reads game dumps, and ``engine`` reads and writes traces and strategy
files.  A ``script:SPEC`` policy is the script itself, never a file name.

Exit codes: 0 on success, 1 on a domain error (bad instance, missing file,
cap exceeded, crosscheck disagreement) or a closed stdout, 2 on usage
errors, which argparse reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import automata as au
from . import braids as br
from . import engine
from . import freegroup as fg
from . import matrices as mx
from . import pcp
from . import wordgames as wg
from .domains import REPRESENTATIONS, Domain, build_pipeline, word_domain
from .engine import ATTACKER, DEFENDER

# --emit choice -> (Pipeline attribute, dumper) for the game emissions.
GAME_EMITTERS = {
    "word-game": ("weighted_game", wg.dump_weighted_game),
    "pair-game": ("pair_game", wg.dump_pair_game),
    "matrix-game": ("matrix_game", mx.dump_matrix_game),
    "braid3-game": ("braid3_game", br.dump_braid_game),
    "braid5-game": ("braid5_game", br.dump_braid_game),
}
EMIT_CHOICES = ("automaton",) + tuple(GAME_EMITTERS)


class CliError(ValueError):
    pass


def _read_instance(path: str) -> pcp.PcpInstance:
    return pcp.parse_instance(Path(path).read_text(encoding="utf-8"))


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_build(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    if args.emit == "automaton":
        aut = au.build_solution_checker(inst)
        if args.reverse:
            aut = au.reverse(aut)
        if args.unfold:
            aut = au.unfold_self_loops(aut)
        if args.output is not None and not args.output.endswith(".dot"):
            text = au.export_flat(aut)
        else:
            text = au.export_dot(aut)
        _write_or_print(text, args.output)
        return 0
    if args.reverse:
        raise CliError("games come from the forward automaton; --reverse is for --emit automaton")
    field, dump = GAME_EMITTERS[args.emit]
    pipe = build_pipeline(inst)
    _write_or_print(dump(getattr(pipe, field)), args.output)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    aut = au.build_solution_checker(inst)
    if args.word is not None:
        w = args.word
        inst.check_word(w)
        case = None
        for k in range(1, len(w) + 1):
            case = pcp.bad_prefix_case(inst, w[:k])
            if case is not None:
                break
        accepted = au.accepts_within(aut, w)
        if case is not None:
            print(f"accepted (case {case.value})" if accepted else f"REJECTED but case {case.value}")
        else:
            print("rejected (no bad prefix)" if not accepted else "ACCEPTED but no bad prefix")
        agree = (case is not None) == accepted
        if agree:
            print("agreement: ok")
        else:
            print(
                "agreement: MISMATCH between oracle and automaton "
                "(acceptance can lag the first bad prefix at finite length; try a longer word)"
            )
        return 0 if agree else 1
    verdict = au.bounded_universality(aut, args.universality)
    if verdict.all_accepted:
        print(f"all words of length {args.universality} accepted")
        print("so every infinite word is accepted")
    else:
        print(f"counterexample: {verdict.counterexample}")
        print(f"no prefix up to length {args.universality} is accepted; a longer one may be")
    return 0


def _domain_from_args(args: argparse.Namespace) -> tuple[Domain, wg.WeightedWordGame]:
    """The domain to solve or play, and the word game whose moves script letters name."""
    if args.game is not None:
        if args.representation != "word":
            raise CliError(f"--game loads a word game; --representation {args.representation} needs -i")
        game = wg.parse_weighted_game(Path(args.game).read_text(encoding="utf-8"))
        return word_domain(game), game
    pipe = build_pipeline(_read_instance(args.instance))
    return pipe.domain(args.representation), pipe.weighted_game


def cmd_solve(args: argparse.Namespace) -> int:
    domain, _ = _domain_from_args(args)
    try:
        result = engine.attacker_wins_within(domain, args.rounds, max_nodes=args.max_nodes)
    except engine.ResourceCapExceeded as exc:
        raise CliError(f"{exc} (partial statistics: explored={exc.explored})") from exc
    # Written before anything is printed, so a failed write prints no verdict.
    if args.strategy_out is not None:
        Path(args.strategy_out).write_text(engine.render_strategy(domain, result.strategy), encoding="utf-8")
    print(result.verdict)
    print(f"explored={result.explored} horizon={result.horizon}")
    if args.strategy_out is not None:
        print(f"strategy written to {args.strategy_out}")
    return 0


_POLICY_FORMS = {
    "random": "random:SEED with an integer SEED",
    "strategy": "strategy:FILE",
    "script": "script:SPEC",
}


def _policy_from_spec(spec: str, words: wg.WeightedWordGame, player: str) -> engine.Policy:
    if spec == "human":
        return engine.human_policy()
    kind, _, body = spec.partition(":")
    if kind not in _POLICY_FORMS:
        raise CliError(f"unknown policy {spec!r} (use human, random:SEED, script:SPEC, strategy:FILE)")
    option = "--defender" if player == DEFENDER else "--attacker"
    malformed = CliError(f"{option} {spec!r}: expected {_POLICY_FORMS[kind]}")
    if not body.strip():
        raise malformed
    if kind == "random":
        try:
            seed = int(body)
        except ValueError:
            raise malformed from None
        return engine.random_policy(seed)
    if kind == "strategy":
        return engine.strategy_policy(engine.parse_strategy(Path(body).read_text(encoding="utf-8")))
    return engine.scripted_policy(_script_indices(body, words, player))


def _script_indices(body: str, words: wg.WeightedWordGame, player: str) -> list[int]:
    """Digits are move indices; letters name word-game moves, index-aligned in every domain."""
    tokens: list[str]
    if "," in body or any(ch.isspace() for ch in body.strip()):
        tokens = body.replace(",", " ").split()
    else:
        tokens = list(body.strip())
    indices = []
    moves = words.defender_moves if player == DEFENDER else words.attacker_moves
    count = len(moves)
    for tok in tokens:
        if tok.isdecimal():
            if int(tok) >= count:
                raise CliError(
                    f"script index {tok} is out of range: player {player} has moves 0..{count - 1}"
                )
            indices.append(int(tok))
            continue
        move = wg.WordConfig(fg.word(tok), 0)
        if move not in moves:
            raise CliError(f"script token {tok!r} names no move of player {player}")
        indices.append(moves.index(move))
    return indices


def cmd_play(args: argparse.Namespace) -> int:
    domain, words = _domain_from_args(args)
    defender = _policy_from_spec(args.defender, words, DEFENDER)
    attacker = _policy_from_spec(args.attacker, words, ATTACKER)
    trace = engine.play(domain, defender, attacker, args.rounds, stop_at_target=not args.run_to_end)
    _write_or_print(trace.render(), args.output)
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    trace = engine.parse_trace(Path(args.trace).read_text(encoding="utf-8"))
    inst = _read_instance(args.instance)
    pipe = build_pipeline(inst)
    report = engine.crosscheck(trace, pipe.crosscheck_domains())
    sys.stdout.write(report.render())
    return 0 if report.agree else 1


def _add_game_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--game", help="weighted word game dump")
    source.add_argument("-i", "--instance", help="instance to build every representation from")
    parser.add_argument("--representation", choices=REPRESENTATIONS, default="word")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcpgames",
        description="build, check, solve, play, and crosscheck the PCP-to-games reduction chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile an instance and emit automata or game dumps")
    p_build.add_argument("-i", "--instance", required=True)
    p_build.add_argument("--emit", choices=EMIT_CHOICES, default="automaton")
    p_build.add_argument("--reverse", action="store_true", help="reverse transitions, swap initial/final")
    p_build.add_argument("--unfold", action="store_true", help="unfold self-loops (games always are)")
    p_build.add_argument("-o", "--output", default=None)
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="prefix classification and bounded universality")
    p_check.add_argument("-i", "--instance", required=True)
    mode = p_check.add_mutually_exclusive_group(required=True)
    mode.add_argument("--word", help="classify the prefixes of this word")
    mode.add_argument("--universality", type=int, metavar="L", help="bounded universality at length L")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="bounded-horizon attacker-wins search")
    _add_game_source(p_solve)
    p_solve.add_argument("--rounds", type=int, required=True)
    p_solve.add_argument("--max-nodes", type=int, default=500_000)
    p_solve.add_argument("--strategy-out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_play = sub.add_parser("play", help="play out policies and record a trace")
    _add_game_source(p_play)
    p_play.add_argument("--defender", required=True)
    p_play.add_argument("--attacker", required=True)
    p_play.add_argument("--rounds", type=int, required=True)
    p_play.add_argument("--run-to-end", action="store_true", help="do not stop at the first target")
    p_play.add_argument("-o", "--output", default=None)
    p_play.set_defaults(func=cmd_play)

    p_cross = sub.add_parser("crosscheck", help="replay a trace across every representation")
    p_cross.add_argument("--trace", required=True)
    p_cross.add_argument("--instance", required=True)
    p_cross.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone; point stdout at devnull so the
        # interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EOFError:
        print("error: input ended before the play did", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
