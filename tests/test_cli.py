from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcpgames import braids, cli, domains, matrices
from pcpgames import wordgames as wg

from conftest import FIXTURES, GOLDEN


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def assert_one_error_line(code, err, path):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_build_automaton_golden(tmp_path, capsys):
    out = tmp_path / "out.dot"
    code, _, _ = run(capsys, "build", "-i", fixture("i1.pcp"), "--emit", "automaton", "-o", str(out))
    assert code == 0
    assert out.read_text() == (GOLDEN / "i1_automaton.dot").read_text()
    assert out.read_text().count("->") == 11  # init arrow plus ten transitions


def test_build_reverse_unfold_golden(tmp_path, capsys):
    out = tmp_path / "out.dot"
    code, _, _ = run(
        capsys, "build", "-i", fixture("i1.pcp"), "--reverse", "--unfold",
        "--emit", "automaton", "-o", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text == (GOLDEN / "i1_reverse_unfold.dot").read_text()
    assert "__init -> q4;" in text
    assert all(f"q{i} [" in text for i in range(9))


def test_build_flat_dump(tmp_path, capsys):
    out = tmp_path / "aut.txt"
    code, _, _ = run(capsys, "build", "-i", fixture("i1.pcp"), "--emit", "automaton", "-o", str(out))
    assert code == 0
    assert out.read_text().startswith("states q0 q1 q2 q3 q4")


def test_build_missing_file_names_path(capsys):
    code, _, err = run(capsys, "build", "-i", "no/such/file.pcp", "--emit", "automaton")
    assert code == 1
    assert "no/such/file.pcp" in err


def test_build_instance_is_a_directory(capsys):
    code, _, err = run(capsys, "build", "-i", str(FIXTURES))
    assert_one_error_line(code, err, FIXTURES)


def test_build_output_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.dot"
    code, _, err = run(capsys, "build", "-i", fixture("i1.pcp"), "-o", str(out))
    assert_one_error_line(code, err, out)


GAME_EMISSIONS = ("word-game", "pair-game", "matrix-game", "braid3-game", "braid5-game")


def test_build_game_emissions(tmp_path, capsys):
    """Every game dump of i1 is frozen: move order fixes strategy indices in each form."""
    for emit in GAME_EMISSIONS:
        out = tmp_path / emit
        code, _, _ = run(
            capsys, "build", "-i", fixture("i1.pcp"), "--unfold", "--emit", emit, "-o", str(out)
        )
        assert code == 0, emit
        golden = GOLDEN / f"i1_{emit.replace('-', '_')}.txt"
        assert out.read_text() == golden.read_text(), emit
    game = wg.parse_weighted_game((tmp_path / "word-game").read_text())
    assert game.defender_moves and game.attacker_moves


@pytest.mark.parametrize("emit", GAME_EMISSIONS)
def test_build_reverse_game_is_an_error(tmp_path, capsys, emit):
    """The games come only from the forward automaton; --reverse shapes only --emit automaton."""
    out = tmp_path / "g.game"
    code, stdout, err = run(
        capsys, "build", "-i", fixture("i1.pcp"), "--reverse", "--unfold", "--emit", emit,
        "-o", str(out),
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--reverse" in err
    assert stdout == ""
    assert not out.exists()


def test_build_game_without_unfold_matches_golden(tmp_path, capsys):
    """Games are always built from the unfolded automaton, so --unfold changes no game dump."""
    for emit in GAME_EMISSIONS:
        out = tmp_path / emit
        code, _, err = run(capsys, "build", "-i", fixture("i1.pcp"), "--emit", emit, "-o", str(out))
        assert (code, err) == (0, ""), emit
        assert out.read_text() == (GOLDEN / f"i1_{emit.replace('-', '_')}.txt").read_text(), emit


def test_check_word_accepted(capsys):
    code, out, _ = run(capsys, "check", "-i", fixture("eq.pcp"), "--word", "a")
    assert code == 0
    assert out.splitlines()[0] == "accepted (case i)"


def test_check_word_rejected(capsys):
    code, out, _ = run(capsys, "check", "-i", fixture("i1.pcp"), "--word", "aaa")
    assert code == 0
    assert out.splitlines()[0] == "rejected (no bad prefix)"


def test_check_word_illegal_letter(capsys):
    code, _, err = run(capsys, "check", "-i", fixture("i1.pcp"), "--word", "zz")
    assert code == 1
    assert "unknown domain letter" in err


def test_check_word_letter_outside_alphabet_is_an_error(capsys):
    # "a" alone is a bad prefix of c4, so the word must be checked before any prefix
    code, out, err = run(capsys, "check", "-i", fixture("c4.pcp"), "--word", "az")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: unknown domain letter 'z'"]


def test_check_word_reports_acceptance_lag(capsys):
    # fin's "aa" is bad at position 2 but only verifiable on a longer word
    code, out, _ = run(capsys, "check", "-i", fixture("fin.pcp"), "--word", "aa")
    assert code == 1
    assert out.splitlines()[0] == "REJECTED but case v"
    assert "lag" in out
    code, out, _ = run(capsys, "check", "-i", fixture("fin.pcp"), "--word", "aaaa")
    assert code == 0
    assert out.splitlines()[0] == "accepted (case v)"


def test_check_universality_counterexample(capsys):
    code, out, _ = run(capsys, "check", "-i", fixture("i1.pcp"), "--universality", "6")
    assert code == 0
    assert out.splitlines()[0] == "counterexample: aaaaaa"
    assert out.splitlines()[1] == "no prefix up to length 6 is accepted; a longer one may be"


def test_check_universality_all_accepted(capsys):
    code, out, _ = run(capsys, "check", "-i", fixture("mm.pcp"), "--universality", "4")
    assert code == 0
    assert out.splitlines()[0] == "all words of length 4 accepted"
    assert out.splitlines()[1] == "so every infinite word is accepted"


def test_check_universality_beyond_word_count_cap(capsys):
    """2^21 words, but the search steps only a few configurations."""
    code, out, err = run(capsys, "check", "-i", fixture("c4.pcp"), "--universality", "21")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "all words of length 21 accepted"


def test_check_universality_cap_tripped(capsys):
    """On i1 the frontier grows with the length, so a^1000 steps over 2^20 configurations."""
    code, out, err = run(capsys, "check", "-i", fixture("i1.pcp"), "--universality", "1000")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the search stepped more than 1048576 configurations, the safety cap"]


@pytest.mark.parametrize("letter", ["~", "#", "ε"])
@pytest.mark.parametrize("command", [("check", "--universality", "2"), ("solve", "--rounds", "2")])
def test_reserved_domain_letter_is_an_error(tmp_path, capsys, command, letter):
    instance = tmp_path / "reserved.pcp"
    instance.write_text(f"alphabet: {letter} a\nimages: x\nmap {letter} x x\nmap a x _\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], "-i", str(instance), *command[1:])
    assert code == 1 and out == ""
    assert err.startswith(f"error: line 1: domain letter {letter!r} is reserved") and err.count("\n") == 1


def test_solve_toy_cancel(capsys):
    code, out, _ = run(capsys, "solve", "--game", fixture("toy_cancel.game"), "--rounds", "1")
    assert code == 0
    assert out.splitlines()[0] == "AttackerWinsWithin(1)"


def test_solve_toy_survive(capsys):
    code, out, _ = run(capsys, "solve", "--game", fixture("toy_survive.game"), "--rounds", "3")
    assert code == 0
    assert out.splitlines()[0] == "DefenderSurvives(3)"


def test_solve_horizon_too_deep_for_the_recursion_is_an_error(capsys):
    code, out, _ = run(capsys, "solve", "--game", fixture("toy_survive.game"), "--rounds", "900")
    assert code == 0
    assert out.splitlines()[0] == "DefenderSurvives(900)"
    code, out, err = run(capsys, "solve", "--game", fixture("toy_survive.game"), "--rounds", "5000")
    assert code == 1 and out == ""
    assert err == "error: horizon 5000 is too deep for the recursive solver\n"


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # As when `pcpgames solve ... | grep -q` exits before the output is written.
    # capsys has no file descriptor to close, so this runs in a child process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pcpgames.cli", "solve", "--game", fixture("toy_cancel.game"), "--rounds", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


@pytest.mark.parametrize(
    "moves, command, message",
    [
        ("player=A word=~a weight=0", "solve", "the game dump has no player=D move"),
        ("player=D word=a weight=0", "play", "the game dump has no player=A move"),
        (
            "player=D word=a weight=x\nplayer=A word=~a weight=0", "solve",
            "malformed move field 'word=a weight=x'",
        ),
        (
            "target word=a weight=5\nplayer=D word=a weight=0\nplayer=A word=~a weight=0", "solve",
            "game dump target 'word=a weight=5' is not the empty word with weight 0",
        ),
        (
            "target garbage\nplayer=D word=a weight=0\nplayer=A word=~a weight=0", "solve",
            "malformed move field 'garbage'",
        ),
        (
            "player=D word=b weight=0\nplayer=A word=~b weight=0", "solve",
            "symbol 'b' in line 'player=D word=b weight=0' is not in the alphabet line",
        ),
        (
            "initial word=a weight=0\nplayer=D word=a weight=0\nplayer=A word=~a weight=0", "solve",
            "the game dump has a second initial line 'initial word=a weight=0'",
        ),
        (
            "alphabet a b\nplayer=D word=a weight=0\nplayer=A word=~a weight=0", "solve",
            "the game dump has a second alphabet line 'alphabet a b'",
        ),
        (
            "target word= weight=0\ntarget word= weight=0\nplayer=D word=a weight=0\n"
            "player=A word=~a weight=0", "solve",
            "the game dump has a second target line 'target word= weight=0'",
        ),
        ("player=D word=a weight=0\nplayer=A word=~ weight=0", "solve", "word token '~' has no symbol"),
        (
            "player=D word=ε weight=0\nplayer=A word=~ε weight=0", "play",
            "symbol 'ε' in line 'player=D word=ε weight=0' is reserved for the empty word",
        ),
        (
            "player=D word=a weight=0\nplayer=A word=~a ε weight=0", "solve",
            "symbol 'ε' in line 'player=A word=~a ε weight=0' is reserved for the empty word",
        ),
    ],
    ids=[
        "no-defender-move", "no-attacker-move", "weight-not-an-integer", "target-not-empty",
        "target-malformed", "letter-outside-alphabet", "second-initial", "second-alphabet",
        "second-target", "lone-tilde", "empty-word-symbol-defender", "empty-word-symbol-attacker",
    ],
)
def test_malformed_game_dump_is_an_error(tmp_path, capsys, moves, command, message):
    game = tmp_path / "bad.game"
    game.write_text(f"alphabet a\ninitial word= weight=0\n{moves}\n")
    policies = ("--defender", "script:0", "--attacker", "random:1") if command == "play" else ()
    code, out, err = run(capsys, command, "--game", str(game), "--rounds", "1", *policies)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "dump, line",
    [
        (
            "alphabet ε #\nplayer=D word=ε weight=0\nplayer=A word=~ε weight=0\nplayer=A word=# weight=0\n",
            "alphabet ε #",
        ),
        (
            "initial word=ε weight=0\nplayer=D word=a weight=0\nplayer=A word=~a weight=0\n",
            "initial word=ε weight=0",
        ),
    ],
    ids=["alphabet-line", "initial-without-alphabet-line"],
)
def test_game_dump_refuses_the_empty_word_symbol(tmp_path, capsys, dump, line):
    # Key texts render the empty word as ε, so a symbol ε would make the word
    # ε and the empty word one configuration in traces and strategy files.
    game = tmp_path / "epsilon.game"
    game.write_text(dump)
    code, out, err = run(
        capsys, "play", "--game", str(game), "--defender", "script:0,0", "--attacker", "script:0,0",
        "--rounds", "2", "--run-to-end",
    )
    assert code == 1 and out == ""
    assert err == f"error: symbol 'ε' in line {line!r} is reserved for the empty word\n"


def test_solve_writes_strategy(tmp_path, capsys):
    strategy = tmp_path / "s.txt"
    code, out, _ = run(
        capsys, "solve", "--game", fixture("toy_cancel.game"), "--rounds", "1",
        "--strategy-out", str(strategy),
    )
    assert code == 0
    assert strategy.read_text() == (GOLDEN / "toy_cancel.strategy").read_text()


@pytest.mark.parametrize(
    "name, representation, rounds, verdict, golden",
    [
        ("fin", "word", 2, "DefenderSurvives(2)", "fin_solve2"),
        ("eq", "word", 3, "AttackerWinsWithin(2)", "eq_solve3"),
        # Matrix keys are anchor rows x0*P.
        ("c4", "matrix", 2, "AttackerWinsWithin(2)", "c4_matrix_solve2"),
        # Pair keys render both words; braid keys are their source's.
        ("fin", "pair", 2, "DefenderSurvives(2)", "fin_pair_solve2"),
        ("eq", "braid3", 3, "AttackerWinsWithin(2)", "eq_braid3_solve3"),
        ("i1", "braid5", 2, "DefenderSurvives(2)", "i1_braid5_solve2"),
    ],
    ids=[
        "fin-survival", "eq-win", "c4-matrix-win", "fin-pair-survival", "eq-braid3-win",
        "i1-braid5-survival",
    ],
)
def test_solve_strategy_matches_golden(tmp_path, capsys, name, representation, rounds, verdict, golden):
    strategy = tmp_path / "s.txt"
    code, out, _ = run(
        capsys, "solve", "-i", fixture(f"{name}.pcp"), "--rounds", str(rounds),
        "--representation", representation, "--strategy-out", str(strategy),
    )
    assert code == 0 and out.splitlines()[0] == verdict
    assert strategy.read_bytes() == (GOLDEN / f"{golden}.strategy").read_bytes()


def test_solve_strategy_out_in_missing_directory(tmp_path, capsys):
    strategy = tmp_path / "missing" / "s"
    code, out, err = run(
        capsys, "solve", "--game", fixture("toy_cancel.game"), "--rounds", "1",
        "--strategy-out", str(strategy),
    )
    assert_one_error_line(code, err, strategy)
    assert out == ""  # no verdict for a solve whose strategy could not be written


def test_solve_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "solve", "-i", fixture("i1.pcp"), "--rounds", "3", "--max-nodes", "5"
    )
    assert code == 1
    assert "partial statistics" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_solve_needs_a_positive_node_cap(capsys, cap):
    code, out, err = run(
        capsys, "solve", "-i", fixture("c4.pcp"), "--rounds", "2", "--max-nodes", cap
    )
    assert code == 1 and out == ""
    assert err == "error: max_nodes must be at least 1\n"


def test_play_golden_trace(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    code, _, _ = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "script:a", "--attacker", f"strategy:{GOLDEN / 'toy_cancel.strategy'}",
        "--rounds", "1", "-o", str(out),
    )
    assert code == 0
    assert out.read_text() == (GOLDEN / "toy_cancel.trace").read_text()


def test_play_random_seeds_deterministic(capsys):
    args = (
        "play", "-i", fixture("i1.pcp"), "--defender", "random:7", "--attacker", "random:7",
        "--rounds", "3", "--run-to-end",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_play_script_with_indices(capsys):
    code, out, _ = run(
        capsys, "play", "--game", fixture("toy_survive.game"),
        "--defender", "script:1,1", "--attacker", "script:0,0", "--rounds", "2",
    )
    assert code == 0
    assert "player=D move=1" in out


def test_play_script_literal_too_long_for_a_file_name(capsys):
    code, out, err = run(
        capsys, "play", "-i", fixture("i1.pcp"), "--defender", "script:" + "a" * 300,
        "--attacker", "random:1", "--rounds", "300",
    )
    assert code == 0, err
    assert len(out.splitlines()) == 600


def test_play_script_is_never_a_file_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = (
        "play", "-i", fixture("eq.pcp"), "--defender", "script:aa", "--attacker", "script:0,0",
        "--rounds", "2",
    )
    code, played, err = run(capsys, *argv)
    assert code == 0, err
    (tmp_path / "aa").write_text("b\n", encoding="utf-8")
    assert run(capsys, *argv) == (0, played, "")


def test_play_bad_script_token(capsys):
    code, _, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "script:z", "--attacker", "script:0", "--rounds", "1",
    )
    assert code == 1
    assert "names no move" in err


def test_play_script_token_with_no_symbol(capsys):
    code, out, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "script:~", "--attacker", "script:0", "--rounds", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: word token '~' has no symbol\n"


def test_play_script_token_that_is_a_digit_but_not_decimal(capsys):
    # '²' is a digit to str.isdigit, but int() refuses it: it is a token that names no move
    code, _, err = run(
        capsys, "play", "-i", fixture("i1.pcp"),
        "--defender", "script:²", "--attacker", "script:0", "--rounds", "1",
    )
    assert code == 1
    assert err == "error: script token '²' names no move of player D\n"


def test_play_script_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "script:5", "--attacker", "script:0", "--rounds", "1",
    )
    assert code == 1
    assert err.startswith("error: script index 5 is out of range") and err.count("\n") == 1


def test_play_strategy_for_another_game_is_an_error(tmp_path, capsys):
    strategy = tmp_path / "fin.strategy"
    code, _, _ = run(
        capsys, "solve", "-i", fixture("fin.pcp"), "--rounds", "2", "--strategy-out", str(strategy)
    )
    assert code == 0
    code, _, err = run(
        capsys, "play", "-i", fixture("c4.pcp"), "--defender", f"strategy:{strategy}",
        "--attacker", "random:1", "--rounds", "2",
    )
    assert code == 1
    assert err.startswith("error: strategy has no move for key") and err.count("\n") == 1


def test_play_strategy_move_out_of_range(tmp_path, capsys):
    golden = (GOLDEN / "toy_cancel.strategy").read_text(encoding="utf-8")
    assert "move=0" in golden
    strategy = tmp_path / "bad.strategy"
    strategy.write_text(golden.replace("move=0", "move=9"), encoding="utf-8")
    code, _, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"), "--defender", "script:0",
        "--attacker", f"strategy:{strategy}", "--rounds", "1",
    )
    assert code == 1
    assert err.startswith("error: strategy move 9 for key") and err.count("\n") == 1


def test_play_strategy_with_a_repeated_key_is_an_error(tmp_path, capsys):
    # A later line must not override the solved move 2 of the golden table.
    golden = (GOLDEN / "eq_solve3.strategy").read_text(encoding="utf-8")
    assert "key=q0 a;0 rounds=3 move=2\n" in golden
    strategy = tmp_path / "dup.strategy"
    strategy.write_text(golden + "key=q0 a;0 rounds=3 move=0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "play", "-i", fixture("eq.pcp"), "--defender", "random:1",
        "--attacker", f"strategy:{strategy}", "--rounds", "3",
    )
    number = golden.count("\n") + 1
    assert code == 1 and out == ""
    assert err == f"error: strategy line {number} repeats key 'q0 a;0' rounds=3: 'key=q0 a;0 rounds=3 move=0'\n"


@pytest.mark.parametrize("representation", ["matrix", "braid3"])
def test_play_script_letters_resolve_in_every_representation(capsys, representation):
    args = (
        "play", "-i", fixture("eq.pcp"), "--defender", "script:aa", "--attacker", "random:5",
        "--rounds", "2", "--run-to-end",
    )
    code, word_out, _ = run(capsys, *args)
    assert code == 0
    code, out, err = run(capsys, *args, "--representation", representation)
    assert code == 0, err

    def moves(trace: str) -> list[str]:
        return [line.split(" config=")[0] for line in trace.splitlines()]

    assert moves(out) == moves(word_out)
    assert out != word_out  # same moves, configurations in another representation


@pytest.mark.parametrize(
    "option, spec, form",
    [
        ("--defender", "script:", "script:SPEC"),
        ("--defender", "strategy:", "strategy:FILE"),
        ("--attacker", "random:x", "random:SEED"),
    ],
)
def test_play_malformed_policy_names_option_and_form(capsys, option, spec, form):
    policies = {"--defender": "script:a", "--attacker": "script:0", option: spec}
    code, out, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", policies["--defender"], "--attacker", policies["--attacker"], "--rounds", "1",
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: {option} {spec!r}: expected {form}") and err.count("\n") == 1


def test_play_human_mode(tmp_path, capsys, monkeypatch):
    answers = iter(["0", "0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    out = tmp_path / "trace.txt"
    code, _, _ = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "human", "--attacker", "human", "--rounds", "1", "-o", str(out),
    )
    assert code == 0
    assert out.read_text() == (GOLDEN / "toy_cancel.trace").read_text()


def test_play_human_asks_again_on_a_digit_that_is_not_decimal(capsys, monkeypatch):
    # '²' is a digit to str.isdigit, but int() refuses it: the prompt asks again
    monkeypatch.setattr("sys.stdin", io.StringIO("²\n0\n"))
    code, out, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "human", "--attacker", "script:0", "--rounds", "1",
    )
    assert (code, err) == (0, "")
    assert out.count("enter a move index between 0 and 0") == 1
    assert "round=1 player=D move=0 config=a;0\n" in out


def test_play_human_at_end_of_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"),
        "--defender", "human", "--attacker", "script:0", "--rounds", "1",
    )
    assert code == 1
    assert err == "error: input ended before the play did\n"


def test_crosscheck_agrees(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    run(
        capsys, "play", "-i", fixture("eq.pcp"), "--defender", "script:aaa",
        "--attacker", "random:5", "--rounds", "3", "--run-to-end", "-o", str(trace),
    )
    code, out, _ = run(
        capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("eq.pcp")
    )
    assert code == 0
    assert out.rstrip().endswith("AGREE at all rounds")


def test_crosscheck_detects_wrong_instance(tmp_path, capsys):
    # a trace from eq replayed against i1's games: its recorded configs match no i1 representation
    trace = tmp_path / "trace.txt"
    run(
        capsys, "play", "-i", fixture("eq.pcp"), "--defender", "script:aa",
        "--attacker", "script:1,1", "--rounds", "2", "--run-to-end", "-o", str(trace),
    )
    code, out, err = run(
        capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("i1.pcp")
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "round 1 (player A)" in err and "matches no representation" in err


def test_crosscheck_rejects_trace_of_another_instance(capsys):
    code, out, err = run(
        capsys, "crosscheck", "--trace", str(GOLDEN / "i1_play.trace"), "--instance", fixture("c4.pcp")
    )
    assert code == 1
    assert "AGREE" not in out
    assert err.startswith("error: ") and "matches no representation" in err


def test_crosscheck_trace_is_a_directory(capsys):
    code, _, err = run(capsys, "crosscheck", "--trace", str(FIXTURES), "--instance", fixture("i1.pcp"))
    assert_one_error_line(code, err, FIXTURES)


def test_usage_errors_exit_two(capsys):
    toy, eq = fixture("toy_cancel.game"), fixture("eq.pcp")
    for argv in (
        ["not-a-command"],
        ["build", "-i", "x.pcp", "--emit", "nonsense"],
        ["build", "-i", "x.pcp", "--no-such-flag"],
        ["check", "-i", eq, "--word", "a", "--universality", "3"],
        ["check", "-i", eq, "--universality"],
        ["check", "-i", eq, "--word", "a", "--universality", "--max-len", "3"],
        ["solve", "-i", eq, "--game", toy, "--rounds", "1"],
        ["play", "-i", eq, "--game", toy, "--defender", "script:a", "--attacker", "script:0",
         "--rounds", "1"],
        ["solve", "--game", toy, "--rounds", "1", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv
        assert "usage: pcpgames" in capsys.readouterr().err, argv


def test_end_to_end_round_trip_attacker(tmp_path, capsys):
    """build -> solve -> play(strategy) -> crosscheck on an attacker-winnable instance."""
    dump = tmp_path / "eq.game"
    strategy = tmp_path / "eq.strategy"
    trace = tmp_path / "eq.trace"
    assert run(capsys, "build", "-i", fixture("eq.pcp"), "--unfold", "--emit", "word-game", "-o", str(dump))[0] == 0
    code, out, _ = run(capsys, "solve", "--game", str(dump), "--rounds", "2", "--strategy-out", str(strategy))
    assert code == 0 and out.splitlines()[0] == "AttackerWinsWithin(2)"
    code, _, _ = run(
        capsys, "play", "--game", str(dump), "--defender", "script:aa",
        "--attacker", f"strategy:{strategy}", "--rounds", "2", "-o", str(trace),
    )
    assert code == 0
    assert "config=ε;0" in trace.read_text()
    code, out, _ = run(capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("eq.pcp"))
    assert code == 0 and out.rstrip().endswith("AGREE at all rounds")


def test_end_to_end_round_trip_defender(tmp_path, capsys):
    """solve -> survival strategy -> play(defender strategy) -> crosscheck on i1."""
    strategy = tmp_path / "i1.strategy"
    trace = tmp_path / "i1.trace"
    code, out, _ = run(
        capsys, "solve", "-i", fixture("i1.pcp"), "--rounds", "3", "--strategy-out", str(strategy)
    )
    assert code == 0 and out.splitlines()[0] == "DefenderSurvives(3)"
    code, _, _ = run(
        capsys, "play", "-i", fixture("i1.pcp"), "--defender", f"strategy:{strategy}",
        "--attacker", "random:11", "--rounds", "3", "-o", str(trace),
    )
    assert code == 0
    assert "config=ε;0" not in trace.read_text()
    code, out, _ = run(capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("i1.pcp"))
    assert code == 0 and out.rstrip().endswith("AGREE at all rounds")


@pytest.mark.parametrize("representation", ["pair", "matrix", "braid3", "braid5"])
def test_solve_other_representations(capsys, representation):
    code, out, _ = run(
        capsys, "solve", "-i", fixture("eq.pcp"), "--representation", representation,
        "--rounds", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "AttackerWinsWithin(2)"


def test_check_requires_mode(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["check", "-i", fixture("i1.pcp")])
    assert info.value.code == 2
    assert "one of the arguments --word --universality is required" in capsys.readouterr().err


def test_solve_requires_game_or_instance(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--rounds", "1"])
    assert info.value.code == 2
    assert "one of the arguments --game -i/--instance is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "play"])
def test_game_dump_is_only_the_word_representation(capsys, command):
    argv = [command, "--game", fixture("toy_cancel.game"), "--representation", "braid3", "--rounds", "1"]
    if command == "play":
        argv += ["--defender", "script:a", "--attacker", "script:0"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --game loads a word game") and err.count("\n") == 1


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_play_needs_a_round(tmp_path, capsys, rounds):
    trace = tmp_path / "trace.txt"
    code, out, err = run(
        capsys, "play", "--game", fixture("toy_cancel.game"), "--defender", "script:a",
        "--attacker", "script:0", "--rounds", rounds, "-o", str(trace),
    )
    assert code == 1 and out == ""
    assert err == "error: a play needs at least one round\n"
    assert not trace.exists()


def test_crosscheck_empty_trace_is_an_error(tmp_path, capsys):
    trace = tmp_path / "empty.trace"
    trace.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("i1.pcp"))
    assert code == 1 and "AGREE" not in out
    assert err == "error: the trace has no records\n"



def test_crosscheck_out_of_turn_trace_is_an_error(tmp_path, capsys):
    # each record's config is one that eq's word game reaches, but no play records them in this order
    trace = tmp_path / "out_of_turn.trace"
    trace.write_text(
        "round=7 player=A move=0 config=q0 #;0\n"
        "round=7 player=A move=0 config=q0 # #;0\n"
        "round=3 player=D move=0 config=q0 # # a;0\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "crosscheck", "--trace", str(trace), "--instance", fixture("eq.pcp"))
    assert code == 1 and "AGREE" not in out
    assert err == (
        "error: trace record 1 (round 7, player A) is out of turn: a play has round 1, player D there\n"
    )


# --- the pipeline builds each representation on first use, and only once ---

ENCODING_BUILDERS = (
    (wg, "binarize"),
    (wg, "to_pair_game"),
    (matrices, "build_matrix_game"),
    (braids, "build_braid3_game"),
    (braids, "build_braid5_game"),
)


@pytest.fixture
def encodings_forbidden(monkeypatch):
    """Make every builder past the word game raise, as a word-only command must not call one."""
    def forbidden(*args):
        raise AssertionError("a word-only command built an encoded game")

    for module, name in ENCODING_BUILDERS:
        monkeypatch.setattr(module, name, forbidden)


def test_word_solve_builds_no_encoding(capsys, encodings_forbidden):
    code, out, _ = run(capsys, "solve", "-i", fixture("c4.pcp"), "--rounds", "2")
    assert code == 0
    assert out.splitlines()[0] == "AttackerWinsWithin(2)"


def test_word_game_emission_builds_no_encoding(tmp_path, capsys, encodings_forbidden):
    out = tmp_path / "word-game"
    code, _, _ = run(capsys, "build", "-i", fixture("i1.pcp"), "--emit", "word-game", "-o", str(out))
    assert code == 0
    assert out.read_text() == (GOLDEN / "i1_word_game.txt").read_text()


def test_word_play_builds_no_encoding(capsys, encodings_forbidden):
    code, out, err = run(
        capsys, "play", "-i", fixture("i1.pcp"), "--defender", "script:aa",
        "--attacker", "random:1", "--rounds", "2", "--run-to-end",
    )
    assert code == 0, err
    assert len(out.splitlines()) == 4


@pytest.fixture
def builder_calls(monkeypatch):
    """Count the calls of each game builder (the word game's too), keyed by name."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for module, name in ENCODING_BUILDERS + ((wg, "build_weighted_word_game"),):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_crosscheck_builds_each_game_once(capsys, builder_calls):
    code, out, _ = run(
        capsys, "crosscheck", "--trace", str(GOLDEN / "i1_play.trace"), "--instance", fixture("i1.pcp")
    )
    assert code == 0 and out.rstrip().endswith("AGREE at all rounds")
    # to_pair_game runs once: the pair domain reads the binary pair game only
    assert builder_calls == {
        "build_weighted_word_game": 1, "binarize": 1, "to_pair_game": 1,
        "build_matrix_game": 1, "build_braid3_game": 1, "build_braid5_game": 1,
    }


def test_repeated_domain_calls_reuse_the_game(builder_calls):
    pipe = domains.build_pipeline(cli._read_instance(fixture("i1.pcp")))
    assert "build_matrix_game" not in builder_calls
    for _ in range(3):
        pipe.domain("matrix")
    assert builder_calls["build_matrix_game"] == 1
    assert pipe.braid3_game is pipe.braid3_game
    assert builder_calls["build_braid3_game"] == 1
