"""Output checkers that depend neither on stored outputs nor on the solver.

Every checker returns a list of problems; an empty list means the output
passed.  They use the program only for the game semantics under test (a
domain's ``apply``, ``is_target`` and ``canonical_key``) and for plain data
(move words, move matrices, instance images); all reasoning about the
outputs is done here.
"""

from __future__ import annotations

import itertools

DEFENDER = "D"
ATTACKER = "A"


# --- free groups and integer matrices, computed independently ---


def free_reduce(letters) -> tuple:
    """Cancel adjacent ``(symbol, sign)`` / ``(symbol, -sign)`` pairs."""
    stack: list = []
    for sym, sign in letters:
        if stack and stack[-1] == (sym, -sign):
            stack.pop()
        else:
            stack.append((sym, sign))
    return tuple(stack)


def mat_product(matrices) -> tuple:
    """Left-to-right product of square integer matrices given as row tuples."""
    matrices = list(matrices)
    out = matrices[0]
    for m in matrices[1:]:
        n = len(out)
        out = tuple(
            tuple(sum(out[i][t] * m[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
    return out


# The SL(2,Z) images of the binary letters c, d and their inverses, and the
# rank-indexed embedding of a letter of rank i as c^i d c^-i.
F_IMAGES = {
    ("c", 1): ((1, 2), (0, 1)),
    ("c", -1): ((1, -2), (0, 1)),
    ("d", 1): ((1, 0), (2, 1)),
    ("d", -1): ((1, 0), (-2, 1)),
}
IDENTITY2 = ((1, 0), (0, 1))
COUNTER_SYMBOLS = ("r",)


def alpha(letters, symbols) -> tuple:
    """Embed a word over ``symbols`` (ranked 1, 2, ... in order) into {c, d}."""
    out: list = []
    for sym, sign in letters:
        rank = symbols.index(sym) + 1
        out += [("c", 1)] * rank + [("d", sign)] + [("c", -1)] * rank
    return free_reduce(out)


def pair_matrix(word, counter_word) -> tuple:
    """Block-diagonal 4x4 image of a binary word and a unary counter word."""
    upper = mat_product([IDENTITY2] + [F_IMAGES[x] for x in word])
    lower = mat_product([IDENTITY2] + [F_IMAGES[x] for x in alpha(counter_word, COUNTER_SYMBOLS)])
    return tuple(row + (0, 0) for row in upper) + tuple((0, 0) + row for row in lower)


# --- solver outputs ---


def brute_force_value(domain, horizon: int):
    """Least j <= horizon within which Attacker forces a target, or None; no memo."""

    def value(cfg, remaining: int):
        worst = 0
        for d in range(domain.move_count(DEFENDER)):
            after_d = domain.apply(cfg, DEFENDER, d)
            best = None
            for a in range(domain.move_count(ATTACKER)):
                after_a = domain.apply(after_d, ATTACKER, a)
                if domain.is_target(after_a):
                    best = 1
                    break
                if remaining > 1:
                    sub = value(after_a, remaining - 1)
                    if sub is not None and (best is None or sub + 1 < best):
                        best = sub + 1
            if best is None:
                return None
            worst = max(worst, best)
        return worst

    return value(domain.initial_config(), horizon)


def brute_force_cost(domain, horizon: int) -> int:
    """Upper bound on the number of ``apply`` calls :func:`brute_force_value` makes."""
    return (domain.move_count(DEFENDER) * domain.move_count(ATTACKER)) ** horizon


def check_attacker_table(domain, table, horizon: int, rounds: int) -> list[str]:
    """Follow the attacker table against every defender script of ``rounds`` moves.

    Entries are keyed ``(canonical key after the defender move, remaining)``
    with ``remaining = horizon - round + 1``; every script must reach a
    target within ``rounds`` rounds.
    """
    problems = []
    defender_moves = range(domain.move_count(DEFENDER))
    for script in itertools.product(defender_moves, repeat=rounds):
        cfg = domain.initial_config()
        reached = False
        for rnd, d in enumerate(script, start=1):
            cfg = domain.apply(cfg, DEFENDER, d)
            key = (domain.canonical_key(cfg), horizon - rnd + 1)
            if key not in table:
                problems.append(f"attacker table has no move for {key!r} (script {script})")
                break
            cfg = domain.apply(cfg, ATTACKER, table[key])
            if domain.is_target(cfg):
                reached = True
                break
        if not reached:
            problems.append(f"defender script {script} escapes the attacker table")
        if len(problems) >= 3:
            break
    return problems


def check_defender_table(domain, table, horizon: int) -> list[str]:
    """Follow the defender table against every attacker sequence of ``horizon`` moves.

    Positions are deduplicated by ``(canonical key, remaining)``, which visits
    the same outcomes as enumerating every attacker sequence.
    """
    problems: list[str] = []
    safe: set = set()

    def survives(cfg, remaining: int) -> bool:
        key = (domain.canonical_key(cfg), remaining)
        if key in safe:
            return True
        if key not in table:
            problems.append(f"defender table has no move for {key!r}")
            return False
        after_d = domain.apply(cfg, DEFENDER, table[key])
        for a in range(domain.move_count(ATTACKER)):
            after_a = domain.apply(after_d, ATTACKER, a)
            if domain.is_target(after_a):
                problems.append(f"attacker move {a} reaches a target against the table at {key!r}")
                return False
            if remaining > 1 and not survives(after_a, remaining - 1):
                return False
        safe.add(key)
        return True

    survives(domain.initial_config(), horizon)
    return problems


def check_solve(domain, result, horizon: int) -> list[str]:
    """Certificate replay for one solve result (verdict, rounds, strategy table)."""
    if result.horizon != horizon:
        return [f"result horizon {result.horizon} != requested {horizon}"]
    if result.attacker_wins:
        if not 1 <= result.rounds <= horizon:
            return [f"attacker wins in {result.rounds} rounds outside 1..{horizon}"]
        return check_attacker_table(domain, result.strategy, horizon, result.rounds)
    if result.rounds != horizon:
        return [f"defender survives {result.rounds} rounds, horizon is {horizon}"]
    return check_defender_table(domain, result.strategy, horizon)


def check_against_brute_force(result, brute) -> list[str]:
    expected = (brute is not None, brute if brute is not None else result.horizon)
    got = (result.attacker_wins, result.rounds)
    if got != expected:
        return [f"solver says {result.verdict}, brute force says "
                + (f"AttackerWinsWithin({brute})" if brute is not None else "DefenderSurvives")]
    return []


def check_agreement(verdicts: dict[str, tuple[bool, int]]) -> list[str]:
    """Every representation of one instance and horizon: same verdict, same rounds."""
    if len(set(verdicts.values())) > 1:
        return [f"representations disagree: {verdicts}"]
    return []


# --- bounded universality ---


def least_good_word(h_images: dict[str, str], g_images: dict[str, str], length: int):
    """The least length-``length`` word all of whose prefixes keep one image a
    proper prefix of the other, or None.  Letters are tried in sorted order."""
    letters = sorted(h_images)

    def good(hw: str, gw: str) -> bool:
        if len(hw) == len(gw):
            return False
        short, long_ = (hw, gw) if len(hw) < len(gw) else (gw, hw)
        return long_.startswith(short)

    def search(prefix: str, hw: str, gw: str):
        if len(prefix) == length:
            return prefix
        for a in letters:
            h2, g2 = hw + h_images[a], gw + g_images[a]
            if good(h2, g2):
                found = search(prefix + a, h2, g2)
                if found is not None:
                    return found
        return None

    return search("", "", "")


def check_universality(h_images, g_images, length: int, verdict) -> list[str]:
    expected = least_good_word(h_images, g_images, length)
    if verdict.horizon != length:
        return [f"verdict horizon {verdict.horizon} != {length}"]
    if verdict.counterexample != expected:
        return [f"counterexample {verdict.counterexample!r}, least good word is {expected!r}"]
    return []


# --- certified plays ---


def check_play(play, source_game, matrix_game, scripts) -> list[str]:
    """Check one certified play (see ``bench_workloads.certify_play``).

    ``source_game`` is the weighted word game and ``matrix_game`` the SL(4,Z)
    game of the same pipeline; ``scripts`` the defender and attacker move
    indices the play was driven by.  The final word is recomputed by free
    reduction, the final pair by the binary embedding of that word, and the
    final matrix both as the product of the move matrices and as the image
    of the final pair.
    """
    problems = []
    defender_script, attacker_script = scripts
    expected_moves = [
        (player, move)
        for d, a in zip(defender_script, attacker_script)
        for player, move in ((DEFENDER, d), (ATTACKER, a))
    ]
    recorded = [(r.player, r.move) for r in play.trace.records]
    if recorded != expected_moves:
        problems.append(f"trace moves {recorded} differ from the scripts {expected_moves}")
    if not play.crosscheck_agree:
        problems.append("crosscheck reported a disagreement")
    for step, flags in enumerate(play.oracle_flags, start=1):
        for name, (target, trivial) in flags.items():
            if target != trivial:
                problems.append(f"move {step}: {name} is_target={target} but the braid oracle says {trivial}")
    letters = list(source_game.initial.word.letters)
    counter = source_game.initial.counter
    matrices = [matrix_game.initial]
    for player, move in expected_moves:
        moves = source_game.defender_moves if player == DEFENDER else source_game.attacker_moves
        letters.extend(moves[move].word.letters)
        counter += moves[move].weight
        matrices.append((matrix_game.defender if player == DEFENDER else matrix_game.attacker)[move])
    word = free_reduce(letters)
    if tuple(play.word_config.word.letters) != word:
        problems.append("final word differs from the free reduction of the move words")
    if play.word_config.counter != counter:
        problems.append(f"final counter {play.word_config.counter} != sum of weights {counter}")
    binary_word = alpha(word, source_game.alphabet.symbols)
    counter_word = ((COUNTER_SYMBOLS[0], 1 if counter > 0 else -1),) * abs(counter)
    pair = (tuple(play.pair_config.word.letters), tuple(play.pair_config.counter_word.letters))
    if pair != (binary_word, counter_word):
        problems.append("final pair differs from the binary embedding of the final word")
    if play.matrix_config != mat_product(matrices):
        problems.append("final matrix differs from the product of the move matrices")
    if play.matrix_config != pair_matrix(binary_word, counter_word):
        problems.append("final matrix differs from the SL(4,Z) image of the final pair")
    for label, proved in play.proofs.items():
        if not proved:
            problems.append(f"{label}: final braid differs from the encoding of its preimage")
    return problems
