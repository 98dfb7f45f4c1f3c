#!/usr/bin/env python3
"""Benchmark of the pcpgames chain: one workload per run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-word --seed 1 --seconds 25 --trace 0

Workloads: solve-word, solve-encoded, certify-plays, universality (see
perfbench/README.md).  With ``--trace 0`` the run reports the end-to-end
metrics setup_s, run_s and peak_rss_mb; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same object is written to
perfbench/out/, together with the spans of the last traced round.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# These need only the standard library; the program is imported in main().
import bench_checks as checks
import bench_clock as clock
from bench_trace import LAYER_MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed at least SETUP_MIN times and until SETUP_BUDGET_S seconds
# of wall time are spent (at most SETUP_MAX times), before the first round;
# setup_s is the median.  Like run_s, it is at reference speed (see
# bench_clock.py).  The previous sample is dropped before the next is built,
# so only one set-up is alive at a time and peak_rss_mb does not depend on
# the number of samples.
SETUP_MIN = 9
SETUP_MAX = 100
SETUP_BUDGET_S = 2.0


def _import_program():
    if not (SRC / "pcpgames" / "__init__.py").is_file():
        print(f"error: no pcpgames sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pcpgames

    if Path(pcpgames.__file__).resolve().parent != (SRC / "pcpgames").resolve():
        print(f"error: pcpgames imported from {pcpgames.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, label: str, problems: list[str], wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def run_round(ops, ctx, tally: Tally, tracer=None) -> tuple[float, float, int]:
    """Run every operation once.

    Returns the summed time of the program calls, at reference speed and as
    wall time, and the number of nodes the round's solves explored.
    """
    gc.collect()
    spent = 0.0
    wall = 0.0
    explored = 0
    verdicts: dict[tuple, dict[str, tuple]] = {}
    failed_labels: set[str] = set()
    for op in ops:
        tally.attempted += 1
        before = clock.gauge()
        if tracer is not None:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            output = op.run(ctx)
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        spent += clock.at_reference(elapsed, before, clock.gauge())
        wall += elapsed
        if error is not None:
            tally.fail(op.label, [f"{type(error).__name__}: {error}"], wrong=False)
            traceback.print_exception(error, file=sys.stderr)
            failed_labels.add(op.label)
            continue
        explored += getattr(output, "explored", 0)
        problems = op.check(output)
        if problems:
            tally.fail(op.label, problems, wrong=True)
            failed_labels.add(op.label)
        elif op.group is not None:
            verdicts.setdefault(op.group, {})[op.label] = (output.attacker_wins, output.rounds)
    for group, by_label in verdicts.items():
        problems = checks.check_agreement(by_label)
        if problems:
            for label in by_label:
                if label not in failed_labels:
                    tally.fail(label, problems, wrong=True)
    return spent, wall, explored


def layer_metrics(tracer, explored: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced round."""
    t = tracer
    apply_calls = t.count("domains.apply")
    m = {
        "engine.explored": (explored, "count"),
        "engine.applies_per_node": (apply_calls / explored if explored else 0.0, "ratio"),
        "engine.solve_s": (t.seconds("engine.attacker_wins_within"), "s"),
        "engine.play_s": (t.seconds("engine.play"), "s"),
        "engine.crosscheck_s": (t.seconds("engine.crosscheck"), "s"),
        "domains.apply_calls": (apply_calls, "count"),
        "domains.apply_s": (t.seconds("domains.apply"), "s"),
        "domains.is_target_calls": (t.count("domains.is_target"), "count"),
        "domains.is_target_s": (t.seconds("domains.is_target"), "s"),
        "domains.canonical_key_calls": (t.count("domains.canonical_key"), "count"),
        "domains.canonical_key_s": (t.seconds("domains.canonical_key"), "s"),
        "freegroup.concat_calls": (t.count("freegroup.concat"), "count"),
        "freegroup.concat_s": (t.seconds("freegroup.concat"), "s"),
        "freegroup.render_s": (t.seconds("freegroup.render"), "s"),
        "freegroup.max_word_len": (t.maxima.get("freegroup.max_word_len", 0), "letters"),
        "matrices.mat_mul_calls": (t.count("matrices.mat_mul"), "count"),
        "matrices.mat_mul_s": (t.seconds("matrices.mat_mul"), "s"),
        "matrices.max_entry_bits": (t.maxima.get("matrices.max_entry_bits", 0), "bits"),
        "braids.concat_calls": (t.count("braids.concat"), "count"),
        "braids.concat_s": (t.seconds("braids.concat"), "s"),
        "braids.max_len": (t.maxima.get("braids.max_len", 0), "letters"),
        "braids.oracle_calls": (t.count("braids.is_trivial_fast"), "count"),
        "braids.oracle_s": (t.seconds("braids.is_trivial_fast"), "s"),
        "braids.garside_nf_calls": (t.count("braids.garside_nf"), "count"),
        "braids.garside_nf_s": (t.seconds("braids.garside_nf"), "s"),
        "braids.burau3_calls": (t.count("braids.burau3"), "count"),
        "braids.burau3_s": (t.seconds("braids.burau3"), "s"),
        "automata.accepts_calls": (t.count("automata.accepts_within"), "count"),
        "automata.accepts_s": (t.seconds("automata.accepts_within"), "s"),
        "automata.universality_s": (t.seconds("automata.bounded_universality"), "s"),
        "trace.spans": (len(t.span_name), "count"),
    }
    for layer in ("engine", "domains", "freegroup", "matrices", "braids", "automata"):
        m[f"{layer}.self_s"] = (t.layer_self.get(layer, 0.0), "s")
    return m


def build_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced set-up."""
    m = {"pcp.parse_s": (tracer.layer_incl.get("pcp", 0.0), "s")}
    for layer in ("automata", "wordgames", "matrices", "braids", "domains"):
        m[f"{layer}.build_s"] = (tracer.layer_incl.get(layer, 0.0), "s")
    return m


def _median_metrics(samples: list[dict]) -> dict[str, dict]:
    """Counts and sizes from the first sample (they must repeat); times as medians."""
    first = samples[0]
    out = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median([s[name][0] for s in samples])
        elif any(s[name][0] != value for s in samples[1:]):
            print(f"warning: {name} differs between traced rounds", file=sys.stderr)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bw.WORKLOADS)}")
    workload = bw.WORKLOADS[args.workload]
    texts = bw.instance_texts(workload.instances)
    plain = bw.Ctx()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare({m: importlib.import_module(f"pcpgames.{m}") for m in LAYER_MODULES})
    traced = bw.Ctx(tracer)

    setup_times: list[float] = []  # at reference speed
    setup_wall: list[float] = []
    build_samples: list[dict] = []
    state = None
    while len(setup_times) < SETUP_MIN or (
        sum(setup_wall) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
    ):
        state = None
        gc.collect()
        before = clock.gauge()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        state = workload.setup(traced, texts)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            build_samples.append(build_metrics(tracer))
        setup_times.append(clock.at_reference(elapsed, before, clock.gauge()))
        setup_wall.append(elapsed)

    ops = workload.make_ops(state, random.Random(f"{workload.name}/{args.seed}"))
    tally = Tally()
    plain_rounds: list[float] = []  # at reference speed
    plain_wall: list[float] = []
    traced_rounds: list[float] = []
    layer_samples: list[dict] = []
    started = time.perf_counter()
    while True:
        spent, wall, _ = run_round(ops, plain, tally)
        plain_rounds.append(spent)
        plain_wall.append(wall)
        if tracer is not None:
            tracer.reset()
            spent, _, explored = run_round(ops, traced, tally, tracer)
            traced_rounds.append(spent)
            layer_samples.append(layer_metrics(tracer, explored))
        # Start another round only if it can end within --seconds.
        round_s = (time.perf_counter() - started) / len(plain_rounds)
        if time.perf_counter() - started + round_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(plain_rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = _median_metrics(layer_samples)
        metrics.update(_median_metrics(build_samples))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_rounds) - statistics.median(plain_rounds), "unit": "s",
        }
        tracer.write(OUT / f"spans-{workload.name}.bin")

    rounds = len(plain_rounds) + len(traced_rounds)
    print(f"workload {workload.name}, seed {args.seed}: {rounds} rounds of {len(ops)} operations "
          f"({len(traced_rounds)} traced), {len(setup_times)} set-ups")
    print(f"attempted {tally.attempted} operations, failed {tally.failed}")
    print("set-ups, wall (s):", " ".join(f"{x:.4f}" for x in setup_wall))
    print("set-ups, reference (s):", " ".join(f"{x:.4f}" for x in setup_times))
    print("untraced rounds, wall (s):", " ".join(f"{x:.4f}" for x in plain_wall))
    print("untraced rounds, reference (s):", " ".join(f"{x:.4f}" for x in plain_rounds))
    if traced_rounds:
        print("traced rounds, reference (s):", " ".join(f"{x:.4f}" for x in traced_rounds))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
