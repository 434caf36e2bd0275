"""Seeded benchmark for treesep.

    python3 perfbench/run.py --workload walker-extract --seed 1 --seconds 30 --trace 0

Three workloads (see perfbench/README.md): `walker-extract`,
`palindrome-verify` and `tree-membership`.  Without --workload all three run
in turn, each in a child process of its own, so that none inherits another's
heap, caches or peak resident set.  A workload runs in one process with no
threads and one caller in a closed loop: the next operation starts when the
previous one has returned.  Inputs come from
--seed only.  The program is imported from the checkout's `src/`; the
benchmark hands it the generated inputs and times its public calls from
outside.  Reported times are rescaled to a fixed host speed, measured
with a reference loop between ops (see HostClock).

With --trace 0 the last stdout line is the end-to-end result, with
--trace 1 it holds the per-layer metrics from spans recorded around each
layer call.  Per-op output hashes and sizes go to perfbench/out/, and a run
fails when they differ from an earlier run of the same workload, seed and
code.
The exit code is 1 when a known-answer check fails and 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20260811
DEFAULT_SECONDS = 30


def import_program():
    """Import treesep from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import treesep
    except ImportError as exc:
        print(f"perfbench: cannot import treesep from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(treesep.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: treesep imported from {treesep.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


import_program()

import checks  # noqa: E402
import gen  # noqa: E402
from treesep import fixtures  # noqa: E402
from treesep.grammar import parse_grammar  # noqa: E402
from treesep.obfuscation import kop_dbta, kop_member, kop_nta  # noqa: E402
from treesep.errors import RotationSearchExhausted  # noqa: E402
from treesep.rotation import ExtractReport, comb_dfa, extract_separator, find_rotation_term  # noqa: E402
from treesep.trees import enumerate_terms, parse_tree  # noqa: E402
from treesep.walking import dfs_from_dfa, to_dbta  # noqa: E402
from treesep.words import SeparatorReport, cfg_dfa_intersection_empty, verify_separator  # noqa: E402

SEARCH_BOUND = 9
# Shape-free: every bracketing of a word is a derivation, and the word is in
# the language iff it has an even number of p.
PARITY_TEXT = """
start: E
E -> E E
E -> O O
E -> q
O -> E O
O -> O E
O -> p
"""

END_TO_END = {
    "setup_s": "s",
    "busy_s": "s",
    "op_p50_ms": "ms",
    "nodes_per_s": "1/s",
    "us_per_node_p50": "us",
    "us_per_node_p90": "us",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

PER_LAYER = {
    "walking.to_dbta_s": "s",
    "walking.behaviours": "count",
    "walking.dbta_transitions": "count",
    "bottomup.minimize_s": "s",
    "bottomup.min_states": "count",
    "bottomup.min_ratio": "ratio",
    "rotation.search_s": "s",
    "rotation.terms_tried": "count",
    "rotation.witness_size": "count",
    "rotation.comb_dfa_s": "s",
    "rotation.comb_states": "count",
    "rotation.extract_s": "s",
    "words.intersection_g_s": "s",
    "words.intersection_h_s": "s",
    "words.verify_s": "s",
    "words.dfa_states": "count",
    "words.witness_len_max": "count",
    "trees.parse_s": "s",
    "trees.nodes": "count",
    "walking.run_s": "s",
    "walking.run_steps": "count",
    "bottomup.eval_s": "s",
    "obfuscation.kop_member_s": "s",
    "trees.parse_failed": "count",
    "walking.run_failed": "count",
    "bottomup.eval_failed": "count",
    "obfuscation.kop_member_failed": "count",
    "bottomup.determinize_s": "s",
    "bottomup.kop_states": "count",
    "trace.busy_s": "s",
}

# Spans whose metric is their inclusive time; every other span reports self time.
INCLUSIVE = {"rotation.extract", "words.verify"}


class Tracer:
    """Spans (name, start, end, parent index, op id), kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def times(self, phase_prefix, scale, net):
        """Span name -> (self seconds, inclusive seconds) over ops whose id
        starts with `phase_prefix`, each op's spans rescaled by scale[op].
        net(start, end) is a span's duration without calibration samples."""
        length = [net(start, end) for _name, start, end, _parent, _op in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_name, _start, _end, parent, _op) in enumerate(self.spans):
            if parent is not None:
                child[parent] += length[i]
        out = {}
        for i, (name, _start, _end, _parent, op) in enumerate(self.spans):
            if not op.startswith(phase_prefix):
                continue
            own, total = out.get(name, (0.0, 0.0))
            k = scale[op]
            out[name] = (own + k * (length[i] - child[i]), total + k * length[i])
        return out


def span_of(tracer):
    return tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Outcome:
    """What one op returned: output hash, its size in nodes, sizes and
    counts for the record, per-layer failures, and known-answer errors."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.hash = None
        self.sizes = {}
        self.counts = {}
        self.error = None  # exception type of a failed op
        self.wrong = []


# ---------------------------------------------------------------- walker-extract


class WalkerExtract:
    """extract_separator(dfs_from_dfa(K), palindromes, non-palindromes, 9)."""

    name = "walker-extract"
    SAMPLE_DURING_OPS = True
    # (transition monoid size, DFAs per batch).  Walkers of the three classes
    # have 222, 80 and 66 behaviours; a fixed mix keeps the batch's work the
    # same from seed to seed, and the seed picks the DFAs inside each class.
    CLASSES = ((24, 1), (13, 6), (11, 2))

    def __init__(self, rng):
        self.ks = [gen.minimal_k(rng, monoid) for monoid, count in self.CLASSES for _ in range(count)]
        rng.shuffle(self.ks)
        self.batch = list(range(len(self.ks)))
        self.direct_checked = False

    def subset(self, op):
        return True

    def nodes(self, op):
        """Size of an op's input: states of the walker, the tree nodes of
        tree-membership, the DFA states of palindrome-verify."""
        return len(self.walkers[op].states)

    def setup(self, tracer):
        self.g = parse_grammar(fixtures.PALINDROME_TEXT)
        self.h = parse_grammar(fixtures.NONPALINDROME_TEXT)
        sigma = fixtures.obf_sigma()
        self.walkers = [dfs_from_dfa(k, sigma) for k in self.ks]
        return {}

    def run(self, i, tracer):
        walker = self.walkers[i]
        if tracer is None:
            return extract_separator(walker, self.g, self.h, SEARCH_BOUND), None
        span = tracer.span
        counts = {}
        with span("rotation.extract"):
            with span("walking.to_dbta"):
                dbta = to_dbta(walker)
            counts["walking.behaviours"] = len(dbta.states)
            counts["walking.dbta_transitions"] = sum(len(t) for t in dbta.transitions.values())
            with span("bottomup.minimize"):
                amin = dbta.minimize()
            # extract_separator drops the unminimised automaton here; keeping
            # it alive makes every later garbage collection slower.
            del dbta
            counts["bottomup.min_states"] = len(amin.states)
            try:
                with span("rotation.search"):
                    witness = find_rotation_term(amin, SEARCH_BOUND)
            except RotationSearchExhausted:
                return ExtractReport(status="exhausted", search_bound=SEARCH_BOUND), counts
            with span("rotation.comb_dfa"):
                separator = comb_dfa(amin, witness.term, self.g.terminals)
            with span("words.verify"):
                complement = separator.complement()
                with span("words.intersection_g"):
                    ok_g, missed = cfg_dfa_intersection_empty(self.g, complement)
                with span("words.intersection_h"):
                    ok_h, overlap = cfg_dfa_intersection_empty(self.h, separator)
        verification = SeparatorReport(ok_g and ok_h, violation_g=missed, violation_h=overlap)
        report = ExtractReport("ok", SEARCH_BOUND, witness, separator, verification)
        return report, counts

    def finish(self, i, result, out):
        report, counts = result
        out.hash = digest(report.to_json())
        if report.status != "ok":
            out.wrong.append(f"K#{i}: search exhausted at bound {SEARCH_BOUND}")
            return
        k = self.ks[i]
        out.wrong += checks.check_comb(k, report.separator)
        out.wrong += checks.check_separator(report.separator, report.verification)
        witness_lens = [len(w) for w in (report.verification.violation_g,
                                         report.verification.violation_h) if w is not None]
        out.sizes = {
            "walker_states": len(self.walkers[i].states),
            "comb_states": len(report.separator.states),
            "witness_size": report.witness.found_at_size,
            "witness_lens": witness_lens,
        }
        if counts is not None:
            pair = gen.PAIR
            tried = 1 + next(j for j, t in enumerate(enumerate_terms(pair, 2, SEARCH_BOUND))
                             if t == report.witness.term)
            counts.update({
                "rotation.terms_tried": tried,
                "rotation.witness_size": report.witness.found_at_size,
                "rotation.comb_states": len(report.separator.states),
                "words.dfa_states": len(report.separator.states),
                "words.witness_len_max": max(witness_lens, default=0),
            })
            out.sizes.update({k: v for k, v in counts.items() if not k.startswith("words.")})
            out.counts = counts
            if not self.direct_checked:
                # The staged calls must give the report extract_separator gives.
                self.direct_checked = True
                direct = extract_separator(self.walkers[i], self.g, self.h, SEARCH_BOUND)
                if direct.to_json() != report.to_json():
                    out.wrong.append(f"K#{i}: staged report differs from extract_separator")


# ---------------------------------------------------------------- palindrome-verify


class PalindromeVerify:
    """verify_separator(K, palindromes, non-palindromes) on two families of K."""

    name = "palindrome-verify"
    SAMPLE_DURING_OPS = True
    # Family 2's cost depends on m alone.  It holds the middle ranks, so
    # op_p50_ms (5th of 9) is m = 12 whatever the seed draws for family 1
    # (1.0-2.0 s against 0.55 s), and the two highest per-state costs, which
    # set us_per_node_p90, are m = 17 and 18.
    RANDOM_SIZES = (16,)
    THRESHOLDS = (8, 9, 10, 11, 12, 13, 17, 18)

    def __init__(self, rng):
        self.items = [("random", n, gen.reachable_random_dfa(rng, n)) for n in self.RANDOM_SIZES]
        self.items += [("threshold", m, gen.threshold_dfa(m)) for m in self.THRESHOLDS]
        rng.shuffle(self.items)
        self.batch = list(range(len(self.items)))

    def subset(self, op):
        return True

    def nodes(self, op):
        return len(self.items[op][2].states)

    def setup(self, tracer):
        self.g = parse_grammar(fixtures.PALINDROME_TEXT)
        self.h = parse_grammar(fixtures.NONPALINDROME_TEXT)
        return {}

    def run(self, i, tracer):
        k = self.items[i][2]
        if tracer is None:
            return verify_separator(k, self.g, self.h)
        span = tracer.span
        with span("words.verify"):
            complement = k.complement()
            with span("words.intersection_g"):
                ok_g, missed = cfg_dfa_intersection_empty(self.g, complement)
            with span("words.intersection_h"):
                ok_h, overlap = cfg_dfa_intersection_empty(self.h, k)
        return SeparatorReport(ok_g and ok_h, violation_g=missed, violation_h=overlap)

    def finish(self, i, report, out):
        family, param, k = self.items[i]
        out.hash = digest([report.separates, report.violation_g, report.violation_h])
        out.wrong += checks.check_separator(k, report)
        if family == "threshold":
            out.wrong += checks.check_threshold(param, report)
        lens = [len(w) for w in (report.violation_g, report.violation_h) if w is not None]
        out.sizes = {"family": family, "param": param, "dfa_states": len(k.states), "witness_lens": lens}
        out.counts = {"words.dfa_states": len(k.states), "words.witness_len_max": max(lens, default=0)}


# ---------------------------------------------------------------- tree-membership


class TreeMembership:
    """parse_tree -> Dtwa.run -> Dbta.accepts -> kop_member on obfuscated trees."""

    name = "tree-membership"
    # Its ops take milliseconds, and the deep ones recurse up to the
    # interpreter's limit on purpose: a signal handler called on top of such
    # a stack could raise RecursionError where the program would not.  Its
    # set-up is still sampled inside.
    SAMPLE_DURING_OPS = False
    PER_SHAPE = 30
    LAYERS = (
        ("trees.parse", "trees.parse_failed"),
        ("walking.run", "walking.run_failed"),
        ("bottomup.eval", "bottomup.eval_failed"),
        ("obfuscation.kop_member", "obfuscation.kop_member_failed"),
    )

    # The walker's DFA has a 13-element monoid (80 behaviours), so one set-up
    # takes about 0.5 s and several fit in the set-up budget.
    MONOID = 13

    def __init__(self, rng):
        self.k = gen.minimal_k(rng, self.MONOID)
        self.pool = gen.tree_pool(rng, self.PER_SHAPE)
        self.batch = list(range(len(self.pool)))

    def subset(self, op):
        # busy_s and op_p50_ms cover the random bracketings only: they are
        # shallow, so they succeed whether or not deep trees are handled.
        return self.pool[op].shape == "random"

    def nodes(self, op):
        return self.pool[op].nodes

    def setup(self, tracer):
        span = span_of(tracer)
        self.parity = parse_grammar(PARITY_TEXT)
        self.walker = dfs_from_dfa(self.k, fixtures.obf_sigma())
        with span("walking.to_dbta"):
            dbta = to_dbta(self.walker)
        with span("bottomup.minimize"):
            self.amin = dbta.minimize()
        with span("bottomup.determinize"):
            kop = kop_nta(self.parity).determinize()
        kop_dbta(self.parity)  # fill the cache kop_member reads
        return {
            "walking.behaviours": len(dbta.states),
            "walking.dbta_transitions": sum(len(t) for t in dbta.transitions.values()),
            "bottomup.min_states": len(self.amin.states),
            "bottomup.kop_states": len(kop.states),
        }

    def run(self, i, tracer):
        item = self.pool[i]
        if tracer is None:
            tree = parse_tree(item.text)
            run = self.walker.run(tree)
            return tree, run, self.amin.accepts(tree), kop_member(self.parity, tree), {}
        # Traced: every layer gets the generated tree, so a failed parse does
        # not hide how the later layers behave.
        calls = (
            lambda: parse_tree(item.text),
            lambda: self.walker.run(item.tree),
            lambda: self.amin.accepts(item.tree),
            lambda: kop_member(self.parity, item.tree),
        )
        results = []
        errors = {}
        for (name, failed), call in zip(self.LAYERS, calls):
            try:
                with tracer.span(name):
                    results.append(call())
            except Exception as exc:  # a layer failing is a measured outcome
                results.append(None)
                errors[failed] = type(exc).__name__
        return (*results, errors)

    def finish(self, i, result, out):
        item = self.pool[i]
        tree, run, accepted, member, errors = result
        out.wrong += checks.check_membership(
            self.k, item.word, None if run is None else run.kind, accepted, member)
        if tree is not None and hash(tree) != hash(item.tree):
            out.wrong.append(f"tree {i}: parse_tree built a different tree")
        if errors:
            out.error = "+".join(sorted(set(errors.values())))
        out.hash = digest([None if run is None else [run.kind, run.steps], accepted, member,
                           sorted(errors.items())])
        out.sizes = {"shape": item.shape, "leaves": len(item.word), "nodes": item.nodes,
                     "depth": item.depth, "steps": None if run is None else run.steps}
        out.counts = {"trees.nodes": item.nodes, "walking.run_steps": 0 if run is None else run.steps}
        out.counts.update({name: 1 for name in errors})


WORKLOADS = {w.name: w for w in (WalkerExtract, PalindromeVerify, TreeMembership)}


# ---------------------------------------------------------------- host speed

# The machines this runs on are shared: their speed drifts by up to a factor
# of two over minutes and by 10-20% from one second to the next.  A fixed
# pure-Python loop shaped like the program's work, `reference()`, slows by
# about the same factor, so every reported time is rescaled to a host on
# which it takes REF_S.  It is sampled in bursts between ops and, on
# workloads with long ops, also inside them: a SIGALRM handler takes one
# sample every SAMPLE_EVERY_S.  An op with MIN_INSIDE samples or more is
# scaled by the mean of its own samples; on a 3 s verify_separator call
# this cut the run-to-run variation from 13% to 3%.  The samples' own time
# is subtracted from the op's.
REF_S = 0.00024
SAMPLE_EVERY_S = 0.02
MIN_INSIDE = 10
CALIBRATE_EVERY_S = 0.2
BURST = 30
# A shorter op is scaled by the median sample within this many seconds on
# each side of it: bursts of outside load last a few hundred ms, and the
# median over the window still follows drift that builds over minutes.
CALIBRATION_WINDOW_S = 5.0
_REF_TRIPLES = [(i % 13, i % 7, i % 11) for i in range(200)]
_REF_SET = set(_REF_TRIPLES[::3])


def reference():
    """The calibration loop; it calls no program code.  Half of it builds
    tuples and dict entries, half joins triples through a set, like the
    product saturation.  Garbage collection is off while it runs, so the
    program's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        counts = {}
        for i in range(700):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
        joined = 0
        for p, y, r in _REF_TRIPLES:
            for r2, _z, q in _REF_TRIPLES[:10]:
                if r2 == r and (p, y, q) in _REF_SET:
                    joined += 1
        return counts, joined
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Start times and durations of `reference()` samples: a burst of BURST
    at most every CALIBRATE_EVERY_S between ops and, while `sample_inside`
    is on, one every SAMPLE_EVERY_S from a SIGALRM handler."""

    def __init__(self):
        self.at = []
        self.took = []
        self._sampling = False
        self._timer = False
        self.burst()

    def sample_inside(self, on):
        if on and not self._timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        elif self._timer and not on:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._timer = on

    def _sample(self):
        self._sampling = True
        t0 = time.perf_counter()
        reference()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)
        self._sampling = False

    def _on_alarm(self, signum, frame):
        if not self._sampling:
            self._sample()

    def burst(self):
        for _ in range(BURST):
            self._sample()

    def tick(self):
        gap = time.perf_counter() - self.at[-1]
        if gap >= CALIBRATE_EVERY_S:
            # After a long op, sample more: its time is scaled by few samples.
            for _ in range(3 if gap >= 1.0 else 1):
                self.burst()

    def _inside(self, start, end):
        return bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)

    def net(self, start, end):
        """Seconds of [start, end] not spent in samples taken inside it."""
        lo, hi = self._inside(start, end)
        return end - start - sum(self.took[lo:hi])

    def scale(self, start, end):
        """REF_S over the mean sample inside [start, end] when there are
        MIN_INSIDE of them, else over the median sample within
        CALIBRATION_WINDOW_S of it, the nearest samples outside included."""
        lo, hi = self._inside(start, end)
        if hi - lo >= MIN_INSIDE:
            return REF_S / statistics.fmean(self.took[lo:hi])
        lo = max(bisect.bisect_left(self.at, start - CALIBRATION_WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW_S) + 1
        return REF_S / statistics.median(self.took[lo:hi])

    def speed(self):
        return REF_S / statistics.median(self.took)


# ---------------------------------------------------------------- measurement loop

# Set-up is timed in blocks of repeated calls, one timer read per block, and
# a block is at least SETUP_BLOCK_S long, so that a set-up of a fraction of a
# millisecond is not dominated by timer and garbage-collection noise, and so
# that a block holds MIN_INSIDE calibration samples when they are taken
# inside ops.
SETUP_MIN_BLOCKS = 3
SETUP_BLOCK_S = 0.25
SETUP_BUDGET_S = 3.0


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name, seed, seconds, trace):
    """Set up, run whole passes over the batch for about `seconds`, check."""
    rng = gen.rng_for(name, seed)
    work = WORKLOADS[name](rng)
    tracer = Tracer() if trace else None
    clock = HostClock()
    # Every workload's set-up recurses little, so it is sampled inside.
    clock.sample_inside(True)
    wrong = []

    # Blocks of `reps` set-up calls: (tracer op ids, start, raw seconds).  The
    # block size doubles until a block lasts SETUP_BLOCK_S; the blocks before
    # that one only calibrate it and are left out of setup_s.
    blocks = []
    timed = None  # index of the first block that counts
    calls = 0
    reps = 1
    spent = 0.0
    while True:
        clock.tick()
        op_ids = [f"setup-{calls + j}" for j in range(reps)]
        t0 = time.perf_counter()
        for op_id in op_ids:
            if tracer is not None:
                tracer.op = op_id
            setup_counts = work.setup(tracer)
        dt = time.perf_counter() - t0
        calls += reps
        spent += dt
        blocks.append((op_ids, t0, dt))
        if timed is None:
            if dt >= SETUP_BLOCK_S:
                timed = len(blocks) - 1
            else:
                reps *= 2
        elif len(blocks) - timed >= SETUP_MIN_BLOCKS and spent >= SETUP_BUDGET_S:
            break

    clock.sample_inside(work.SAMPLE_DURING_OPS)
    passes = []  # per pass: list of (op, tracer op id, start, raw seconds, Outcome)
    start = time.perf_counter()
    while True:
        records = []
        for op in work.batch:
            clock.tick()
            out = Outcome(nodes=work.nodes(op))
            op_id = f"op-{len(passes)}-{op}"
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                result = work.run(op, tracer)
            except Exception as exc:  # a failed op is counted, not fatal
                dt = time.perf_counter() - t0
                out.error = type(exc).__name__
                out.hash = digest(["error", out.error])
            else:
                dt = time.perf_counter() - t0
                work.finish(op, result, out)
            records.append((op, op_id, t0, dt, out))
            wrong += [f"{name} op {op}: {msg}" for msg in out.wrong]
        passes.append(records)
        # Stop at the pass count nearest to `seconds`: a third pass lets the
        # per-op median drop one slowed pass, which a mean of two cannot.
        elapsed = time.perf_counter() - start
        if elapsed + sum(r[3] for r in records) / 2 > seconds:
            break
    clock.tick()
    clock.sample_inside(False)

    first = [r[4].hash for r in passes[0]]
    for k, records in enumerate(passes[1:], start=2):
        if [r[4].hash for r in records] != first:
            wrong.append(f"{name}: pass {k} gave different outputs than pass 1")

    scale = {r[1]: clock.scale(r[2], r[2] + r[3]) for records in passes for r in records}
    for op_ids, t0, dt in blocks:
        scale.update(dict.fromkeys(op_ids, clock.scale(t0, t0 + dt)))
    # From here on, times leave out the calibration samples taken inside them.
    blocks = [(op_ids, t0, clock.net(t0, t0 + dt)) for op_ids, t0, dt in blocks]
    passes = [[(op, op_id, t0, clock.net(t0, t0 + dt), out) for op, op_id, t0, dt, out in records]
              for records in passes]
    setup_s = statistics.median(dt * scale[op_ids[0]] / len(op_ids) for op_ids, _, dt in blocks[timed:])
    # Each op's time is its median over the passes, which drops a pass that a
    # burst of outside load slowed down more than the calibration caught.
    op_time = {op: statistics.median(r[3] * scale[r[1]] for records in passes
                                     for r in records if r[0] == op)
               for op in work.batch}
    ok = [(r[0], r[4]) for r in passes[0] if not r[4].error]
    busy = sum(op_time[op] for op in work.batch if work.subset(op))

    attempted = sum(len(r) for r in passes)
    tally = {}
    for records in passes:
        for r in records:
            if r[4].error:
                tally[r[4].error] = tally.get(r[4].error, 0) + 1
    failed = sum(tally.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        metrics = layer_metrics(tracer, scale, clock.net, passes, setup_counts, calls)
        metrics["trace.busy_s"] = busy
    else:
        ok_subset = [op_time[op] for op, _ in ok if work.subset(op)]
        per_node = [op_time[op] * 1e6 / out.nodes for op, out in ok]
        metrics = {
            "setup_s": setup_s,
            "busy_s": busy,
            "op_p50_ms": statistics.median(ok_subset) * 1e3,
            "nodes_per_s": sum(out.nodes for _, out in ok) / sum(op_time.values()),
            "us_per_node_p50": statistics.median(per_node),
            "us_per_node_p90": percentile(per_node, 90),
            "peak_rss_mb": rss_mb,
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    raw_busy = sum(statistics.median(r[3] for records in passes for r in records if r[0] == op)
                   for op in work.batch if work.subset(op))
    wrong += compare_with_record(name, seed, trace, passes[0], scale, metrics)
    if trace:
        write_trace(name, seed, tracer, scale, clock.net, metrics)
    units = PER_LAYER if trace else END_TO_END
    summary = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "ops_per_pass": len(work.batch),
        "setup_reps": calls,
        "host_speed": clock.speed(),
        "raw_busy_s": raw_busy,
        "peak_rss_mb": rss_mb,
        "failures_by_type": tally,
        "wrong": wrong,
    }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, summary


def layer_metrics(tracer, scale, net, passes, setup_counts, setup_reps):
    """Per-layer metrics: rescaled span self times per pass (per set-up for
    set-up spans) and counts summed over the first pass."""
    metrics = {k: 0 for k in PER_LAYER}
    for prefix, divisor in (("op-", len(passes)), ("setup-", setup_reps)):
        for span, (own, total) in tracer.times(prefix, scale, net).items():
            metrics[f"{span}_s"] += (total if span in INCLUSIVE else own) / divisor
    counts = dict(setup_counts)
    for r in passes[0]:
        for key, value in r[4].counts.items():
            if key.endswith("_max"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    metrics.update(counts)
    if metrics["walking.behaviours"]:
        metrics["bottomup.min_ratio"] = metrics["bottomup.min_states"] / metrics["walking.behaviours"]
    return metrics


def code_digest():
    """Hash of the program's and the benchmark's sources: a record is only
    compared with a run of the same code."""
    h = hashlib.sha256()
    for root in (SRC / "treesep", HERE):
        for path in sorted(root.glob("*.py")):
            h.update(f"{path.parent.name}/{path.name}".encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "code": code_digest()}


def same_code_record(path):
    """The record at `path` if an earlier run of the same code and Python
    wrote it, else None."""
    if not path.exists():
        return None
    earlier = json.loads(path.read_text())
    here = environment()
    if any(earlier.get(key) != here[key] for key in ("python", "code")):
        return None
    return earlier


def compare_with_record(name, seed, trace, records, scale, metrics):
    """Compare op hashes and sizes with an earlier run of the same seed and
    the same code, then store this run's.  Sizes are deterministic, so any
    difference is a fault.  A record of other code is overwritten unread."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    ops = {str(op): {"hash": out.hash, "sizes": out.sizes, "error": out.error,
                     "seconds": dt * scale[op_id], "raw_seconds": dt}
           for op, op_id, _, dt, out in records}
    wrong = []
    earlier = same_code_record(path)
    if earlier is not None:
        for op, rec in earlier["ops"].items():
            if op not in ops:
                continue
            if rec["hash"] != ops[op]["hash"]:
                wrong.append(f"{name} op {op}: output hash {ops[op]['hash']} differs from "
                             f"{rec['hash']} in an earlier run of seed {seed}")
            if rec["sizes"] != ops[op]["sizes"]:
                wrong.append(f"{name} op {op}: sizes {ops[op]['sizes']} differ from "
                             f"{rec['sizes']} in an earlier run of seed {seed}")
    doc = {"workload": name, "seed": seed, "trace": int(trace), **environment(),
           "ops": ops, "metrics": metrics}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return wrong


def write_trace(name, seed, tracer, scale, net, metrics):
    """Spans and per-span self/inclusive totals, plus the tracing overhead
    against the untraced run of the same seed and code when there is one."""
    untraced = same_code_record(OUT / f"{name}-seed{seed}-trace0.json")
    overhead = None
    if untraced is not None:
        overhead = metrics["trace.busy_s"] / untraced["metrics"]["busy_s"] - 1
    totals = {span: {"self_s": own, "inclusive_s": total}
              for span, (own, total) in tracer.times("", scale, net).items()}
    doc = {"workload": name, "seed": seed, **environment(), "tracing_overhead": overhead,
           "totals": totals, "spans": tracer.spans}
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(doc))
    if overhead is not None:
        print(f"{name}: tracing overhead {overhead:+.1%} of busy_s", file=sys.stderr)


def report(result, summary):
    print(f"{summary['workload']} seed {summary['seed']}: {summary['passes']} pass(es) of "
          f"{summary['ops_per_pass']} ops, {summary['setup_reps']} set-ups, "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"{summary['failures_by_type'] or ''}", file=sys.stderr)
    print(f"  host speed {summary['host_speed']:.2f} of reference; unscaled busy_s "
          f"{summary['raw_busy_s']:.4g} s; peak RSS {summary['peak_rss_mb']:.0f} MB", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for msg in summary["wrong"][:20]:
        print(f"  WRONG: {msg}", file=sys.stderr)
    if len(summary["wrong"]) > 20:
        print(f"  ... {len(summary['wrong']) - 20} more", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="default: run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_each(args)
    pin_hash_seed(args)
    result, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def workload_argv(args, name):
    return [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def pin_hash_seed(args):
    """Re-execute this process, if need be, with a string hash seed drawn
    from --seed: dict and set layouts, and the times that depend on them,
    then repeat from run to run of one seed, and differ between seeds."""
    wanted = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = {**os.environ, "PYTHONHASHSEED": wanted}
        os.execve(sys.executable, workload_argv(args, args.workload), env)


def run_each(args):
    """Run every workload in a child process, one after another, and print
    each one's result line with its name.  Exit with the worst child code."""
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(workload_argv(args, name), stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if lines:
            print(json.dumps({"workload": name, **json.loads(lines[-1])}), flush=True)
        code = max(code, child.returncode if child.returncode >= 0 else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
