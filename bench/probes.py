"""Layer probes for the traced run: one run per module, metrics from spans.

Each probe calls into one layer of secant_trees under the tracer and turns the
spans it recorded into that layer's metrics.  The probes run without the
instrumentation of cross-module calls, so only the benchmark's own spans
perturb them.  A single call is spanned by the traced ``api``; a batch of
per-item calls (one word, one tree) is timed from ``raw`` under one span with
its item count, so the per-call cost of a span does not inflate a per-item
figure.  The probes reproduce the rows of the ROADMAP baseline table, and every
result is checked like the workloads' results.
"""

from __future__ import annotations

import os
import statistics
from collections import deque
from fractions import Fraction

from reference import Reference, word_tree_stats
from workloads import Checker, check_map_report

REPS = 3  # repeats of each millisecond-scale call; the median is reported
MAP_TWO_N = 10
CHECK_TWO_N = 10
MAX_POOL = 4


def _median_ms(tr, name: str, run: str, args: str | None = None) -> float:
    spans = tr.find(name, run, args)
    return statistics.median(s.own_ns for s in spans) / 1e6


def _per_item_ns(tr, name: str, run: str) -> float:
    (s,) = tr.find(name, run)
    return s.own_ns / s.count


def probe_trees(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    run = tr.run = "probe.trees"
    with tr.span("trees.alternating_permutations") as s:
        words11 = list(raw.alternating_permutations(11))
    s.count = len(words11)
    ck.op("alternating_permutations(11)", [(ref.trees(11), len(words11))], len(words11))
    out = {"trees.alternating_permutations.ns_per_word": _per_item_ns(tr, s.name, run)}
    with tr.span("trees.word_stats", count=len(words11)):
        deque(map(raw.word_stats, words11), 0)
    out["trees.word_stats.ns_per_word"] = _per_item_ns(tr, "trees.word_stats", run)
    sample = words11[:: len(words11) // 512]
    pairs = [(word_tree_stats(w), tuple(raw.word_stats(w))) for w in sample]
    ck.op("word_stats(n=11) sample", pairs)
    del words11

    words = list(raw.alternating_permutations(10))
    with tr.span("trees.tree_from_perm", count=len(words)):
        trees = list(map(raw.tree_from_perm, words))
    with tr.span("trees.IncTree.stats", count=len(trees)):
        stats = list(map(raw.IncTree.stats, trees))
    with tr.span("trees.IncTree.validate", count=len(trees)):
        rebuilt = [raw.IncTree(t.parent, t.left, t.right) for t in trees]
    ck.op(
        "trees of size 10",
        [(ref.trees(10), len(trees)), (list(map(raw.word_stats, words)), stats), (trees, rebuilt)],
        len(trees),
    )
    for key, name in (
        ("tree_from_perm", "trees.tree_from_perm"),
        ("stats", "trees.IncTree.stats"),
        ("validate", "trees.IncTree.validate"),
    ):
        out[f"trees.{key}.ns_per_tree"] = _per_item_ns(tr, name, run)
    return out


def probe_distributions(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    run = tr.run = "probe.distributions"
    brute = "distributions.joint_matrix_bruteforce"
    # The traced certify pass already ran serial brute force at 2n = 12 (and
    # checked it); its span is reused so the traced run stays short.
    reused = tr.find(brute, args="12, processes=1")
    serial = None if reused else api.joint_matrix_bruteforce(12, processes=1)
    s_serial = (reused or tr.find(brute, run))[0]

    # Never more workers than this process may run on.
    workers = min(len(os.sched_getaffinity(0)), MAX_POOL)
    before = os.times()
    pooled = api.joint_matrix_bruteforce(12, processes=workers)
    after = os.times()
    s_pooled = tr.find(brute, run)[-1]
    trees = pooled.total()
    pairs = [(ref.trees(12), trees)]
    if serial is not None:
        pairs.append((True, pooled.same_counts(serial)))
    ck.op(f"joint_matrix_bruteforce(12), serial and {workers} workers", pairs, trees)
    out = {
        "distributions.brute.ns_per_tree": s_serial.own_ns / trees,
        "distributions.brute.trees": trees,
        "distributions.brute.pooled_speedup": s_serial.own_ns / s_pooled.own_ns,
        "distributions.brute.pooled_cpu_s": sum(
            getattr(after, f) - getattr(before, f)
            for f in ("user", "system", "children_user", "children_system")
        ),
    }

    ent = api.ent_distribution(11)
    ck.op("ent_distribution(11)", [(tuple(ref.E[10]), ent)], ref.trees(11))
    out["distributions.ent_distribution.ns_per_word"] = (
        tr.find("distributions.ent_distribution", run)[0].own_ns / ref.trees(11)
    )

    M = raw.assemble(120)
    for _ in range(REPS):
        with tr.span("distributions.json_roundtrip"):
            back = raw.JointMatrix.from_json_dict(M.to_json_dict())
        ck.op("json round trip M_120", [(True, back.same_counts(M))], 0)
    out["distributions.json_roundtrip.ms"] = _median_ms(tr, "distributions.json_roundtrip", run)
    return out


def probe_recurrence(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    run = tr.run = "probe.recurrence"
    out = {}
    for two_n in (40, 80, 120):
        for _ in range(REPS):
            M = api.assemble(two_n)
            ck.op(f"assemble({two_n})", [(ref.trees(two_n), M.total())])
        ms = _median_ms(tr, "recurrence.assemble", run, repr(two_n))
        out[f"recurrence.assemble.ms.{two_n}"] = ms
    unknown = len(M.unknown_cells())
    out["recurrence.assemble.cells_known.120"] = 119 * 119 - unknown
    out["recurrence.assemble.cells_unknown.120"] = unknown
    for _ in range(REPS):
        tri = api.entringer_triangle(200)
        ck.op("entringer_triangle(200)", [(ref.triangle_row(200), tri.row(200))])
    out["recurrence.entringer_triangle.ms"] = _median_ms(tr, "recurrence.entringer_triangle", run)
    return out


def probe_series(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    run = tr.run = "probe.series"
    out = {}
    for order in (6, 8, 10, 12):
        for _ in range(REPS):
            w = api.omega(order)
            ck.op(f"omega({order}) at f_4(2,3)", [(1, w.egf_coefficient((0, 0, 0)))])
        out[f"series.omega.ms.{order}"] = _median_ms(tr, "series.omega", run, repr(order))
        if order == 10:
            w10 = w
    out["series.omega.terms.10"] = len(w10.coeffs)
    for _ in range(REPS):
        w1 = api.omega1(12)
    ck.op("omega1(12) at f_6(2,4)", [(3, w1.egf_coefficient((1, 1)))])
    out["series.omega1.ms.12"] = _median_ms(tr, "series.omega1", run)
    for p in range(1, 5):
        for _ in range(REPS):
            G = api.omega_p(p, 8)
        ck.op(f"pde_check(omega_p({p}, 8))", [(0, raw.pde_check(G))])
        out[f"series.omega_p.ms.{p}"] = _median_ms(tr, "series.omega_p", run, f"{p}, 8")

    c = raw.cos_linear((1, 1, 1), 10)
    for _ in range(REPS):
        with tr.span("series.TriSeries.mul"):
            c2 = c * c
        with tr.span("series.TriSeries.invert"):
            sec = c.invert()
    one = raw.TriSeries.constant(1, 3, 10)
    cos_sq = (raw.cos_linear((2, 2, 2), 10) + one).scale(Fraction(1, 2))
    ck.op("cos * sec == 1 and cos^2 == (1 + cos 2u) / 2", [(one, c * sec), (cos_sq, c2)])
    out["series.mul.ms"] = _median_ms(tr, "series.TriSeries.mul", run)
    out["series.invert.ms"] = _median_ms(tr, "series.TriSeries.invert", run)

    exps = [(i, j, q) for i in range(11) for j in range(11 - i) for q in range(11 - i - j)]
    with tr.span("series.TriSeries.egf_coefficient", count=REPS * len(exps)):
        for _ in range(REPS):
            got = [w10.egf_coefficient(e) for e in exps]
    ck.op("omega(10) symmetry", [(got[exps.index(e[::-1])], v) for e, v in zip(exps, got)])
    ns = _per_item_ns(tr, "series.TriSeries.egf_coefficient", run)
    out["series.egf_coefficient.us"] = ns / 1e3
    return out


def probe_bijections(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    tr.run = "probe.bijections"
    out = {}
    for name, verify in raw.MAP_VERIFIERS.items():
        with tr.span(f"bijections.verify_{name}") as s:
            rep = verify(MAP_TWO_N)
        check_map_report(rep, ref, ck)
        out[f"bijections.{name}.s"] = s.own_ns / 1e9
        out[f"bijections.{name}.useful_ratio"] = rep.domain / ref.trees(MAP_TWO_N)
    return out


def probe_cli(api, raw, tr, ref: Reference, ck: Checker) -> dict:
    run = tr.run = "probe.cli"
    out = {}
    for check in raw.ALL_CHECKS:
        report = api.run_checks(CHECK_TWO_N, (check,))
        ck.op(f"run_checks({CHECK_TWO_N}, ({check!r},))", [("pass", report.overall)])
        (s,) = tr.find("cli.run_checks", run, f"{CHECK_TWO_N}, {(check,)!r}")
        out[f"cli.check.{check}.s"] = s.own_ns / 1e9
    M = raw.assemble(120)
    for _ in range(REPS):
        text = api.render_matrix_text(M)
    ck.op("render_matrix_text(M_120)", [(f"E={M.total()}", text.split()[-1])])
    out["cli.render_matrix_text.ms"] = _median_ms(tr, "cli.render_matrix_text", run)
    return out


PROBES = (
    probe_trees,
    probe_distributions,
    probe_recurrence,
    probe_series,
    probe_bijections,
    probe_cli,
)
