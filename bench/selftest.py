"""Self-test of the benchmark's checks: a corrupted result must count as a
failed operation, and the uncorrupted one must not.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import random
import types

from reference import Reference
from spans import NullTracer
from workloads import (
    CERTIFY_ROWS,
    Checker,
    check_map_report,
    check_matrix,
    check_verify_report,
    check_word,
)


def _failures(check) -> int:
    ck = Checker()
    with ck.guard("self-test case"):
        check(ck)
    return ck.failed


def self_test(raw) -> int:
    from secant_trees.cli import CheckRow, VerifyReport

    ref = Reference(16)
    cases = {}

    def report(bad_row: bool):
        rows = [
            CheckRow(check, f"2n={12 - 2 * i}")
            for check, n in CERTIFY_ROWS.items()
            for i in range(n)
        ]
        if bad_row:
            rows[7].failures.append({"check": rows[7].check, "expected": 0, "actual": 1})
        return VerifyReport(rows)

    cases["a failing verify row"] = [
        lambda ck, bad=bad: check_verify_report(report(bad), ref, 5, ck) for bad in (False, True)
    ]
    cases["a missing verify row"] = [
        lambda ck, bad=bad: check_verify_report(VerifyReport(report(False).rows[bad:]), ref, 5, ck)
        for bad in (False, True)
    ]

    good_map = raw.MAP_VERIFIERS["first_row_map"](6)
    bad_map = dataclasses.replace(good_map, covers_codomain=False)
    # to_json_dict omits covers_codomain, so it cannot tell the two apart.
    apart = bad_map.to_json_dict() != good_map.to_json_dict()
    print(f"to_json_dict tells the bijection reports apart: {apart}")
    cases["a bijection report that does not cover its codomain"] = [
        lambda ck, rep=rep: check_map_report(rep, ref, ck) for rep in (good_map, bad_map)
    ]

    engine = raw.RecurrenceEngine()
    good = engine.assemble(16)
    bad = raw.JointMatrix.from_json_dict(good.to_json_dict())
    bad.set(4, 9, bad.get(4, 9) + 1)
    cases["a matrix with one upper cell off by one"] = [
        lambda ck, M=M: check_matrix(M, engine.assemble(14), ref, ck) for M in (good, bad)
    ]

    wrong_stats = types.SimpleNamespace(**vars(raw))
    wrong_stats.word_stats = lambda w: raw.word_stats(w)._replace(pom=1)
    word = ref.sample_down_up(14, random.Random(0))
    cases["word_stats giving a wrong pom"] = [
        lambda ck, api=api: check_word(api, NullTracer(), word, ck) for api in (raw, wrong_stats)
    ]

    def crash(ck):
        raise RuntimeError("a crash inside an operation")

    cases["an operation that raises"] = [lambda ck: None, crash]

    ok = True
    for name, (good_case, bad_case) in cases.items():
        seen = (_failures(good_case), _failures(bad_case))
        passed = seen == (0, 1)
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: failures uncorrupted/corrupted = {seen}")
    print("self-test " + ("passed" if ok else "failed"))
    return 0 if ok else 1
