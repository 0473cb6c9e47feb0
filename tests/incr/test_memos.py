"""The stage layer's fingerprint memos hold no case or trace alive.

``case_fp`` and the trace content digest are memoised per live object
(:mod:`repro.incr.stages`).  Every sweep builds fresh cases and decodes
fresh traces, so a memo that kept its keys alive would grow by a
sweep's worth of objects each time a long-lived process swept again.
"""

from __future__ import annotations

import gc

from repro.harness.bench import run_bench
from repro.incr import stages


def _memo_sizes() -> tuple[int, int]:
    gc.collect()
    return len(stages._case_fp_memo), len(stages._trace_digest_memo)


def test_repeated_sweeps_leave_the_memos_no_larger(tmp_path):
    first = None
    for index in range(5):
        run_bench("fig9b", scale=40, jobs=1,
                  out_dir=str(tmp_path / f"sweep{index}"), compare=False)
        sizes = _memo_sizes()
        if first is None:
            first = sizes
        assert sizes[0] <= first[0] and sizes[1] <= first[1], (
            f"sweep {index}: memos {sizes} after {first}")


def test_an_entry_dies_with_its_object():
    from repro.workloads import get_workload

    case = get_workload("wc").build(scale=20)
    digest = stages.case_fp(case)
    assert stages._case_fp_memo[id(case)][1] == digest
    key = id(case)
    del case
    gc.collect()
    assert key not in stages._case_fp_memo
