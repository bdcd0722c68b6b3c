"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
check; ``treedim verify all`` prints the same checks as a table.

Each test also compares the name, expected and observed strings of its
checks, all but the runtime ones, with ``verify_lines.json``: every check
is deterministic at ``DEFAULT_SEED``, so a changed string is a defect, not
a stream to re-pin.  ``python tests/test_acceptance.py`` rewrites the file;
regenerate it only on purpose, and record why in CHANGES.md.  A runtime
check's name and expected string are pinned in ``RUNTIME`` below; only the
form of its observed time is checked.
"""

import json
import re
from pathlib import Path

from treedim import verify

PINNED = Path(__file__).with_name("verify_lines.json")

RUNTIME = {
    "criterion_closed_forms": [["closed-form runtime < 1 s", "< 1 s"]],
    "criterion_constants_grid": [["constant grid runtime < 10 s", "< 10 s"]],
    "criterion_slater_oracle": [["oracle sweep runtime < 60 s", "< 60 s"]],
    "criterion_figure1": [["simulation runtime < 5 min", "< 300 s"]],
}


def pinned_lines(results):
    return [[r.name, r.expected, r.observed] for r in results if "runtime" not in r.name]


def runtime_lines(results):
    return [[r.name, r.expected] for r in results if "runtime" in r.name]


def report(criterion):
    results = criterion()
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"{mark} {r.name}: expected {r.expected}; observed {r.observed}"
        print(line)
        lines.append((r.passed, line))
    failed = [line for ok, line in lines if not ok]
    assert not failed, "\n".join(failed)
    assert pinned_lines(results) == json.loads(PINNED.read_text())[criterion.__name__]
    assert runtime_lines(results) == RUNTIME.get(criterion.__name__, [])
    for r in results:
        if "runtime" in r.name:
            assert re.fullmatch(r"\d+\.\d{3} s", r.observed), r.observed


def test_criterion_1_closed_form_constants():
    report(verify.criterion_closed_forms)


def test_criterion_2_constants_grid():
    report(verify.criterion_constants_grid)


def test_criterion_3_internal_consistency():
    report(verify.criterion_internal_consistency)


def test_criterion_4_slater_oracle_equivalence():
    report(verify.criterion_slater_oracle)


def test_criterion_5_decomposition_audit():
    report(verify.criterion_epsilon_audit)


def test_criterion_6_mean_md_matches_constants():
    report(verify.criterion_figure1)


def test_criterion_7_embedding_total_variation():
    report(verify.criterion_embedding_tv)


def test_criterion_8_increasing_rate_clock_tail():
    report(verify.criterion_h_tail)


def test_criterion_9_fringe_size_and_leaf_laws():
    report(verify.criterion_fringe_laws)


def test_criterion_10_conditional_probability_oracles():
    report(verify.criterion_conditional_oracles)


if __name__ == "__main__":
    criteria = [getattr(verify, name) for name in dir(verify) if name.startswith("criterion_")]
    pinned = {c.__name__: pinned_lines(c()) for c in criteria}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
