"""The checked-in output gate (tools/golden.py): its default mode fails on
a flipped verdict or a 1e-6 change to a residual, its exact mode on any
byte, and a corpus command run on this tree matches its record."""
import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import golden  # noqa: E402

CORPUS = golden.load()


def _first(kind):
    return next(c for c in CORPUS["commands"] if c["argv"][0] == kind)


def _mutated(entry, edit):
    doc = json.loads(entry["stdout"])
    edit(doc)
    out = copy.deepcopy(entry)
    out["stdout"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return out


def test_corpus_is_the_generated_command_list():
    assert [c["argv"] for c in CORPUS["commands"]] == golden.commands()
    assert len(CORPUS["commands"]) == 144
    assert 0 <= CORPUS["rtol"] < 1e-6


def test_unchanged_output_passes_both_modes():
    rec = _first("report")
    assert golden.compare(rec, copy.deepcopy(rec), CORPUS["rtol"]) == []
    assert golden.compare(rec, copy.deepcopy(rec), CORPUS["rtol"],
                          exact=True) == []


def test_flipped_verdict_fails_check():
    rec = _first("report")

    def flip(doc):
        doc["verdicts"]["umbilic"] = not doc["verdicts"]["umbilic"]
    was = json.loads(rec["stdout"])["verdicts"]["umbilic"]
    diffs = golden.compare(rec, _mutated(rec, flip), CORPUS["rtol"])
    assert diffs == [f"stdout.verdicts.umbilic: {was!r} -> {not was!r}"]


@pytest.mark.parametrize("kind,path", [
    ("report", ("per_sample", 0, "gcr", 0)),
    ("invariance", ("residuals", 1, "schouten_trans")),
    ("scan", ("L_residuals", 0))])
def test_residual_change_of_1e_6_fails_check(kind, path):
    rec = _first(kind)

    def bump(doc, delta):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] += delta
    assert golden.compare(rec, _mutated(rec, lambda d: bump(d, 1e-6)),
                          CORPUS["rtol"])
    # within the measured tolerance only the exact mode sees a change
    small = _mutated(rec, lambda d: bump(d, 0.5 * CORPUS["rtol"]))
    assert golden.compare(rec, small, CORPUS["rtol"]) == []
    assert golden.compare(rec, small, CORPUS["rtol"], exact=True)


def test_csv_digest_and_exit_code_are_compared():
    rec = next(c for c in CORPUS["commands"] if c["csv"] is not None)
    other = copy.deepcopy(rec)
    other["csv"]["sha256"] = "0" * 64
    assert golden.compare(rec, other, CORPUS["rtol"]) == []
    assert golden.compare(rec, other, CORPUS["rtol"], exact=True)
    other["csv"]["rows"] += 1
    other["exit"] = 2
    assert len(golden.compare(rec, other, CORPUS["rtol"])) == 2


def test_corpus_commands_match_on_this_tree():
    """A circle with its CSV and the degenerate scan, in the default mode.

    Under ``OPENBLAS_CORETYPE`` Zen, Haswell, Excavator, Sandybridge,
    Barcelona, Nehalem, Core2 and Prescott the circle's stdout bytes and
    CSV digest differ from the corpus's (recorded under the host's default
    SkylakeX-class kernel) while the scan's do not; both stay within the
    corpus's ``rtol``, which is the largest spread ``golden.py spread``
    measured over those kernels.  So this compares floats to ``rtol`` and
    the CSV by its row count; ``golden.py check --exact`` is the byte gate
    on one host."""
    circle = next(c for c in CORPUS["commands"] if c["csv"] is not None)
    scan = next(c for c in CORPUS["commands"]
                if "special_conformal" in " ".join(c["argv"]))
    for rec in (circle, scan):
        assert golden.compare(rec, golden.run(rec["argv"]),
                              CORPUS["rtol"]) == []
