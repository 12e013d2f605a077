"""Golden CLI transcripts: byte-exact stdout and exit code per invocation.

Each case in golden/cases.json names a `kschur` argv, its exit code and
the file under golden/ that holds its exact stdout.  The transcripts are
the contract for refactors: a diff here is a changed output, to be
fixed in the code, not absorbed by re-recording.

    python tests/test_golden.py --record

writes the transcript of every case in CASES that has none yet; it
never overwrites an existing one.
"""

import json
import os
import random
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (id, argv); ids are the transcript file names
CASES = [
    ("cores-n4", "cores --n 4 --max-deg 5"),
    ("cores-n4-json", "cores --n 4 --max-deg 5 --json"),
    ("cores-n5-deg4", "cores --n 5 --deg 4"),
    ("cores-n5-deg4-json", "cores --n 5 --deg 4 --json"),
    ("strips-horizontal", "strips --n 4 --core 3,1,1 --kind horizontal --m 2"),
    ("strips-horizontal-json", "strips --n 4 --core 3,1,1 --kind horizontal --m 2 --json"),
    ("strips-horizontal-bounded-json", "strips --n 5 --bounded 3,2,1 --m 3 --json"),
    ("strips-strong", "strips --n 4 --core 3 --kind strong --to 4,1,1 --m 2"),
    ("strips-strong-json", "strips --n 4 --core 3 --kind strong --to 4,1,1 --m 2 --json"),
    ("strips-strong-n5-json", "strips --n 5 --core 2 --kind strong --to 3,1 --m 2 --json"),
    ("strips-ribbon", "strips --n 5 --bounded 4,2 --kind ribbon --r 3 --b 2"),
    ("strips-ribbon-json", "strips --n 5 --bounded 4,2 --kind ribbon --r 3 --b 2 --json"),
    ("abc-weight", "abc --n 6 --core 4,3 --weight 3,3,1"),
    ("abc-weight-json", "abc --n 6 --core 4,3 --weight 3,3,1 --json"),
    ("abc-all", "abc --n 4 --core 3,1,1"),
    ("abc-all-json", "abc --n 4 --core 3,1,1 --json"),
    ("abc-bounded-json", "abc --n 5 --bounded 2,2,1 --json"),
    ("abc-weight-composition", "abc --n 4 --core 3,1,1 --weight 1,2,1"),
    ("kf-table", "kf-table --n 4 --deg 4"),
    ("kf-table-json", "kf-table --n 4 --deg 4 --json"),
    ("kf-table-at-t", "kf-table --n 4 --deg 5 --at-t 1"),
    ("kf-table-at-t-json", "kf-table --n 4 --deg 5 --at-t 1 --json"),
    ("kf-table-weak", "kf-table --n 4 --deg 5 --weak"),
    ("kf-table-weak-json", "kf-table --n 4 --deg 5 --weak --json"),
    ("kf-table-weak-at-t", "kf-table --n 5 --deg 5 --weak --at-t 1"),
    ("kf-table-weak-at-t-json", "kf-table --n 5 --deg 5 --weak --at-t 1 --json"),
    ("expand-dualk", "expand --n 4 --basis dualk --core 3,1,1"),
    ("expand-dualk-json", "expand --n 4 --basis dualk --core 3,1,1 --json"),
    ("expand-dualk-t1-json", "expand --n 4 --basis dualk --core 3,1,1 --t1 --json"),
    ("expand-dualk-at-t-json", "expand --n 5 --basis dualk --bounded 3,2 --at-t 2 --json"),
    ("expand-k", "expand --n 4 --basis k --core 3,1,1"),
    ("expand-k-json", "expand --n 4 --basis k --core 3,1,1 --json"),
    ("expand-k-t1", "expand --n 5 --basis k --bounded 2,2,1 --t1"),
    ("expand-k-t1-json", "expand --n 5 --basis k --bounded 2,2,1 --t1 --json"),
    ("expand-k-at-t-json", "expand --n 5 --basis k --bounded 3,1 --at-t 1 --json"),
    ("expand-ptilde", "expand --n 4 --basis ptilde --bounded 2,1,1"),
    ("expand-ptilde-json", "expand --n 4 --basis ptilde --bounded 2,1,1 --json"),
    ("expand-ptilde-at-t-json", "expand --n 4 --basis ptilde --bounded 2,1,1 --at-t 1 --json"),
    ("expand-ptilde-laurent-at-t", "expand --n 4 --basis ptilde --bounded 2,1,1 --at-t 2"),
    ("expand-h0t", "expand --n 4 --basis h0t --bounded 2,1"),
    ("expand-h0t-json", "expand --n 4 --basis h0t --bounded 2,1 --json"),
    ("expand-h0t-t1-json", "expand --n 5 --basis h0t --bounded 3,1 --t1 --json"),
    ("expand-h0t-at-t-json", "expand --n 5 --basis h0t --bounded 3,1 --at-t 2 --json"),
    ("pieri", "pieri --n 4 --core 3,1,1 --m 1"),
    ("pieri-json", "pieri --n 4 --core 3,1,1 --m 1 --json"),
    ("pieri-bounded", "pieri --n 5 --bounded 2,1 --m 2"),
    ("pieri-bounded-json", "pieri --n 5 --bounded 2,1 --m 2 --json"),
    ("verify-prop-main-n4", "verify prop-main --n 4 --max-deg 5"),
    ("verify-prop-main-n5-json", "verify prop-main --n 5 --max-deg 4 --json"),
    ("verify-theta-n4", "verify theta-bijection --n 4 --max-deg 5"),
    ("verify-theta-n5-json", "verify theta-bijection --n 5 --max-deg 4 --json"),
    ("verify-affine-monk-n4", "verify affine-monk --n 4 --max-size 5"),
    ("verify-affine-monk-n5-json", "verify affine-monk --n 5 --max-size 4 --json"),
    ("verify-rect-pieri-n4", "verify rect-pieri --n 4 --max-size 4"),
    ("verify-rect-pieri-n5-json", "verify rect-pieri --n 5 --max-size 3 --json"),
    ("verify-rect-pieri-n7-counterexample", "verify rect-pieri --n 7 --max-size 10"),
    ("kf-table-deg7-json", "kf-table --n 4 --deg 7 --json"),
    ("kf-table-weak-n5-deg7-json", "kf-table --n 5 --deg 7 --weak --json"),
    ("expand-dualk-n5-deg8-json", "expand --n 5 --basis dualk --core 3,3,1,1,1,1 --json"),
    ("kf-table-deg9-json", "kf-table --n 4 --deg 9 --json"),
    ("kf-table-weak-n6-deg9-json", "kf-table --n 6 --deg 9 --weak --json"),
    ("expand-dualk-n4-deg9-json", "expand --n 4 --basis dualk --core 5,2,2,2,1,1,1 --json"),
    ("expand-dualk-n4-deg11-json", "expand --n 4 --basis dualk --bounded 3,3,3,2 --json"),
    ("expand-k-n5-deg9-json", "expand --n 5 --basis k --bounded 4,3,2 --json"),
    ("pieri-n7-bounded-json", "pieri --n 7 --bounded 4,3,1 --m 4 --json"),
    ("verify-prop-main-n7-json", "verify prop-main --n 7 --max-deg 8 --json"),
    ("strips-strong-n8-json", "strips --n 8 --core 4,3,1 --kind strong --to 6,3,2,1 --m 3 --json"),
    ("strips-ribbon-n8-json", "strips --n 8 --bounded 5,3,2,1 --kind ribbon --r 5 --b 3 --json"),
    ("abc-bounded-n8-json", "abc --n 8 --bounded 4,3,1 --json"),
    ("verify-affine-monk-n6-json", "verify affine-monk --n 6 --max-size 10 --json"),
    ("verify-rect-pieri-n6-json", "verify rect-pieri --n 6 --max-size 8 --json"),
    ("expand-dualk-n4-deg13-json", "expand --n 4 --basis dualk --bounded 3,3,3,2,1,1 --json"),
    ("expand-ptilde-n4-deg8-json", "expand --n 4 --basis ptilde --bounded 3,2,2,1 --json"),
    ("expand-k-at-t2-json", "expand --n 3 --basis k --bounded 2,1 --at-t 2 --json"),
    ("expand-k-laurent-at-t2", "expand --n 4 --basis k --core 3,1,1 --at-t 2"),
    ("expand-h0t-n5-deg9-json", "expand --n 5 --basis h0t --bounded 3,3,2,1 --json"),
    ("expand-ptilde-n5-deg10-json", "expand --n 5 --basis ptilde --bounded 3,3,2,1,1 --json"),
    ("expand-h0t-n6-deg15-json", "expand --n 6 --basis h0t --bounded 5,4,3,2,1 --json"),
    ("expand-ptilde-n7-deg16-json", "expand --n 7 --basis ptilde --bounded 6,4,3,2,1 --json"),
    ("strips-ribbon-n10-json", "strips --n 10 --bounded 4,4,1,1,1,1,1 --kind ribbon --r 4 --b 3 --json"),
    ("verify-rect-pieri-n8-counterexample", "verify rect-pieri --n 8 --max-size 11"),
    ("verify-rect-pieri-n8-size12-counterexample", "verify rect-pieri --n 8 --max-size 12"),
    ("verify-affine-monk-n8-json", "verify affine-monk --n 8 --max-size 12 --json"),
]


def _load_cases():
    path = os.path.join(GOLDEN, "cases.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)


def _transcript(case_id):
    with open(os.path.join(GOLDEN, case_id + ".out"), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["id"])
def test_golden_transcript(case, capsys):
    from kschur.cli import main

    code = main(case["argv"].split())
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == _transcript(case["id"])


def test_golden_transcripts_replay_twice_in_one_interpreter(capsys):
    # warm caches, the intern table and the parser's tables outlive each call: every case,
    # twice, in a seeded shuffled order, still prints its transcript and exits as recorded
    from kschur.cli import main

    cases = _load_cases() * 2
    random.Random(32).shuffle(cases)
    for case in cases:
        code = main(case["argv"].split())
        assert (code, capsys.readouterr().out) == (case["exit"], _transcript(case["id"])), case["id"]


def test_golden_cases_recorded():
    recorded = [(c["id"], c["argv"]) for c in _load_cases()]
    assert recorded == CASES


def _record():
    import contextlib
    import io

    from kschur.cli import main

    os.makedirs(GOLDEN, exist_ok=True)
    known = {c["id"]: c for c in _load_cases()}
    cases = []
    for case_id, argv in CASES:
        if case_id not in known:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv.split())
            with open(os.path.join(GOLDEN, case_id + ".out"), "x", encoding="utf-8", newline="") as fh:
                fh.write(buf.getvalue())
            known[case_id] = {"id": case_id, "argv": argv, "exit": code}
            print(f"recorded {case_id} (exit {code})")
        cases.append(known[case_id])
    with open(os.path.join(GOLDEN, "cases.json"), "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), "..", "src"))
    _record()
