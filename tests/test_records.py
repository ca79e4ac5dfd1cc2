"""Every record of the corpus replays byte for byte.

`tests/data/cli_records.jsonl` holds the argv, exit status, stdout,
stderr and ``--out`` text of each job that `cli_records.py` lists.
Each job runs again in this process, and the first one whose output
differs is shown with a diff of the part that changed.  A change that
is meant to change records rewrites the corpus with `cli_records.py`
and names each changed job in CHANGES.md.
"""

import difflib
import json

from cli_records import CORPUS, ROOT, record


def _diff(want, got):
    lines = []
    for key in ("status", "stdout", "stderr", "out"):
        if want.get(key) != got.get(key):
            lines += difflib.unified_diff(
                str(want.get(key)).splitlines(),
                str(got.get(key)).splitlines(),
                "recorded " + key, "replayed " + key, lineterm="", n=2)
    return "\n".join(lines)


def test_every_record_replays_byte_for_byte(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    records = [json.loads(line) for line in
               (ROOT / CORPUS).read_text().splitlines()]
    assert len(records) > 400
    out_path = str(tmp_path / "out")
    for i, want in enumerate(records):
        got = record(want["argv"], out_path)
        assert got == want, "record %d, argv %r differs:\n%s" % (
            i + 1, want["argv"], _diff(want, got))


def test_the_corpus_covers_every_verb_flag_and_exit_status():
    records = [json.loads(line) for line in
               (ROOT / CORPUS).read_text().splitlines()]
    verbs = {r["argv"][0] for r in records if r["argv"]}
    assert verbs >= {"theta", "quotient", "replicable", "identify",
                     "doubling", "character", "verify", "scan"}
    flags = {a for r in records for a in r["argv"]}
    assert flags >= {"--table", "--out", "--group-file", "--flavor",
                     "plain", "super0", "super1"}
    assert {r["status"] for r in records} == {0, 1, 2, 3, 4}
