"""``tools/summary_digest.py`` on the benchmark's ``tiny`` grids."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "summary_digest.py"
_spec = importlib.util.spec_from_file_location("summary_digest", TOOL)
summary_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summary_digest)


def test_two_runs_of_the_tiny_grids_give_the_same_digests():
    for workload in summary_digest.workloads.WORKLOADS:
        hexdigest, count = summary_digest.digest(workload, 1, "tiny")
        assert count == len(summary_digest.workloads.build(workload, 1, "tiny")[0]) > 0
        assert len(hexdigest) == 64
        assert summary_digest.digest(workload, 1, "tiny") == (hexdigest, count), workload


def test_the_printout_has_one_line_per_workload_and_seed(capsys):
    assert summary_digest.main(["--workload", "kcert", "--seeds", "1", "2", "--scale", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines] == [["kcert", "seed=1"], ["kcert", "seed=2"]]
    assert all(ln.split()[2] == "cases=3" and ln.split()[3].startswith("sha256=") for ln in lines)


def test_the_cases_printout_has_one_line_per_case(capsys):
    args = ["--workload", "kcert", "--seeds", "1", "--scale", "tiny"]
    assert summary_digest.main(args + ["--cases"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [case.name for case in summary_digest.workloads.build("kcert", 1, "tiny")[0]]
    assert [ln.split()[:3] for ln in lines] == [["kcert", "seed=1", f"case={name}"] for name in names]
    assert len(names) == 3 and all(len(ln.split()[3]) == len("sha256=") + 64 for ln in lines)


# Digests of every workload's summaries.  The stream workloads' lines were last
# re-taken when the chain cover's matching became greedy plus augmentation: a
# different minimum cover, so different covers and counter widths, the same
# certificates.  A change to any value needs its reason in CHANGES.md.
PINNED = {
    "tiny": [
        "one-ins seed=1 cases=4 sha256=aed3fbe020966de8240907fe2a9f0121dcef73cde2612ee0caeff0d70f883aee",
        "one-ins seed=2 cases=4 sha256=aed3fbe020966de8240907fe2a9f0121dcef73cde2612ee0caeff0d70f883aee",
        "one-ins seed=3 cases=4 sha256=aed3fbe020966de8240907fe2a9f0121dcef73cde2612ee0caeff0d70f883aee",
        "one-turn seed=1 cases=2 sha256=a53de3bcc1025e6b240d53429b9c00ad93bc95882cc5b14cdc3fef22c8a18aa9",
        "one-turn seed=2 cases=2 sha256=f523504472bd3f9816920613a3781e62a3a9eff602576db5dea4980f08c40359",
        "one-turn seed=3 cases=2 sha256=a53de3bcc1025e6b240d53429b9c00ad93bc95882cc5b14cdc3fef22c8a18aa9",
        "kcert seed=1 cases=3 sha256=d9a2965cc70cd699d60d5407dc620f46b73ebd3ef1fd3117e2bd1da2fe506f3c",
        "kcert seed=2 cases=3 sha256=e8705cb8c0d065a5b0fda9a3b2878e76d1266d3c8a3cad38fa685703216e2c78",
        "kcert seed=3 cases=3 sha256=abfb65297e3a277a7bafdd8159d5263c681508f03c223b04f68b269c620263e2",
        "congest seed=1 cases=3 sha256=b5c8fc98a410253a2163f642b5150cc125d94fde69eaa860c7afbdf06038778e",
        "congest seed=2 cases=3 sha256=e5e777c73c0e86352decfc4a49638e3a463f6dd9c79224a170911c4444744ce8",
        "congest seed=3 cases=3 sha256=d60c507775ebd1fe9d20b7b87f7bc306200f4a59aa6b4e24939112d450378ed2",
    ],
    "full": [
        "one-ins seed=1 cases=12 sha256=a2d1e9fb97f8c2596533eb4363c4585eded1ae6c4892d5106e5430f7105d1b1f",
        "one-turn seed=1 cases=4 sha256=cbf01ac1f1d24ed08897c9e36490ffafee314424fdb4bfeb313bb9ff50ae172d",
        "kcert seed=1 cases=6 sha256=f67cc6be1aee7bb7c2b3f0a6a7c2732566539363b1f9475a9a0e2660b8ddefdb",
        "congest seed=1 cases=14 sha256=011528ace6f3ab1382f8029ae1226c3a6470ebec17869de5a207695f2151fd19",
    ],
}


def test_the_digests_are_pinned(capsys):
    for scale, seeds in (("tiny", ["1", "2", "3"]), ("full", ["1"])):
        assert summary_digest.main(["--seeds", *seeds, "--scale", scale]) == 0
        assert capsys.readouterr().out.splitlines() == PINNED[scale], scale
