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


# Digests of every workload's summaries, taken before the one-pass prune kernel
# replaced the Digraph-based prune.  A change to any value needs its reason in
# CHANGES.md.
PINNED = {
    "tiny": [
        "one-ins seed=1 cases=4 sha256=806661fede2b3e11f217bdcbc457457c28573787abfaef63282cee923dd2bc9d",
        "one-ins seed=2 cases=4 sha256=806661fede2b3e11f217bdcbc457457c28573787abfaef63282cee923dd2bc9d",
        "one-ins seed=3 cases=4 sha256=806661fede2b3e11f217bdcbc457457c28573787abfaef63282cee923dd2bc9d",
        "one-turn seed=1 cases=2 sha256=d21d0d7152f4ec6f753f5a9023831945340ac0f19f54a38e2abafc8e7d94adff",
        "one-turn seed=2 cases=2 sha256=d21d0d7152f4ec6f753f5a9023831945340ac0f19f54a38e2abafc8e7d94adff",
        "one-turn seed=3 cases=2 sha256=eaf109b0c82fd700b0ae01e3cc98d87c424ea9b13ca4727ab13a390cf91a289d",
        "kcert seed=1 cases=3 sha256=d9a2965cc70cd699d60d5407dc620f46b73ebd3ef1fd3117e2bd1da2fe506f3c",
        "kcert seed=2 cases=3 sha256=8ea90960a05f1eec25a9332f0a7f3d0f063f8b724c9246216a15fb70eeaadb07",
        "kcert seed=3 cases=3 sha256=abfb65297e3a277a7bafdd8159d5263c681508f03c223b04f68b269c620263e2",
        "congest seed=1 cases=3 sha256=b5c8fc98a410253a2163f642b5150cc125d94fde69eaa860c7afbdf06038778e",
        "congest seed=2 cases=3 sha256=e5e777c73c0e86352decfc4a49638e3a463f6dd9c79224a170911c4444744ce8",
        "congest seed=3 cases=3 sha256=d60c507775ebd1fe9d20b7b87f7bc306200f4a59aa6b4e24939112d450378ed2",
    ],
    "full": [
        "one-ins seed=1 cases=12 sha256=bc200e961525a0f7def4c9081a4a8a9520eb9490c234866b8c819790406bc3f5",
        "one-turn seed=1 cases=4 sha256=6ec23c53d07c4f49bb47fc3c8b630f6131799f896f61205b8611c5db28f97f27",
        "kcert seed=1 cases=6 sha256=db3490fafaa5d35d1f5100f7c4b72cbf418e5270c22b8f1224037e952cdca41f",
        "congest seed=1 cases=14 sha256=011528ace6f3ab1382f8029ae1226c3a6470ebec17869de5a207695f2151fd19",
    ],
}


def test_the_digests_are_pinned(capsys):
    for scale, seeds in (("tiny", ["1", "2", "3"]), ("full", ["1"])):
        assert summary_digest.main(["--seeds", *seeds, "--scale", scale]) == 0
        assert capsys.readouterr().out.splitlines() == PINNED[scale], scale
