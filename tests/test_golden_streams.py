"""Pinned data-file digests: a silent change of any random stream fails here.

Each run's `summary.json` and `rows.csv` must hash to the digests below at
`--jobs 1` and `--jobs 2`.  The digests were recorded before coupling traces
and samplers stopped re-validating their pool edges, a change that keeps
every draw; couple-932's before the exact laws came from a `PrefixTree`
instead of the listed empty-prefix family.  A change that does alter a
stream must say so in CHANGES.md and re-record the digests it moves.

A `sample` run's draws are in its edge files, not in its summary or rows,
so the `sample` pins also hash the edge files, concatenated in trial order.
The regular pins cover both routes of `sample_regular`: rejection at
(9,3,2) and the complement at (6,3,6), where d exceeds half the complete
degree 10.
"""

import hashlib

import pytest

from hypercouple.experiments import main

COUPLE_632 = ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
              "--trials", "200"]

GOLDEN = {
    "couple-632": (
        COUPLE_632,
        "c1ca9aec1825b76a1829d9d2d68a935837ce7cd1a68f60a395538462a3f7f398",
        "dfd4b2922549ee8c943e7ebc00b8a6cdcc279df87282570b0e29560e0fca13df"),
    "couple-632-traces": (
        COUPLE_632 + ["--emit-traces"],
        "c1ca9aec1825b76a1829d9d2d68a935837ce7cd1a68f60a395538462a3f7f398",
        "d73aca1838bc61cef16d5a0138e789890612f272fcfb6657a76ca75046bf8880"),
    "couple-632-mc-traces": (
        ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--p-mode", "mc:20", "--trials", "20", "--emit-traces"],
        "1873a67945861ebea7dc97009385d78323ee19085d19983ff6431d91dc335656",
        "d00eccf463de50cf10dad8ad9d14f62c6c3076dfefcf3e4ce330697226a6e7b9"),
    "couple-gnp-632": (
        ["couple-gnp", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--p", "0.1", "--trials", "200"],
        "95b4505f75000505a40e7c9a8c0417c1f32571945dd0019514933cdc98a2df19",
        "dfd4b2922549ee8c943e7ebc00b8a6cdcc279df87282570b0e29560e0fca13df"),
    "couple-733": (
        ["couple", "--n", "7", "--k", "3", "--d", "3",
         "--gamma", "0.5714285714285714", "--trials", "8"],
        "1675b4ade78d7046265549a67d6018e845c647d4ade5da0fc6272a2666b763cd",
        "9a3a7048eb7211e8361e0521c1dc0ad0c11123a6b800742ad0df6c40b791bdcf"),
    "couple-932": (
        ["couple", "--n", "9", "--k", "3", "--d", "2", "--gamma", "0.5",
         "--trials", "10"],
        "73a324f6f1a1dee3ea35655a2f3a7334d9dbc3f42b0f5f8ebc8fb0c67ae130ba",
        "1b0f72d8383557dda728fa4ecce0e031dc19b233ece9c455e528b4d0bfcc7e2b"),
    "process-60": (
        ["process-stats", "--n", "60", "--k", "3", "--d", "6",
         "--trials", "20"],
        "9a0a4301932fdebb716c6f59c9ffdfeac68a53f11b6a6ec3967a74022ceb2b18",
        "543a6c15aa0444ca802e8913181b93f1c9da8e1d87abd883a4b2d94f998d44f9"),
    "switching-932": (
        ["switching-verify", "--n", "9", "--k", "3", "--d", "2",
         "--switch-kind", "pair_degree", "--u", "1", "--v", "2",
         "--base", "3,4,5"],
        "bae84c78975c8af59710723837c435dcafa09cd709c753a793ebf7b4a63e14a4",
        "d418653244184231b6fb96015ad771a56d7633116c1e5306d1b7249a05ca0a9f"),
    "oracle-632": (
        ["oracle-dump", "--n", "6", "--k", "3", "--d", "2"],
        "320ed8c2baf27969d1ceed1a5e086301ded52d6b9ff4a75c8b1b18b0b09d067f",
        "379bfb7bdd51aad11dc52444092753f8fc8589c9ea95e4baa934f126b20785b9"),
    # p_hat(2) = 0.625 at seed 11, so a moved stream shows
    "hamilton-sweep": (
        ["hamilton-sweep", "--n", "8", "--k", "2", "--ell", "1",
         "--d-list", "2,3", "--trials", "8"],
        "63cb343b28ee52e6705bf5e653816de747b8bde4ea820c93ef1a0f544167f082",
        "f999df0cd680d196ab60e3493f5680e05496bb24125cdfa920d19b169c3925dd"),
}


SAMPLE = ["sample", "--trials", "20"]

SAMPLE_GOLDEN = {
    "sample-regular-932": (
        SAMPLE + ["--model", "regular", "--n", "9", "--k", "3", "--d", "2"],
        "0877980b5e606a9143462d8d6422602ff9ef8c456d269d351c1243bfdb3bb87a",
        "ef4cb21ea7a03439d86c401e5470e3e79a20a4451c5d3841ec0e3c80f5cab8f0",
        "edfa83626856515e51c0ff2d3f9873d31dc4f830ee4e6213dd3cbd5f0ed6e6ce"),
    "sample-regular-636-complement": (
        SAMPLE + ["--model", "regular", "--n", "6", "--k", "3", "--d", "6"],
        "68c8c18d0863f93e47f1f2d4bd184a1d97210154494b6f0408c890d2ec56f9b6",
        "b22bf3865ff2c95361c96ba2a06ec076c43cdc5f287048fa8fb53b785032fcf1",
        "4e3187f2f1308cf27c092f77550100f3fd26b2f543bdea04bcc3835673957b67"),
    "sample-gnm-93-12": (
        SAMPLE + ["--model", "gnm", "--n", "9", "--k", "3", "--m", "12"],
        "58e851bc70ea5b2887402a0bf186eaf341c9434377be697f921d1e98865b5b91",
        "b22bf3865ff2c95361c96ba2a06ec076c43cdc5f287048fa8fb53b785032fcf1",
        "f555a68f2ce6fc2ecadcf22018009f6a74c7bd7ad68d734e9d2b75197caf50ed"),
    "sample-gnp-93": (
        SAMPLE + ["--model", "gnp", "--n", "9", "--k", "3", "--p", "0.2"],
        "9f88115abba2c8aaeada0f3157c3366d0166fdbc4dab83393856fa8febd4e284",
        "6cab06b8283fa42a16370095cd2598786ad43cb3d3308d7c021b3f47ab6c2a59",
        "e97bf437a5442c87b5f1c32d18d4530d056d660cf97f3ff58f69eca9f9d9fd5b"),
}


def _run(name, argv, jobs, tmp_path, capsys):
    """The run's output directory, after running argv at seed 11."""
    out = tmp_path / name
    rc = main(argv + ["--seed", "11", "--jobs", str(jobs), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    return out


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_files_keep_their_digests(name, jobs, tmp_path, capsys):
    argv, summary, rows = GOLDEN[name]
    out = _run(name, argv, jobs, tmp_path, capsys)
    digests = {f: _digest(out / f) for f in ("summary.json", "rows.csv")}
    assert digests == {"summary.json": summary, "rows.csv": rows}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SAMPLE_GOLDEN))
def test_sample_files_keep_their_digests(name, jobs, tmp_path, capsys):
    argv, summary, rows, edges = SAMPLE_GOLDEN[name]
    out = _run(name, argv, jobs, tmp_path, capsys)
    edge_files = sorted(out.glob("sample_*.edges"))
    assert len(edge_files) == 20
    digests = {"summary.json": _digest(out / "summary.json"),
               "rows.csv": _digest(out / "rows.csv"),
               "edges": _digest(*edge_files)}
    assert digests == {"summary.json": summary, "rows.csv": rows,
                       "edges": edges}
