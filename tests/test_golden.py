"""Golden artifacts: fixed scenarios must keep producing the same bytes.

Criterion 9 compares two runs of the same code; this test compares a run
against sha256 digests recorded from an earlier version of the engine, so
a refactor that changes any share, handle number, counter or transcript
line shows up here.  Re-record only when a change to the artifacts is the
point of the change, never to make an engine refactor pass.  The two ncaa
cost reports were re-recorded when the report's CPU projection stopped
counting ncaa's both-stream formula twice; their only changed value is
``cpu.projected_seconds_formula``, which halved.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from metershare import cli
from metershare.metering import Scenario

ARTIFACTS = ("aggregates.csv", "bundles.json", "cost_report.json",
             "transcript.log")

SCENARIOS = {
    "naa-t2-faults": dict(
        n_dno=2, n_suppliers=10, sm_per_region=[30, 30], seed=7,
        n_servers=5, threshold=2, algorithm="naa", fault_rate=0.02),
    "ncaa-criterion9": dict(
        n_dno=2, n_suppliers=4, sm_per_region=[10, 8], seed=909, sigma=6,
        algorithm="ncaa", fault_rate=0.1),
    "naa-51-empty-region-failed": dict(
        n_dno=3, n_suppliers=4, sm_per_region=[20, 0, 7], seed=5, sigma=6,
        n_servers=5, threshold=1, algorithm="naa", fault_rate=0.05,
        fail_servers=[2]),
    "niaa-faults-failed": dict(
        n_dno=2, n_suppliers=5, sm_per_region=[25, 13], seed=11, sigma=6,
        algorithm="niaa", fault_rate=0.05, fail_servers=[3]),
    "ncaa-73": dict(
        n_dno=2, n_suppliers=3, sm_per_region=[6, 5], seed=12, sigma=5,
        n_servers=7, threshold=3, algorithm="ncaa"),
    "naa-72-failed": dict(
        n_dno=2, n_suppliers=4, sm_per_region=[9, 7], seed=13, sigma=6,
        n_servers=7, threshold=2, algorithm="naa", fail_servers=[1]),
}

GOLDEN = {
    "naa-51-empty-region-failed": {
        "aggregates.csv":
            "19c009e717b4bcd70ee77d769d8c034bdcce5218aa8a4e9b63b8f9d4984b4107",
        "bundles.json":
            "a3491c8d117fd87ce6435c6daf699b80e978cb783fe0e6ad2fa16110c958ca6a",
        "cost_report.json":
            "26b9a9ca5bd1e144973d523db73f014f2eed41105b6b628863453bea73c4ff54",
        "transcript.log":
            "2515b1ae99036e25cd6de1375d6d948159856f5973bc79a8f95f667d67635a88",
    },
    "naa-72-failed": {
        "aggregates.csv":
            "975d7e5d49a11761f98e2177087ec3f5880c40f8294653e4ff38981d0774ea96",
        "bundles.json":
            "439743edb0f71bd6380a7097c48bc169fb5d0fffeb4a97dcc4da0c08e7ca2d34",
        "cost_report.json":
            "b7866bfce70347932814dd8db49bf1cf78b50284072faae66da70270a9085c15",
        "transcript.log":
            "3d442ff5ed542a51bbc5635342146a931ef4c83bdf596948f3492491404eb995",
    },
    "naa-t2-faults": {
        "aggregates.csv":
            "bdb69bcbcee07a58e7663be3861c3d8d60ddfd7779873102d72f3abd37587491",
        "bundles.json":
            "c8d51ac753adf0d17e0b2784af9b5b0d68a0330fbe39b0ec18065aa686b02559",
        "cost_report.json":
            "ca89740a38d5d6e958dc02261025b3368cbf940462779598532f70063325a2c8",
        "transcript.log":
            "cfd73708853250069b6560d491c9c2a99cbe0525e252b14b22991ae323cfe38e",
    },
    "ncaa-73": {
        "aggregates.csv":
            "f074418cf24716b4473fc70ef1e60f1368752e112ed5e96ff8d2f8ddc9c3739b",
        "bundles.json":
            "9c056a13dc5056ce91a0190da18c7db18392422bb53ec111e18bd4e2e6907b1d",
        "cost_report.json":
            "885eb47321e9597fb90a3fdebdb57e8131d1f594f9a5971a79e70afa10c9368a",
        "transcript.log":
            "5da63fb42d8ff16e2bd09e8e5316b37f47795836a93f9f4c8af6330f9d182828",
    },
    "ncaa-criterion9": {
        "aggregates.csv":
            "9919110efaa7ddf73073e660d56b909d8a4c5b64634d54c81e58fe110e63505e",
        "bundles.json":
            "901624a66acc3ce853cdd8bf1a0d11ef7e84378e444adfcda45b9a5d084f6ede",
        "cost_report.json":
            "0b9a8e86cf9c07b6cc37d70ddcb09ccc21fb9c0fe1f4551f99287c40a0986bc9",
        "transcript.log":
            "8e1fa9ed082af083f514469826f6beb8731a844665c155d997e36af1aae16a35",
    },
    "niaa-faults-failed": {
        "aggregates.csv":
            "f9f83032275711d71b215341c2e707e78381fcf764995ad26820530bbf3b5dcf",
        "bundles.json":
            "6291f88a5efd89da720b8e157cad5793f018f2f7cfb9c3efa05b991b85aa4ad5",
        "cost_report.json":
            "1e8aed7850e28e1f8194995fcb8974bea05822d7c00102714c0f84afb8388113",
        "transcript.log":
            "4fa464766f0500cb4c84d71a3af1c0b52dde71a3e1aabf7be954c6492e4ffa1e",
    },
}

# sha256 of what no artifact holds: every per-phase CostMeter bucket (label
# and all counters, in bucket order), the opened values and the handle
# samples of the same six runs
PHASE_GOLDEN = {
    "naa-51-empty-region-failed":
        "01bc1b9116815c9a40ab8d530bf5f6bd20603cf3100c0cdf24db21d112903e53",
    "naa-72-failed":
        "f793a8de07ffa2d42d008fb49604ab2ec42920237fe0898f8b303e10483a2545",
    "naa-t2-faults":
        "9554d04829840f1d76f163bd06f7180f24acf2d31fa185adf35049e695502261",
    "ncaa-73":
        "f897d3b0c1b88e8598470d29d323f0e9dda0efc3bf166687d5c23153e23aecfc",
    "ncaa-criterion9":
        "5d6a8535d0078095f497da0e3d854c40c62f810bf3a8c635e9902e89e43470b2",
    "niaa-faults-failed":
        "33329c5054f32cc6d83e3dd9c7143ebf3e05cafd17a6d3a91f302f890cc23942",
}


def artifact_digests(tmp_path, scenario: dict) -> dict:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_artifacts(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert artifact_digests(tmp_path, SCENARIOS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_phase_counters(name):
    run = cli.run_scenario(Scenario(**SCENARIOS[name]), record_transcript=True)
    data = {
        "phases": [[label, asdict(pc)] for label, pc in run.meter.phases.items()],
        "opened_log": run.opened_log,
        "handle_samples": [sorted(s.items()) for s in run.handle_samples],
    }
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == PHASE_GOLDEN[name]
