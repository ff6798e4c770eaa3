"""Golden artifacts: fixed scenarios must keep producing the same bytes.

Criterion 9 compares two runs of the same code; this test compares a run
against sha256 digests recorded from an earlier version of the engine, so
a refactor that changes any share, handle number, counter or transcript
line shows up here.  Re-record only when a change to the artifacts is the
point of the change, never to make an engine refactor pass.  The two ncaa
cost reports were re-recorded when the report's CPU projection stopped
counting ncaa's both-stream formula twice; their only changed value is
``cpu.projected_seconds_formula``, which halved.  ``SWEEP`` pins 48
smaller scenarios the same way, refusals included; ``print_sweep_table``
prints it afresh, under the same rule.  Every naa cost report and
transcript here, and the naa ``PHASE_GOLDEN`` entries, were re-recorded
when naa's two streams came to share each round; every naa
``aggregates.csv`` and ``bundles.json`` kept its bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile
from dataclasses import asdict
from itertools import product

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
            "ddecb3a6188a87e0e37d3354548f50c8a91404fb460b0c64bc385696269056e9",
        "transcript.log":
            "5207e096447b74e711956be4a7eb0fd032471915ce238b5e7ae46b4941204fba",
    },
    "naa-72-failed": {
        "aggregates.csv":
            "975d7e5d49a11761f98e2177087ec3f5880c40f8294653e4ff38981d0774ea96",
        "bundles.json":
            "439743edb0f71bd6380a7097c48bc169fb5d0fffeb4a97dcc4da0c08e7ca2d34",
        "cost_report.json":
            "f9af44476af4d88fe862c1f357b745875a33ea9abc03d1a716c51d6d5d73b3f0",
        "transcript.log":
            "ddff5f924932ff5e1efa00aed67d01ecc2a4af95b665811d94e2b48ed37b0fde",
    },
    "naa-t2-faults": {
        "aggregates.csv":
            "bdb69bcbcee07a58e7663be3861c3d8d60ddfd7779873102d72f3abd37587491",
        "bundles.json":
            "c8d51ac753adf0d17e0b2784af9b5b0d68a0330fbe39b0ec18065aa686b02559",
        "cost_report.json":
            "3ea11103871b9de920d3c8ad5af15fd46ad8c7af4c9c16b5833a4af822cb5764",
        "transcript.log":
            "bb95ebfea86d64771b7f8b012eb51cb162edb6d729f1c7372d8facd94c0dc5ea",
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
        "78ebfaf2380dd9176e81b759c66c7a44391bed91500434de24fc98ca0ce208e8",
    "naa-72-failed":
        "e2488a05a40448eb4d86cbc8f75cc0cf94427bf988a63e44f78a204cbf3614dc",
    "naa-t2-faults":
        "c87ed40757d5f24860c1371fdb9b813623ac6cd722b2fe64ab3ce65b6da07601",
    "ncaa-73":
        "f897d3b0c1b88e8598470d29d323f0e9dda0efc3bf166687d5c23153e23aecfc",
    "ncaa-criterion9":
        "5d6a8535d0078095f497da0e3d854c40c62f810bf3a8c635e9902e89e43470b2",
    "niaa-faults-failed":
        "33329c5054f32cc6d83e3dd9c7143ebf3e05cafd17a6d3a91f302f890cc23942",
}

# sweep name (see ``sweep_scenarios``) -> ``sweep_entry``'s result
SWEEP = {
    'naa-31-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '927558975fe4f77f69bbc5ca47ee2a077354029b4b0fb5912fabc98735b30715',
        'bd210edaacadca05c68a5327ebbea6dd2a560e45f44c8315ac99d9243973656b',
    )),
    'naa-31-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'naa-31-rate0.2-all': (0, '', (
        '191b7c4b6bb224fcdd26c045c18d39611da082e5a15bae5798aff42f23c1bc36',
        '7b46fed6753943d01fc22d43c2586abcb9332b990b4481ea744ea7895fa3a5af',
        '1f3f60aca5405ded198d8143c4e89213735d9a47164fa5814886173fd4cb5bff',
        '9d5b79a17418ee807fc3ba64a0b8a0b905c9ff1ef08ec0b9f25072d649735993',
    )),
    'naa-31-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'naa-51-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '39350c5f144d1f3e41d6762453854e046045a4710fb2cacb0e34b64023b95a34',
        'a7495ee4b18c1ffc302311f3388f253af27b1598f288c94a0d8899e58a5564ec',
    )),
    'naa-51-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '3f278305964c51d4714c3e1a057c5973b5e5fb47cd0093deac2df0784f1eee7a',
        'f312b1b3287db161ed1ce9fc8be2e07e9668c279b3bbefa57a31ba353000a0cf',
    )),
    'naa-51-rate0.2-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'd7173d1dfd239f5ad768e77202e2645cc42b89b8fbcfdf566be83eb34f7b6b4f',
        '7a1830ac3413f155df0087329e28f8e232cdc920b064c4c34ee7367d42d4b18d',
    )),
    'naa-51-rate0.2-failed2': (0, '', (
        '186744a04818b7a3949d54b634dbaa43460372a82b7c75d20700589b26433a10',
        'a1d39a31b4e8bf5aa1204deb8ce361dfb849d92404569b552cce698da1563751',
        '53c77fa62db7749f9359528ec09a6fde691018ced186a888eb3505223b20f997',
        '92ba19674eaa07a12980f2d70f02cb104e62abcb16f651c05b77dfffa296dde3',
    )),
    'naa-52-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'c8277dfa9b308e45c48bae0ac5ebc30867e919438fafd39363ddb6d8f05d50b7',
        '5830d90cc83d0a75e3628973db2d6fb6e3971065acb00527f21a81098fbe1142',
    )),
    'naa-52-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'naa-52-rate0.2-all': (0, '', (
        '7ecffcfcd5ab1003b4623de3bf2a9906d6bfbc36e0fce9b29658f9bd8a1a2dd0',
        'b25d53f94dc6daffa99510e59e14d760c60a8e5e858c50f536845496c19774f2',
        '74a324d7385256612123fba2b579de61ea3d775de9d231ecc29c71b60e730779',
        'bff011b48d01f6ff861a35a247fd5e3f3a65f68c4a4a6e071a17450195c5b7b4',
    )),
    'naa-52-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'naa-73-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '02e436d8a0a93bda9c237e42e83d3202626845db52687f0dc0d827946155edab',
        'ab7ed049feb0ae31551bd74702f7ecc9ff85651fd4161a291fd3453bf35ec2de',
    )),
    'naa-73-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'naa-73-rate0.2-all': (0, '', (
        '2ab7acab013d68058baba61041589c4f785c236c90ecb70c5ce6227cec87e3e7',
        '491bbc7289f37ad0390b450b56f59fe4dd438e085cf3e5c9673ec2d8150c8d46',
        'a9bd359c74cd2d0b7599f0bf03f8a22d54b4aa64c64606a82207957d67b84e01',
        'aca0e5ce141bae088120d3a49271cb04b3bf41c4853e77da505de81fa36dfe2a',
    )),
    'naa-73-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'ncaa-31-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'bd787bdab34904a3d4b4d30ad00dfadb7102bf70910ab998ac52d048977d9ef4',
        '977e6583cb06d83e476dc7012dff4618ac727078645038aab9cf0a2e3282c049',
    )),
    'ncaa-31-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'ncaa-31-rate0.2-all': (0, '', (
        '191b7c4b6bb224fcdd26c045c18d39611da082e5a15bae5798aff42f23c1bc36',
        '7b46fed6753943d01fc22d43c2586abcb9332b990b4481ea744ea7895fa3a5af',
        '13dd89731dd6882b175b21c1f77c3216696b0b67e384117c30a062cf78a7dce8',
        'c8f850b3ae5e566210b8428a33a2a74d1385607adba66ab8b75339b30e33f7db',
    )),
    'ncaa-31-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'ncaa-51-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'ba4af18c8bb02c5f46ac0a230219254a292888d558f4f7b82d6b0f1e78ad7374',
        'bdc050be050361cb633051f5589d7d3b006ae776791e865a4732c9d798828f65',
    )),
    'ncaa-51-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '17ce48cee573609ef39d79f83de17b586877da7ee99113e2495e2d31465bb3d5',
        '7431d4c92acb116969752f5921df81796f60f8fc7dec3ff2054e1774c2f9b4d4',
    )),
    'ncaa-51-rate0.2-all': (0, '', (
        '7ecffcfcd5ab1003b4623de3bf2a9906d6bfbc36e0fce9b29658f9bd8a1a2dd0',
        'b25d53f94dc6daffa99510e59e14d760c60a8e5e858c50f536845496c19774f2',
        '246d303bce3bb667a4f584335878fac8f279820555f9e834ec109e61426472e9',
        '19a41d471e70d6feddc71897a9211f99e0d4a11bbe5b4399c214597f4e18daf2',
    )),
    'ncaa-51-rate0.2-failed2': (0, '', (
        'd556ddaa5b7211ef3b55ed8afa9c3cd0c06659d65ec746821e71b8595748357b',
        'f61174f2d2e0f8dd4333f23e434802ccff1f2274e204a782bb857916379555d3',
        'f98580e33365e92564fa94a6b2fd4b79b15a36fd037e94cdb8db80c65ba863ec',
        '9f6409be6aef1e4e1b785d5edc5b87e1bc9c6e433524f07a6483eb2a5e9ca61d',
    )),
    'ncaa-52-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'd06a6589305b4c5ffb4646b6cd7c5ea67759e6b4d02df11552a6e463bef51f7b',
        'ccd6108c4ac40e8ee0f0810cb8851b61a5825deff10a050c3bc568c54c61af26',
    )),
    'ncaa-52-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'ncaa-52-rate0.2-all': (0, '', (
        '7ecffcfcd5ab1003b4623de3bf2a9906d6bfbc36e0fce9b29658f9bd8a1a2dd0',
        'b25d53f94dc6daffa99510e59e14d760c60a8e5e858c50f536845496c19774f2',
        '902d5cd7542639bd48421d8253a35a11e02691f7d9859f8d39e03a3061a22f96',
        '9b55e1aeb9a1e7beaad44bfb5a7e1d44c772dd239f6b91407ab57036f7ae9c37',
    )),
    'ncaa-52-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'ncaa-73-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'a9c8973bf56fe0b703d398ed90001612fce522b42b0c18e1ec530de412af28a1',
        '72b0517757314e51869aa3304a4de26bd9600cbdc364da01fc3c261520f2a467',
    )),
    'ncaa-73-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'ncaa-73-rate0.2-all': (0, '', (
        '2ab7acab013d68058baba61041589c4f785c236c90ecb70c5ce6227cec87e3e7',
        '491bbc7289f37ad0390b450b56f59fe4dd438e085cf3e5c9673ec2d8150c8d46',
        '22b6e97e48dec3ae9a73f5690d25ee7b4a012b7b301c762be200854431552c60',
        '6674de64459243b4ae0eae77ad6b22814e3858fbf48f9da443998564696dc7b8',
    )),
    'ncaa-73-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'niaa-31-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '9788c160789c12bac66954bb085fc35ac2092cd3c41ebfc783a8d7624acf29d6',
        '44df8e6668ecbcb78d2c32c5d1897a04dd91ff23f4da9eccc7c2bf38ac838228',
    )),
    'niaa-31-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'f29d2ea13683b1d1138c305ed3eaf5713f51dde15ae11577bc7768671cfad796',
        '1dd0e1fb476bbd5ae1f6aee39c5409d37919bbe22a0e6e903e33eeee1de0542b',
    )),
    'niaa-31-rate0.2-all': (0, '', (
        '186744a04818b7a3949d54b634dbaa43460372a82b7c75d20700589b26433a10',
        'a1d39a31b4e8bf5aa1204deb8ce361dfb849d92404569b552cce698da1563751',
        'ebc6a8aa0df66727144a3ce7fbed84de73ca8cc3ff489b75fbfa377716c59718',
        '30a383d6634df9f8cfd578827347083190c888648c13cf5b7580759e38867913',
    )),
    'niaa-31-rate0.2-failed2': (0, '', (
        'e426c18044c7eef67fb65262cd1610745d2e86f999d8a25c8a9a0587b690b770',
        '680c4a8ff7b0d2e5285538abe05d4d8c5c8df6f73665790f64eb02e61dc1efc4',
        '1c584c9a99277bba1f32cbb83b6e6ede2b50e6f6126c64e2ec66644c17aa4df8',
        'dce268e5300281edfb97aa1049e7a48767b837ca3631be388e620ddead8cc515',
    )),
    'niaa-51-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '1784070e193bc22e4ab5bbbe8b7d0c8c04f501dfa0a3359e5f7cfd9cbf136c6a',
        '4ab6575fd705fd5fd2e0ef7edd2c4e6f9d384509a4960ef62ea4abdfb26ed436',
    )),
    'niaa-51-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'c3785d567e191a21ec71d6d0cd40e5a37c71e19343d52ad0d7a41ff1f2063998',
        '74c7f651cbab0bae24c0d7c31d4592ba6c59301c987c3e2965d17b1c65787ab5',
    )),
    'niaa-51-rate0.2-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'f292b4e63c42f33e5a3c14f4536557ba60756917ef7425b53e52e52f87d8baea',
        '80fa80bbe655b98b973236744b7993525779d7b5e4a7c3e0093043f6f8ccaf71',
    )),
    'niaa-51-rate0.2-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '52045b85a08c8a254e5913139aa5d9c5229c4af7020b57540642cbf63c9e3ae3',
        '3083a560c49b53c29a642bedb6e84c19080ee9839838f1dec8b81ee4f0c76de2',
    )),
    'niaa-52-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '3491252dbc3f3d0de5755edffcf7f6c92d5021c7035910475c87179137d6668f',
        '4ab6575fd705fd5fd2e0ef7edd2c4e6f9d384509a4960ef62ea4abdfb26ed436',
    )),
    'niaa-52-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '75a6c315b1977d6bfd3032caae1a4b1349e1c4c3c99fc3342e58c901d239fa7d',
        '74c7f651cbab0bae24c0d7c31d4592ba6c59301c987c3e2965d17b1c65787ab5',
    )),
    'niaa-52-rate0.2-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'f1ed6f1170040e8fb3646f9c1d6c3f4313b82e97a2661e1e12b7ac23e55393b7',
        '80fa80bbe655b98b973236744b7993525779d7b5e4a7c3e0093043f6f8ccaf71',
    )),
    'niaa-52-rate0.2-failed2': (0, '', (
        '186744a04818b7a3949d54b634dbaa43460372a82b7c75d20700589b26433a10',
        'a1d39a31b4e8bf5aa1204deb8ce361dfb849d92404569b552cce698da1563751',
        '676ddf13224b836737dfa09a97e1040cff45038ec2cf46e2046be2fbf42da80e',
        '381a075c2fcd364384b9c0d582330e9f6f690b933817b2485f09c09ad91efb9d',
    )),
    'niaa-73-rate0-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'c5203cb1ccd1bf37ab34a5fdeaa8d0d1644c96794b985fcd7b28b8a40078078c',
        '4852ddb009b2bf2df92fdf1d3f947c300030bf71cdcd1e467284129352bf5963',
    )),
    'niaa-73-rate0-failed2': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        'fbd9999c9d433bc0ea943395f23341484e9f3c3562f6bfc3610024e395312310',
        'cf63bbd83a50e39683e94670c9de9317f5765288bbd627dffc3050543640ffdf',
    )),
    'niaa-73-rate0.2-all': (0, '', (
        '1ee0ac3d0f19b7774f55f759589802cda8216d9fa67934d6191af640eba0ed11',
        '4a52b0da108a35bf7ea9fe4fe17ac7852620871fcb3c5a3b5dd4efa3bc9ea38b',
        '1db1c683e7459bca7cb251975335a9f3a7f3e7f7cd1e5229313a5d22066f21a1',
        'baf52f96bddd2210cccd8759e3a3ea144e61ffc8b59801b5bc0117b033752bf3',
    )),
    'niaa-73-rate0.2-failed2': (0, '', (
        '43bbe8200f929f448a67be9e3ca643531e6db5d746775600ec16fe6e9e213015',
        '9c77f4d0b260b6879af3586b63b786c2ef384c7021a9050f3934042a0bee33cd',
        '72f36a5c0627a6299a11b223d3b2a352cf34390448c2cd1b0605bd0a1fd77c95',
        '03e37b915654fafd78a3aaebf3f144cd20373eac4581f4a81019ab54483b6b88',
    )),
}


# The 48-scenario sweep: every algorithm at (3,1), (5,1), (5,2) and (7,3),
# with and without transport faults, with server 2 failed or not, on one
# small two-region shape.  It covers what the six goldens do not: (5,1) and
# (7,3), faults with a failed server for every algorithm, and the refusals'
# exit codes and messages.
SWEEP_SHAPE = dict(n_dno=2, n_suppliers=4, sm_per_region=[12, 9], sigma=6,
                   seed=31)
SWEEP_AXES = (("naa", "ncaa", "niaa"), ((3, 1), (5, 1), (5, 2), (7, 3)),
              (0, 0.2), ((), (2,)))


def sweep_scenarios() -> dict:
    """Sweep name -> scenario, e.g. ``naa-52-rate0.2-failed2``."""
    return {
        f"{alg}-{n}{t}-rate{rate}-{'failed2' if failed else 'all'}": dict(
            SWEEP_SHAPE, algorithm=alg, n_servers=n, threshold=t,
            fault_rate=rate, fail_servers=list(failed))
        for alg, (n, t), rate, failed in product(*SWEEP_AXES)
    }


def sweep_entry(tmp_path, scenario: dict) -> tuple:
    """``run --check --out`` on one scenario: (exit code, standard error,
    sha256 of each artifact in ARTIFACTS order, () when none is written)."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["run", "--scenario", str(path), "--check",
                         "--out", str(out)])
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ARTIFACTS) if out.exists() else ()
    return code, err.getvalue(), digests


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


@pytest.mark.parametrize("name", sorted(sweep_scenarios()))
def test_golden_sweep(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert sweep_entry(tmp_path, sweep_scenarios()[name]) == SWEEP[name]


def print_sweep_table() -> None:
    """Print ``SWEEP`` as recorded by the code on the path.

    Run ``PYTHONPATH=src python3 tests/test_golden.py`` and paste only the
    entries whose change is the point of the change, naming each in
    CHANGES.md; the rule of the goldens above holds for every entry.
    """
    os.environ.pop(cli.SEED_ENV, None)
    print("SWEEP = {")
    for name, scenario in sorted(sweep_scenarios().items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, err, digests = sweep_entry(pathlib.Path(tmp), scenario)
        if not digests:
            print(f"    {name!r}: (\n        {code}, {err!r},\n        ()),")
            continue
        print(f"    {name!r}: ({code}, {err!r}, (")
        for digest in digests:
            print(f"        {digest!r},")
        print("    )),")
    print("}")


if __name__ == "__main__":
    print_sweep_table()
