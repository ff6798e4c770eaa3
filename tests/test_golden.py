"""Golden artifacts: fixed scenarios must keep producing the same bytes.

Criterion 9 compares two runs of the same code; this test compares a run
against sha256 digests recorded from an earlier version of the engine, so
a refactor that changes any share, handle number, counter or transcript
line shows up here.  Re-record only when a change to the artifacts is the
point of the change, never to make an engine refactor pass.  The two ncaa
cost reports were re-recorded when the report's CPU projection stopped
counting ncaa's both-stream formula twice; their only changed value is
``cpu.projected_seconds_formula``, which halved.  ``SWEEP`` pins 48
smaller scenarios the same way, refusals included.  ``PYTHONPATH=src
python3 tests/test_golden.py`` prints ``GOLDEN``, ``PHASE_GOLDEN`` and
``SWEEP`` afresh (``print_tables``), under the same rule.  Every naa
cost report and transcript here, and the naa ``PHASE_GOLDEN`` entries,
were re-recorded when naa's two streams came to share each round; every
naa ``aggregates.csv`` and ``bundles.json`` kept its bytes.  Every
``aggregates.csv`` and ``bundles.json`` here and in ``SWEEP``, the ncaa
cost reports and every ``PHASE_GOLDEN`` entry were re-recorded when meters
came to draw their suppliers and readings from one hash block each
instead of a seeded Mersenne Twister: the synthetic values are new, while
every transcript, counter and excluded meter is unchanged, and the ncaa
reports differ only in the per-supplier counts ``leakage`` lists.
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
            "d9cce8c1ef2ec13d86cf2ff541b3e1f07b434ca24d1baecaa1bc864179bd1e3c",
        "bundles.json":
            "651a7fcfff2646bcfb36c331d3ae13f69a7efa3d571ea06046411eea7531c46d",
        "cost_report.json":
            "ddecb3a6188a87e0e37d3354548f50c8a91404fb460b0c64bc385696269056e9",
        "transcript.log":
            "5207e096447b74e711956be4a7eb0fd032471915ce238b5e7ae46b4941204fba",
    },
    "naa-72-failed": {
        "aggregates.csv":
            "0f4b6a4d219f867f498632f36bdd1b54f07d1f8454a12e1ca4d12feaed5f9383",
        "bundles.json":
            "cdb84850aa657f152f0fb37d27321cdf2cf12135db5d06cc466f8c602e9fcbf3",
        "cost_report.json":
            "f9af44476af4d88fe862c1f357b745875a33ea9abc03d1a716c51d6d5d73b3f0",
        "transcript.log":
            "ddff5f924932ff5e1efa00aed67d01ecc2a4af95b665811d94e2b48ed37b0fde",
    },
    "naa-t2-faults": {
        "aggregates.csv":
            "32f0e1a4ac627cc8d4eeda863a66b9455f30027209e53897d48f042fa06fda08",
        "bundles.json":
            "453043360e3ad5321820232701044dd61605df05921998c14e13a7f0394f447d",
        "cost_report.json":
            "3ea11103871b9de920d3c8ad5af15fd46ad8c7af4c9c16b5833a4af822cb5764",
        "transcript.log":
            "bb95ebfea86d64771b7f8b012eb51cb162edb6d729f1c7372d8facd94c0dc5ea",
    },
    "ncaa-73": {
        "aggregates.csv":
            "71ba07c7ceb5fdd112e8ef99b974f3d2b7cb1c855dfacdda3237b0bf4d096ae7",
        "bundles.json":
            "5a99f10a9499406238f82025fa1b3cccbd2c2b9ad799f7a14005c57ec2c6edcb",
        "cost_report.json":
            "b3973c2cda2b8248b39770bd01b1f11a8a69ed45333f2374d743be7ef7d5bc84",
        "transcript.log":
            "5da63fb42d8ff16e2bd09e8e5316b37f47795836a93f9f4c8af6330f9d182828",
    },
    "ncaa-criterion9": {
        "aggregates.csv":
            "6954db9aec0525fa0d32b5e685cac5ef6788381cc9433fc85700feb3f1ee6c64",
        "bundles.json":
            "e640f24d49e0968b882c001d9801e6975f8ee15207da2d4cd0f3276127df5538",
        "cost_report.json":
            "dd90bd239cc342adf2360d2e81cca071d11c99994e9378e6444550d52d94d0b8",
        "transcript.log":
            "8e1fa9ed082af083f514469826f6beb8731a844665c155d997e36af1aae16a35",
    },
    "niaa-faults-failed": {
        "aggregates.csv":
            "09234952508f565df6d777c7616ab74a18994003bc4c8198089e6548a477c7bb",
        "bundles.json":
            "71cbcbce2c7fcb64219df03fc78702dc70c8cbeb3b89d13f10f5bd4b2d0627b6",
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
        "baeb139ac140b737c59705a69a1217946e0e94a286361432b79c886c4817f9c4",
    "naa-72-failed":
        "b92ac9bd51b26fc7604107928e9e792e568404465651c2c89c792451b8da2cf4",
    "naa-t2-faults":
        "574f81cc079a2c9b10b2a9cacf5611ad977fbb454e2506fcf6d52f9d630de0f4",
    "ncaa-73":
        "b3a1c3dae56fb331dc53133b95025be155ef7ce64c2bc526222d10a51710511b",
    "ncaa-criterion9":
        "f2601257d3024992252dec23b3000f2c526aeb5ed4f32efa2fa9d58b22c3765a",
    "niaa-faults-failed":
        "855877008010c72e6913f763f0946e78ac1a809eef5fd09155cf51c8fe45f85b",
}

# sweep name (see ``sweep_scenarios``) -> ``sweep_entry``'s result
SWEEP = {
    'naa-31-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '927558975fe4f77f69bbc5ca47ee2a077354029b4b0fb5912fabc98735b30715',
        'bd210edaacadca05c68a5327ebbea6dd2a560e45f44c8315ac99d9243973656b',
    )),
    'naa-31-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'naa-31-rate0.2-all': (0, '', (
        '94074e07db035645caf0f9144eb86f7c345f8364d719803673f0fdb16bd20ba7',
        '2e11f4fe1de65d9638a0602b1c44b5f3a445514252fd5972860bb771fcbea5e7',
        '1f3f60aca5405ded198d8143c4e89213735d9a47164fa5814886173fd4cb5bff',
        '9d5b79a17418ee807fc3ba64a0b8a0b905c9ff1ef08ec0b9f25072d649735993',
    )),
    'naa-31-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'naa-51-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '39350c5f144d1f3e41d6762453854e046045a4710fb2cacb0e34b64023b95a34',
        'a7495ee4b18c1ffc302311f3388f253af27b1598f288c94a0d8899e58a5564ec',
    )),
    'naa-51-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '3f278305964c51d4714c3e1a057c5973b5e5fb47cd0093deac2df0784f1eee7a',
        'f312b1b3287db161ed1ce9fc8be2e07e9668c279b3bbefa57a31ba353000a0cf',
    )),
    'naa-51-rate0.2-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'd7173d1dfd239f5ad768e77202e2645cc42b89b8fbcfdf566be83eb34f7b6b4f',
        '7a1830ac3413f155df0087329e28f8e232cdc920b064c4c34ee7367d42d4b18d',
    )),
    'naa-51-rate0.2-failed2': (0, '', (
        '585396cf87eb2e2c2a4bc28cfa1f8f0c2acb15d8f2c637a54a10c611648e4315',
        'fd2ec736035d1221c96a684d0ef50dd3d8bc437165faf490845d3180866af1fd',
        '53c77fa62db7749f9359528ec09a6fde691018ced186a888eb3505223b20f997',
        '92ba19674eaa07a12980f2d70f02cb104e62abcb16f651c05b77dfffa296dde3',
    )),
    'naa-52-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'c8277dfa9b308e45c48bae0ac5ebc30867e919438fafd39363ddb6d8f05d50b7',
        '5830d90cc83d0a75e3628973db2d6fb6e3971065acb00527f21a81098fbe1142',
    )),
    'naa-52-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'naa-52-rate0.2-all': (0, '', (
        'fbf4b09dda8d04da640b619cb4614b78824032c65100181afe9330aa018dca68',
        'c161e6502d4c50875507ca8ad9ab0bc5f08d2683f65b3ebd8b26338572515041',
        '74a324d7385256612123fba2b579de61ea3d775de9d231ecc29c71b60e730779',
        'bff011b48d01f6ff861a35a247fd5e3f3a65f68c4a4a6e071a17450195c5b7b4',
    )),
    'naa-52-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'naa-73-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '02e436d8a0a93bda9c237e42e83d3202626845db52687f0dc0d827946155edab',
        'ab7ed049feb0ae31551bd74702f7ecc9ff85651fd4161a291fd3453bf35ec2de',
    )),
    'naa-73-rate0-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'naa-73-rate0.2-all': (0, '', (
        '5293c767a2efdaf5946344b0849134e204fbb93c84f5c80b1e252fc7cad96ccc',
        '0ebc08392de2ddaf0d63cb4abca2700f19aad2e1e7d6cfd0b4bb3f04eadd9abc',
        'a9bd359c74cd2d0b7599f0bf03f8a22d54b4aa64c64606a82207957d67b84e01',
        'aca0e5ce141bae088120d3a49271cb04b3bf41c4853e77da505de81fa36dfe2a',
    )),
    'naa-73-rate0.2-failed2': (
        1, 'error: naa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'ncaa-31-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '8d850cd62c033d3c8eeff19c44195e745d18b4a5798ca64012654b670590afd3',
        '977e6583cb06d83e476dc7012dff4618ac727078645038aab9cf0a2e3282c049',
    )),
    'ncaa-31-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'ncaa-31-rate0.2-all': (0, '', (
        '94074e07db035645caf0f9144eb86f7c345f8364d719803673f0fdb16bd20ba7',
        '2e11f4fe1de65d9638a0602b1c44b5f3a445514252fd5972860bb771fcbea5e7',
        '1492cadd142feb769ebf36e8cc0a0864380f1c2ddf6038be3125662c699dd555',
        'c8f850b3ae5e566210b8428a33a2a74d1385607adba66ab8b75339b30e33f7db',
    )),
    'ncaa-31-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 2 remain\n',
        ()),
    'ncaa-51-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '6c9b925e879c58a7fe9c55179bb9ba214085247e1a5526d84755e965cb051be5',
        'bdc050be050361cb633051f5589d7d3b006ae776791e865a4732c9d798828f65',
    )),
    'ncaa-51-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '027eb1975d99377fc313e274d6af42ffb55c0c3cf49912a63370504f0b024ab4',
        '7431d4c92acb116969752f5921df81796f60f8fc7dec3ff2054e1774c2f9b4d4',
    )),
    'ncaa-51-rate0.2-all': (0, '', (
        'fbf4b09dda8d04da640b619cb4614b78824032c65100181afe9330aa018dca68',
        'c161e6502d4c50875507ca8ad9ab0bc5f08d2683f65b3ebd8b26338572515041',
        '6b8eb13b28cedc4e55f6063c004f8867699100905db56593874fe59c0e2fa638',
        '19a41d471e70d6feddc71897a9211f99e0d4a11bbe5b4399c214597f4e18daf2',
    )),
    'ncaa-51-rate0.2-failed2': (0, '', (
        'd1b159e82d1eaee817dd5c7e45269db97bbdd54103f2b7caae0a2c99094fba42',
        '36c5dcaba7d7f05ee4e7f453b63589f1472ad77c91535853a036397b5f9603a2',
        '4b49febbca590c72535f072ccbc1fdde465c7d9ea9990aaf3e942ae0c322c7c5',
        '9f6409be6aef1e4e1b785d5edc5b87e1bc9c6e433524f07a6483eb2a5e9ca61d',
    )),
    'ncaa-52-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '93442066e5bb1f96cb798415b10a82576442ea686a642f1039735babcb2cf8fd',
        'ccd6108c4ac40e8ee0f0810cb8851b61a5825deff10a050c3bc568c54c61af26',
    )),
    'ncaa-52-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'ncaa-52-rate0.2-all': (0, '', (
        'fbf4b09dda8d04da640b619cb4614b78824032c65100181afe9330aa018dca68',
        'c161e6502d4c50875507ca8ad9ab0bc5f08d2683f65b3ebd8b26338572515041',
        '7d8b25fced29b8c61798b4e6e160cd9459f99e73d5138bf92667a44c3eac6d87',
        '9b55e1aeb9a1e7beaad44bfb5a7e1d44c772dd239f6b91407ab57036f7ae9c37',
    )),
    'ncaa-52-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 4 remain\n',
        ()),
    'ncaa-73-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'b87d25802f3ef6c27666962c5c6662a260caf10abf3f24f01f7fb663206e448d',
        '72b0517757314e51869aa3304a4de26bd9600cbdc364da01fc3c261520f2a467',
    )),
    'ncaa-73-rate0-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'ncaa-73-rate0.2-all': (0, '', (
        '5293c767a2efdaf5946344b0849134e204fbb93c84f5c80b1e252fc7cad96ccc',
        '0ebc08392de2ddaf0d63cb4abca2700f19aad2e1e7d6cfd0b4bb3f04eadd9abc',
        '759f353b39ce4b7827afcafd27b0fb14aeeaf0d8f905efff301b10c40c9f6f35',
        '6674de64459243b4ae0eae77ad6b22814e3858fbf48f9da443998564696dc7b8',
    )),
    'ncaa-73-rate0.2-failed2': (
        1, 'error: ncaa multiplies and needs 2t+1 live servers, 6 remain\n',
        ()),
    'niaa-31-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '9788c160789c12bac66954bb085fc35ac2092cd3c41ebfc783a8d7624acf29d6',
        '44df8e6668ecbcb78d2c32c5d1897a04dd91ff23f4da9eccc7c2bf38ac838228',
    )),
    'niaa-31-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'f29d2ea13683b1d1138c305ed3eaf5713f51dde15ae11577bc7768671cfad796',
        '1dd0e1fb476bbd5ae1f6aee39c5409d37919bbe22a0e6e903e33eeee1de0542b',
    )),
    'niaa-31-rate0.2-all': (0, '', (
        '585396cf87eb2e2c2a4bc28cfa1f8f0c2acb15d8f2c637a54a10c611648e4315',
        'fd2ec736035d1221c96a684d0ef50dd3d8bc437165faf490845d3180866af1fd',
        'ebc6a8aa0df66727144a3ce7fbed84de73ca8cc3ff489b75fbfa377716c59718',
        '30a383d6634df9f8cfd578827347083190c888648c13cf5b7580759e38867913',
    )),
    'niaa-31-rate0.2-failed2': (0, '', (
        '87379e0ab81d6e5164e74e31da848032fbd335d497fb75033a95c77f9ddf0969',
        'a7721e959214379fc38675b4c829b2da4eba4dfeb47b2a20280baca534eab6a9',
        '1c584c9a99277bba1f32cbb83b6e6ede2b50e6f6126c64e2ec66644c17aa4df8',
        'dce268e5300281edfb97aa1049e7a48767b837ca3631be388e620ddead8cc515',
    )),
    'niaa-51-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '1784070e193bc22e4ab5bbbe8b7d0c8c04f501dfa0a3359e5f7cfd9cbf136c6a',
        '4ab6575fd705fd5fd2e0ef7edd2c4e6f9d384509a4960ef62ea4abdfb26ed436',
    )),
    'niaa-51-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'c3785d567e191a21ec71d6d0cd40e5a37c71e19343d52ad0d7a41ff1f2063998',
        '74c7f651cbab0bae24c0d7c31d4592ba6c59301c987c3e2965d17b1c65787ab5',
    )),
    'niaa-51-rate0.2-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'f292b4e63c42f33e5a3c14f4536557ba60756917ef7425b53e52e52f87d8baea',
        '80fa80bbe655b98b973236744b7993525779d7b5e4a7c3e0093043f6f8ccaf71',
    )),
    'niaa-51-rate0.2-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '52045b85a08c8a254e5913139aa5d9c5229c4af7020b57540642cbf63c9e3ae3',
        '3083a560c49b53c29a642bedb6e84c19080ee9839838f1dec8b81ee4f0c76de2',
    )),
    'niaa-52-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '3491252dbc3f3d0de5755edffcf7f6c92d5021c7035910475c87179137d6668f',
        '4ab6575fd705fd5fd2e0ef7edd2c4e6f9d384509a4960ef62ea4abdfb26ed436',
    )),
    'niaa-52-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '75a6c315b1977d6bfd3032caae1a4b1349e1c4c3c99fc3342e58c901d239fa7d',
        '74c7f651cbab0bae24c0d7c31d4592ba6c59301c987c3e2965d17b1c65787ab5',
    )),
    'niaa-52-rate0.2-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'f1ed6f1170040e8fb3646f9c1d6c3f4313b82e97a2661e1e12b7ac23e55393b7',
        '80fa80bbe655b98b973236744b7993525779d7b5e4a7c3e0093043f6f8ccaf71',
    )),
    'niaa-52-rate0.2-failed2': (0, '', (
        '585396cf87eb2e2c2a4bc28cfa1f8f0c2acb15d8f2c637a54a10c611648e4315',
        'fd2ec736035d1221c96a684d0ef50dd3d8bc437165faf490845d3180866af1fd',
        '676ddf13224b836737dfa09a97e1040cff45038ec2cf46e2046be2fbf42da80e',
        '381a075c2fcd364384b9c0d582330e9f6f690b933817b2485f09c09ad91efb9d',
    )),
    'niaa-73-rate0-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'c5203cb1ccd1bf37ab34a5fdeaa8d0d1644c96794b985fcd7b28b8a40078078c',
        '4852ddb009b2bf2df92fdf1d3f947c300030bf71cdcd1e467284129352bf5963',
    )),
    'niaa-73-rate0-failed2': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        'fbd9999c9d433bc0ea943395f23341484e9f3c3562f6bfc3610024e395312310',
        'cf63bbd83a50e39683e94670c9de9317f5765288bbd627dffc3050543640ffdf',
    )),
    'niaa-73-rate0.2-all': (0, '', (
        'ce8a2ed185de7e75e13ee7bc53651da6a743c06a6601a6b9433780129306b92a',
        '327f5ea54984e6feb3cdd8fc6043bf8c0e984e90b6d0cdbe4dd3a6b86250478f',
        '1db1c683e7459bca7cb251975335a9f3a7f3e7f7cd1e5229313a5d22066f21a1',
        'baf52f96bddd2210cccd8759e3a3ea144e61ffc8b59801b5bc0117b033752bf3',
    )),
    'niaa-73-rate0.2-failed2': (0, '', (
        '80bbb8bb4b0aefd37301cef6d8254c314257ab72132649ed5ff0d1aea09820fa',
        '13fb1e273c9157acd7955ab05825e86948b5cd9c79062121f811c202f974b961',
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


def phase_digest(scenario: dict) -> str:
    """``PHASE_GOLDEN``'s digest of one scenario's run."""
    run = cli.run_scenario(Scenario(**scenario), record_transcript=True)
    data = {
        "phases": [[label, asdict(pc)] for label, pc in run.meter.phases.items()],
        "opened_log": run.opened_log,
        "handle_samples": [sorted(s.items()) for s in run.handle_samples],
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_phase_counters(name):
    assert phase_digest(SCENARIOS[name]) == PHASE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(sweep_scenarios()))
def test_golden_sweep(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert sweep_entry(tmp_path, sweep_scenarios()[name]) == SWEEP[name]


def print_tables() -> None:
    """Print ``GOLDEN``, ``PHASE_GOLDEN`` and ``SWEEP`` as recorded by the
    code on the path.

    Run ``PYTHONPATH=src python3 tests/test_golden.py`` and paste only the
    entries whose change is the point of the change, naming each in
    CHANGES.md; the rule of the goldens above holds for every entry.
    """
    os.environ.pop(cli.SEED_ENV, None)
    print("GOLDEN = {")
    for name, scenario in sorted(SCENARIOS.items()):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            digests = artifact_digests(pathlib.Path(tmp), scenario)
        print(f'    "{name}": {{')
        for artifact, digest in digests.items():
            print(f'        "{artifact}":\n            "{digest}",')
        print("    },")
    print("}\n")
    print("PHASE_GOLDEN = {")
    for name, scenario in sorted(SCENARIOS.items()):
        print(f'    "{name}":\n        "{phase_digest(scenario)}",')
    print("}\n")
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
    print_tables()
