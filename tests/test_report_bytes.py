"""Golden report bytes: every CLI report of a fixed run matrix, pinned.

For each case and format the test pins the sha256 of stdout, with the
wall-clock `timing` value replaced by 0, together with the stderr summary
and the exit code. The matrix covers every command: the catalog, analyze on
the equator and on the Cartan family (isoparametric and not), each identity
at the default height and at height 2 with two workers, the height-1 runs
that are refused, and one planted counterexample whose JSON cell the CSV
must quote. A refactor of the report code, of the sweeps or of the CLI that
moves a single byte of any of these fails here, naming the case.
"""

import hashlib
import itertools
import re

import pytest

from spherecurv import identities
from spherecurv.cli import main

_NAMES = ("dpsi", "g2", "g3", "i-closed", "i-sign", "recover", "vandermonde")

CASES = {
    "catalog": ["catalog"],
    "equator-w1": ["analyze", "--surface", "equator", "--samples", "60"],
    "equator-w2": ["analyze", "--surface", "equator", "--samples", "60", "--workers", "2"],
    "cartan-pi/8": ["analyze", "--surface", "cartan", "--t", "pi/8", "--samples", "24"],
    "cartan-0.785": ["analyze", "--surface", "cartan", "--t", "0.785", "--samples", "8"],
    **{name: ["verify", "--identity", name, "--trials", "150"] for name in _NAMES},
    **{
        f"{name}-h2-w2": ["verify", "--identity", name, "--trials", "60",
                          "--height", "2", "--workers", "2"]
        for name in _NAMES
    },
    **{
        f"{name}-h1": ["verify", "--identity", name, "--height", "1"]
        for name in ("dpsi", "i-closed", "i-sign", "vandermonde")
    },
    # g2's exact check fails from its third call on, as in the planted
    # identity tests, so trial 2 becomes the first counterexample.
    "g2-planted": ["verify", "--identity", "g2", "--trials", "4", "--seed", "7", "--height", "2"],
}

# case -> (stderr, exit code, {format: sha256 of stdout with timing 0})
GOLDEN = {
    "cartan-0.785": (
        "analyze cartan: 8 points, 0 projection failures, max|f1|=2.512e+03, verdict non_isoparametric [ok]\n",
        0,
        {"json": "ddcce1a8d77d4e5adfb82b8d976c6e6e66f96e443ce5bda364f678d1f666a34e",
         "csv": "a469fcae98cbe89c71799ea13c29e2ad7bac033dc104acc6ff752dea0885b548"},
    ),
    "cartan-pi/8": (
        "analyze cartan: 24 points, 0 projection failures, max|f1|=3.702e-12, verdict cartan [ok]\n",
        0,
        {"json": "9f2f5a4480f26cd5ad3c6db3a94be6cbb5915bcc857a07a629159e87aa1231ce",
         "csv": "b180ed84351c770220a9af386247db6b793fbb9fe4557bed2d7b1b2100611cf3"},
    ),
    "catalog": (
        "catalog equator: g=1 S=0 R=12 checks 9 [ok]\n"
        "catalog clifford_1_3: g=2 S=4 R=8 checks 9 [ok]\n"
        "catalog clifford_2_2: g=2 S=4 R=8 checks 9 [ok]\n"
        "catalog cartan: g=4 S=12 R=0 checks 9 [ok]\n",
        0,
        {"json": "c5731499dcee0243e3c18a243a3c2572df457efe6d50f959901d7d3c3332ac14",
         "csv": "9f7cbc9858e7542c68c5dc29b6fd1db1db7828cbe42495e6236a5045058ae95a"},
    ),
    "dpsi": (
        "verify dpsi: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "62f1106aabd6ad199f04b01975253bfcd971c6bedb258f9c6f6b03cf7ad0b1fc",
         "csv": "b3b0e01ef8e03b0c072434fd0c5b506156a50eacb5194ac9d146cf4c6e6d129b"},
    ),
    "dpsi-h1": (
        "error: identity 'dpsi' needs 4 distinct rationals; height 1 offers 3\n",
        2,
        {"json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "dpsi-h2-w2": (
        "verify dpsi: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "177960b08685121b63fda4d9138e93e234601e7e97c183937d5ef85394575668",
         "csv": "918d30fe48318623936202df0994e28ab57a1bad7d181f976a58321eade405d6"},
    ),
    "equator-w1": (
        "analyze equator: 60 points, 0 projection failures, max|f1|=3.421e-49, verdict equator [ok]\n",
        0,
        {"json": "73d54f7ee9ca0c7155e7b362b9b1e7a5f0b34c6f244b27efbdd7fa1a2029c5da",
         "csv": "62491c1e76e5c7573ae060c3b643c9408a90099509fa61b016b9f1c1cb6cdc6f"},
    ),
    "equator-w2": (
        "analyze equator: 60 points, 0 projection failures, max|f1|=3.421e-49, verdict equator [ok]\n",
        0,
        {"json": "9e8a74dea4024a738a8a594e8ccdbd8598739b440150f2aeedd3a318b3f7d4b9",
         "csv": "62491c1e76e5c7573ae060c3b643c9408a90099509fa61b016b9f1c1cb6cdc6f"},
    ),
    "g2": (
        "verify g2: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "ae50abd6a785a76053ea1519cda5e9011f2b00f403e4122450e053fcb54db681",
         "csv": "530f83720ba432a7809cc95434df6afa475853e0355e20c62b899b3d21847cf2"},
    ),
    "g2-h2-w2": (
        "verify g2: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "78dde9bcf66cc99f340492ff1f151433c140e90bea44398527291f9d6906e0e1",
         "csv": "97de45dd67410993df9214812afd193f1dadfac4a4f0ce5e4b730a97a7a4a658"},
    ),
    "g2-planted": (
        "verify g2: 4 trials (exact), 2 failures [FAIL]\n",
        3,
        {"json": "fc5253f814028e67d3dbba50e37f75438f99ddfc91903e01dc300bc7b6f77246",
         "csv": "3fe576effd4fa7cca0f92873341ee2a1fec53bf01881fbb162f83f3ff5de9c99"},
    ),
    "g3": (
        "verify g3: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "5cbd8b93dbc139b90496eb121f99d631b0bcf88cd0b9e12ab2bea7f8df21fcb4",
         "csv": "bbb6cd911a8c0affd0b480b20fb1acb88d5e3dc115f71cd470d1b8703bd09adf"},
    ),
    "g3-h2-w2": (
        "verify g3: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "1b77644a59669eaefd2089074ae7c962ef6e09d9df0e3034d0fa2182e5368e86",
         "csv": "8aaa806794a370a7de0f317a115e26713025a06cd56bc9fc68fea7d6609042c8"},
    ),
    "i-closed": (
        "verify i-closed: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "2b852bd7fb1c08b7c0e5fb1214cf4cd3edeeec59d39c2f12b2819f3de95250e0",
         "csv": "7d10e52ad42348d4cf49e6364377ba2fb009fbbbc68e7c06cd643feac0ecfcb0"},
    ),
    "i-closed-h1": (
        "error: identity 'i-closed' needs 4 distinct rationals; height 1 offers 3\n",
        2,
        {"json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "i-closed-h2-w2": (
        "verify i-closed: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "0d5b78f5fe8eea42637958ba0358e220ca750e29271ca5b1ba2a5ffc6d403de2",
         "csv": "97960cb9a986f34ececac2ef3b8c82ae04e2c948f7e2a56adf509e552ce61cbe"},
    ),
    "i-sign": (
        "verify i-sign: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "2bddaa4d96521f44a75000c34304293486a9131eb78284dedc64f16c2795bdee",
         "csv": "9c12a27b5b7953aca6b17552d9d65478f9a254a93b1d2ed10fcec78340bfb372"},
    ),
    "i-sign-h1": (
        "error: identity 'i-sign' needs 4 distinct rationals; height 1 offers 3\n",
        2,
        {"json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "i-sign-h2-w2": (
        "verify i-sign: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "3c032aafbb79db8a2f2033810dfc863816c07b87a40ff2317b67a0a1fa85ae6f",
         "csv": "bdd363fe31bdd9990c2c41efa70233cb668ffbadac5ffd854c1cd08c9e57add7"},
    ),
    "recover": (
        "verify recover: 150 trials (float), 0 failures [ok]\n",
        0,
        {"json": "38c7b909d5b475f00a1fd1e7baed16b7ddfa96ed0de8e769bf28e454796c0a73",
         "csv": "61af195084e056181c109f5cb4018b9037e7c5f0cf6329d467a3e84391d79af0"},
    ),
    "recover-h2-w2": (
        "verify recover: 60 trials (float), 0 failures [ok]\n",
        0,
        {"json": "23e191b47f2a20113b03b13d9592ec7b46efba83b0d2b35c2bab6867bb68fadf",
         "csv": "894b11cbd67a81dfadb80c0589e025db5839a44c5eecfac5e284f77a275efa6b"},
    ),
    "vandermonde": (
        "verify vandermonde: 150 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "c0ce562e2233be53ca99a515cf2484d45bbe000a48c3747393d5e9a6039ac412",
         "csv": "ca4d574e2be21b8f04e610668b09e8abf854667dcce52a19d3e666b7c535c9ff"},
    ),
    "vandermonde-h1": (
        "error: identity 'vandermonde' needs 4 distinct rationals; height 1 offers 3\n",
        2,
        {"json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "vandermonde-h2-w2": (
        "verify vandermonde: 60 trials (exact), 0 failures [ok]\n",
        0,
        {"json": "3620c7f73d6e44b6115ed6b1752cfe8b74089a3067701f53c09601ec34201b15",
         "csv": "2200e98aec30eb16e16045297b4d8ac8d61dbf53629c3af791ea2e6f1573af8e"},
    ),
}


def _run_case(case, fmt, capsys, monkeypatch):
    if case == "g2-planted":
        original = identities._g2_cleared
        calls = itertools.count()
        bad = (((1, 1), (-1, -1)), 1, 1, 1)
        monkeypatch.setattr(
            identities, "_g2_cleared",
            lambda *a, **k: bad if next(calls) >= 2 else original(*a, **k),
        )
    code = main(CASES[case] + ["--format", fmt])
    out, err = capsys.readouterr()
    out = re.sub(r'"timing": [-+0-9.eE]+', '"timing": 0', out)
    return err, code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, fmt, capsys, monkeypatch):
    err, code, digest = _run_case(case, fmt, capsys, monkeypatch)
    want_err, want_code, want_digests = GOLDEN[case]
    assert (err, code) == (want_err, want_code), case
    assert digest == want_digests[fmt], f"{case} {fmt}: report bytes changed"
