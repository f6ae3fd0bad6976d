"""The field pipeline, pinned byte for byte: one sha256 per field over its
kind, its table and its plan, each coefficient with its type, and the
source of its generated eval1 and eval2. The digests were computed before
the tables were built on fields.Poly."""

import hashlib
import random
from fractions import Fraction

import pytest

from spherecurv import ScalarField, cartan_field, coordinate_field, fields, polynomial_field


def _random_field(seed: int) -> ScalarField:
    """Up to 8 terms, each coefficient an int or a Fraction, some 0."""
    rnd = random.Random(seed)
    coeffs = {}
    for _ in range(rnd.randint(1, 8)):
        exps = tuple(rnd.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(6))
        num = rnd.randint(-9, 9)
        coeffs[exps] = Fraction(num, rnd.randint(1, 4)) if rnd.random() < 0.5 else num
    return polynomial_field(coeffs)


FIELDS = {
    **{f"coordinate-{i}": (lambda i=i: coordinate_field(i)) for i in range(6)},
    "cartan": cartan_field,
    # a table given directly, whose float coefficients stay floats
    "float-table": lambda: ScalarField(fields.POLYNOMIAL, (((0,) * 6, 0.5), ((2, 0, 1, 0, 0, 0), -1.0))),
    **{f"random-{seed}": (lambda seed=seed: _random_field(seed)) for seed in range(40)},
}


def _typed(cs) -> list:
    return [(type(c).__name__, str(c)) for c in cs]


# in the order of FIELDS, two to a line
GOLDEN = dict(zip(FIELDS, """
031566b3280594a5cb4f36cb6a3d8fba6ba12e55fbe1aeeb04d8b96ee856be35 c908ddb5aa56361b1b467813a73c27cbc11fd57d575842dc53031d5a5ec45d72
bd7ac6c4675b8d3d078873ff8f6fcce8f4e0805f60b0ed2f90003a4f262eb2e2 ddcf0df87e451ba440c4c64d6dad919e5310b8b58aaf9374fe96dca718d2f617
b35f80d461895f855f05b62bc25c64832f69f67673b9df80925a77cf869d63ad ebaaba2cad793070a334d4ebc49e4682c991bf0d0f561c03a487862a700538c6
d8ec586483940baa5dec9f6c17d025891c0457c0b1fa68eeb08d723831002c09 6ad7a391df8395a8a54d94545ffe64b1097493be705ff592aaf21240c817baa6
6412d2e05f8ff5ccb9760c1d3907fc34eafef512801b61463a6bb94933f654ff b54f29250b8a3929aa67113ee7e3f10f148e55d5ca2716ad22fd17470ff4641f
e7c376b927396f30251015f25f29de06acf4c99d81fd5be0a6d0525d0c2bfedd ab868b3ab388161e288f3080f807f02393301a74cddf9560bef641e42c2281b1
3949c001bce32ec6477d363cd96e6174faa65d589035a87f353ccb358bf59249 d502b1c138f59f39a86c819476d23c887bcf39d081ab57e1c01c30a0a184f41c
1e303614a82f91b7c9a3437bf7a5130e1ede63aaae2282403e77cae70bb79071 65a380af4f4605723fbe150607b110a012be9d2adee90db61b69fdad311d9152
f9a6390296b9ff80e9278cc5947b7fc64fb387cca468490cdddcd40706f423c1 9ddae472d97b3c459840badf29b5c12b090d25ac5c63c38e2c21a2d9d9588566
6521467bb145a27ce24f305744d9bbd0d18f1c7a3f19c36d5a76b45e44785fb2 33c3399dae4431db0f6f8c5dd689ce41c9482e876f4b4a5719e25df9fc4cc1ce
f3984361921e7cd6a7382268ae7883bedf0da5dc3ecefb7941c65bc3d7767e2d 48f3fac26dfce5e19f1f9a1425f49ca13abeb623aca1c868943a6f45df4e363c
296e53da4b88e8dbcb60cfa0c12e81522972a06e45188beae90d2ad1cc7f50c0 ccd17d6a35243886cf45554e0a2d3535cf8e39e8ebf18ca8456d761ca1511da7
3b9c54ca785d7f16229011545a01703a8ccc5aafe21d31b309acdac4a83e3731 3143113eab92e7c93d87b86dc1e33ec7f930111831e0edf6fdfe6a665bf72ea3
5585b49adda87d201e187f4334c4c4c5326cb51dc7364e762e31a8d151499e08 7d76b72b8f388af4e5f029a427d858b2b1f06ec2bb95cc91ad73ab0e0c12acf7
c5cf5d1a2efb1c1fe708fe947b0c856e9de2daa462b4fc4a75bd005e47d7c8c7 18a7a5e32fd1e76431ef884a0dfcd0b302ae15f42f41f146bc58ef7c583a2418
40a6dd20bdbfad4390044dd056c7e6b07017d947a06cd491262699406817d54b 79a8ab1783b634fa35f1c75f2c02d80994fd877122d45b3d1a726e8904f3417e
438f7d2f67773afbb1e84576fee7c96e46e5bd3494ffde60a2ee4cf7aa3f5c4c 0836254e072c5ec240d22a0835c896837c018e6aa406eeeacd623cda3f32bbcf
41273130833d0b51b023d56f60772da6a19472d6061894aef79b18783ba438ce 9d5f3ae83f5f6ffe8cf08483fb4543cab65c639f864d163aa8b01c0248284146
8bb3230fbd187963ed40fdd1f1bfe53d7e6a4afcb936a9f8565761c624e64e97 105a1024ad36c2963a28ecc01699b68277cfdde4390b8834b56f015635913e8b
d5f0d804f93fdfb513ed6852c806ace4efc7300114f928696addfbfcab843040 b14b134866868cd8b38e21757b61b9e1c4f2163a69e8e0dc1c4b7f07f8c7d72a
e3ee395d0d596e484f674ef9aa16eda95f3abbb20f7ada338a5ee1a3e31edf8e e656362d84405724c4fb734778543d66cc05d2d03864982ce49d34fd4175c791
ba60da391347f1a1866f5173670343967a326e2dfbfeff18b0028b28cf79cec2 022533c2d814167f504df339013bc66842f0aa76ab3724668409f54a11bce641
547c2df366255806e421be80e93124d1a3e66bded54527e5f18783e91e76e0ae f90e8b0b39010ca2428b538e18eba0506f6a12782d5add284a966dbf9d0e5f0f
60115494d5111cb3786d399658c6ad4c3ba30cffb844aa619b672e6a380ab036 b36ff2b078c705b6a1c867ba7d651bc7cfbb957fd138a1d2105b5086e997eb77
""".split()))


@pytest.mark.parametrize("name", list(FIELDS))
def test_field_pipeline_matches_its_golden_digest(name, monkeypatch):
    field = FIELDS[name]()
    chain, plans = fields._plan(field.coeffs)
    sources = []
    # the generated source, as _built hands it to compile
    monkeypatch.setattr(fields, "compile", lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    fields._built.__wrapped__(tuple((exps, type(c), c) for exps, c in field.coeffs))
    text = repr((field.kind, [(exps, *_typed([c])) for exps, c in field.coeffs], chain,
                 [(_typed(cs), ks) for cs, ks in plans], sources))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
