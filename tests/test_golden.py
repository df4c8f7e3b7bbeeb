"""Golden CLI corpus: stdout of fixed commands, pinned by its sha256.

The ``SHA256`` hashes were captured before the packed inner-product kernel
replaced the per-term field arithmetic.  The ``SINGLE`` hashes of the elliptic
reports and ``table BT --selfcheck`` were captured before the group layer
moved to integer element indices; those of the three cyclic commands, before
cyclic McKay columns were read off eigenvalue exponents and values were
packed, conjugated and rendered once per distinct value.  Every ``signature``
hash (in ``SHA256`` and ``SINGLE``) was re-captured when the error bound
became an exact rational read off the period table: only the ``error_bound``
row changed, and with it the exact column's padding in one pretty report.
Any change to a printed byte fails here.
"""

import contextlib
import hashlib
import io
import math

import pytest

import symsig.cli as cli
from symsig import sympow
from symsig.klein import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Cyclic,
    build_group,
    character_table,
)

GROUPS = ("BT", "BI", "BD:5", "cyclic:7,3", "cyclic:60,7")
COMMANDS = {
    "table": ("table", "{g}"),
    "decompose": ("decompose", "{g}", "0..32"),
    "signature": ("signature", "{g}", "--horizon", "2000"),
}
FORMATS = ("pretty", "csv", "json")

SHA256 = {
    ("table", "BT"): (
        "2ca4506ab0a417b0d983a09250729c39a3d8499625305fc9e8b2cf575eed0c04",
        "859040e360414e984b44aab0ee873c74e75a96dc7dca033f2769f2263dd37a71",
        "5ecf21798dbd1010c1f6c19c04c23b01ce279f9d6836b1f40325886d6d2cf838",
    ),
    ("decompose", "BT"): (
        "b7eedceae9661e292641258c5e05bba61e110d9a65ae87e86e7f8649636f203e",
        "91fe199c4d461b1c1c173fd47aeeebf5507b15e82c453bd2590d800ff1743a9b",
        "e573578279a1fa2dfc9c8a4fe0e9c7fcab317bfec85a5b395e789c0e90b5367f",
    ),
    ("signature", "BT"): (
        "f28f24fa67a81483636d707228431c85650e86cd2f17ecafa1b0149ef5ad70bc",
        "ef608af43d4821f2de1103992e8aa9562d2c38b3bb879542f205da441065274c",
        "48f2de3f6444f39bcea2760fc32c49e607674ba9f34c342bd4088e1d7567e936",
    ),
    ("table", "BI"): (
        "8ff8c9d0326729efa83a9157ee31273b727426de5cdf67e89cfd1ea0c75ea6b4",
        "98707409141efc5dc0c9a33e5ef9dd5e06609cd8338534105b3db25567675c01",
        "b75c1bab115b91673e08757ecccdf11488e67d1df7d75f7beba64c77ef86cc29",
    ),
    ("decompose", "BI"): (
        "bac31184f4d70c1180dd9c35f9fe7151826ee770031c7693f2ec47cb1521a394",
        "272996627ba52e013403cccb84b052a62960cf61e81d74348e13e90386178f2c",
        "b15225bc19ff13bed1ae36144022215cb1d5fb39382b6e8c9ecd6130d652f5a9",
    ),
    ("signature", "BI"): (
        "101c15f42d30a3b0e1397b7ca4c96ebe683645085f6c76fabc4ca761efdcaeb6",
        "c18ca3d248f37b35a29dd09521e177910eab1c2e138114b3e34af51ea6b0e964",
        "b7ca428e4831025449e744323c9b8e9107cf828b6b494ca5fa4e479e56f26dea",
    ),
    ("table", "BD:5"): (
        "1046d7e288a021e8988844fa53d041815ae6a6da012f89abe301df95a8c56d84",
        "871a434778218e62ff7919f0678c9abd00d4b9f47eb1368de3227f6adca0362a",
        "329fdf4462688e443bd1ce8f891022d7f8d156637fa02cbb5e37b288bcfd555d",
    ),
    ("decompose", "BD:5"): (
        "ff01ed028575c619ce09ac32c0b203ceb4ff6ad897f8f7ff2e946073eb932ae8",
        "9e3d9e4e2a275bbea0678926f57b846bf28e4139b8602f3676efac3a799de666",
        "b21b9edfe318ba203889dadb2d4b617b6696ed3d983e5a9c0909953758569c27",
    ),
    ("signature", "BD:5"): (
        "0b306fd1d9f881de651cc409c37d004a64f608f7d412b171026a158772038453",
        "95d0d9ad62298d0954de025a97b670024fcdafdb131e3f9bf438f9244f8c902c",
        "489df10bcd7db71c288505e46cab9e5cda2f17adc25842b3510a59c995c4cc5c",
    ),
    ("table", "cyclic:7,3"): (
        "8b0193f0def980aef216e1802e2103979a38cb4c1bdef7c7631a9a2e0e4897a3",
        "16a7e5e9b03886fdd740f0461912a8bb3df2c7d2a03a248c8c942cd285c696d7",
        "7098ab3700c2e2df0bcbf7e3c2638290b4c4ad139c7fb3b24f6bb6774edd9fdc",
    ),
    ("decompose", "cyclic:7,3"): (
        "4f817d0e875232361494f417ae5ac9625eb2e7fb961b609b777105374728eef9",
        "f0d9c54a6796e4d8dea5586e938581311bf2c41362989e891dd26dd551bfead6",
        "5371c5a947704efff0a6e53a2525c9937096f4322859f002d70dd31d1a027edc",
    ),
    ("signature", "cyclic:7,3"): (
        "003481f9deccf000c0a7431e57f761bfbe80be7ae01a1869cefa6ca2ac97f05a",
        "276612b8d51ba5c2f89dea3043a9acccb08a6727fb7972ba2f370214b4f3118e",
        "0a2f29da5bd4c1d187421a9a243b82368ea1353468b22323966abdd0a090555f",
    ),
    ("table", "cyclic:60,7"): (
        "5a49bf2a7e19164279350068060d6136a9b971929054362a39002bc0e9061377",
        "4c12dc2b66fd4d4450d5ac1e2d160f2d9dc5e14b54e66cd99a11f4feb8de5946",
        "526e2d44b2060918dc6c87cf7fe8342443e49df24beb92e1b17fed4048b12a33",
    ),
    ("decompose", "cyclic:60,7"): (
        "507a4f48f8ab7f89dd2ec06acc26a4bd1a72cf43d99301e7fc4e21f7a231be8c",
        "8da195eab182afca91c0bca95696c7e4a41c070d631b90d01d09510a7e997117",
        "b4abc8128036a385ce5b84b0e0ef74974d037a3f02d4274790c70b615a21d78d",
    ),
    ("signature", "cyclic:60,7"): (
        "089d9cbe6b9be0f23abf67d2629eba042e7779f530fba43b3cf5e82d1d5deb42",
        "7e646aef90ab95a07e86363469aae2552e9063a4606204a804137028a741e866",
        "07c2632d4a85384b6aa88cc7d5f9f8cd402e0c549256000d37b6ad11bd92e48d",
    ),
}

# Commands run as written, one hash per format.
SINGLE = {
    "elliptic sym 0..64": (
        "d21b65c6a57dd340dc557d99d6d5d53684bb2e26250e12c83fa45b43c7172b22",
        "ab4bba16d4c0fc62fc72c971266d6427929e7fe9d952a94849329fd2715ae0b4",
        "3c713636d5ea92af12c26b920ab51807be7e3beefcbbfd96799f54cdb074a168",
    ),
    "elliptic dsigma": (
        "75485829bd422220b3e6d00a063a48aa7618568e2d0703c5340b9e460f61abb2",
        "25cc204e373ebd4e3bdca7caf85aad71fedbccdca7c324ed79bd4f044c76d4a6",
        "a576f919f764483da7c574584d1b6b9631c0dfe17b4219b7c2e734f7e6692324",
    ),
    "elliptic bound": (
        "829dc5b5e9a04820bdc044bf4412835aad275b319e454e0055618eba655ae4c4",
        "c1e32719b167c8e6b0ac53ed30715bbe55a50a8254a35e6c24da8453926441b9",
        "69331f1b30fcead32702406c563dd5ac47ef1f793a0ad39a00cd86a16f5fc268",
    ),
    "table BT --selfcheck": (
        "2ca4506ab0a417b0d983a09250729c39a3d8499625305fc9e8b2cf575eed0c04",
        "859040e360414e984b44aab0ee873c74e75a96dc7dca033f2769f2263dd37a71",
        "5ecf21798dbd1010c1f6c19c04c23b01ce279f9d6836b1f40325886d6d2cf838",
    ),
    "decompose cyclic:36,11 0..32": (
        "eb6516676a30f408e7a07d938bd54a67f994ec64429e8716b1196251ad3628a1",
        "b2e016d80a5672060d1040ad93bab2392b97627e68aa61a52b697394c296ed36",
        "5f385ce7f42f6302a151f6cfe2439795d6f1820b4521762914abb4fdb320e57d",
    ),
    "signature cyclic:48,5 -i 7 --horizon 2000": (
        "6668d98f4c58219eac8ae5cd80380853d906ddc26278c7833b1709dc6bbd9c02",
        "a4a47372431bf7a31ed928ad9c4b265d3f004b6ad9f136766b25d8ad8cbab34f",
        "331dcb138920c71f901506b365b8b1da3b0810d3d33f37465b1f22750fcb3e3b",
    ),
    "table cyclic:12,11": (
        "88db505d5156c86f586db6db2f2353725101f9e564a53bdd7cd51dea48e8ac98",
        "29eeda62a2866e2d89e27bfa3445c12732ea39079373c0eeb0b184d150850079",
        "8da7ce30e1aa035227414de31dcb7c42aa5536494eae8964037eda6102c6e65f",
    ),
}


def _stdout_sha256(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("group", GROUPS)
def test_stdout_hash(group, command, fmt):
    argv = [arg.format(g=group) for arg in COMMANDS[command]] + ["--format", fmt]
    digest = _stdout_sha256(argv)
    assert digest == SHA256[command, group][FORMATS.index(fmt)], " ".join(argv)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", SINGLE)
def test_single_command_stdout_hash(command, fmt):
    argv = command.split() + ["--format", fmt]
    digest = _stdout_sha256(argv)
    assert digest == SINGLE[command][FORMATS.index(fmt)], " ".join(argv)


# Every group whose tables the digest below pins: the binary families through
# BD:25, every cyclic quotient of order at most 16, and three large cyclic ones.
DIGEST_GROUPS = (
    [BinaryDihedral(n) for n in range(2, 26)]
    + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral]
    + [Cyclic(n, a) for n in range(2, 17) for a in range(1, n) if math.gcd(a, n) == 1]
    + [Cyclic(36, 11), Cyclic(48, 5), Cyclic(60, 7)]
)

# Captured before discovery walked the McKay graph and peeled each distinct
# vector once.
TABLES_DIGEST = "e8b9d4e97ca9390c040a04cdef70724bc88fc65fa51bc37bb11218a0ceeb4964"


def test_tables_mckay_columns_and_period_rows_digest():
    """One sha256 over each group's character table (value by value), McKay
    columns and Sym^q period rows, for the 109 groups of DIGEST_GROUPS."""
    assert len(DIGEST_GROUPS) == 109
    h = hashlib.sha256()
    for kind in DIGEST_GROUPS:
        G = build_group(kind)
        h.update(f"{kind}\n".encode())
        for chi in character_table(G):
            h.update(repr([(v.num, v.den) for v in chi.values]).encode())
        if kind.family == "cyclic":
            columns = sympow._cyclic_twists(G)[0]
        else:
            columns = sympow._tensor_matrix(G)
        h.update(repr(columns).encode())
        h.update(repr(sympow._period_rows(G)).encode())
    assert h.hexdigest() == TABLES_DIGEST


# Captured before the breadth-first closure ran on value ids.
STRUCTURE_DIGEST = "a24407366e33a99232a6322f21f192cfba0cf486a44ba9e3f90d6bd4b133ffa7"


def test_group_structure_digest():
    """One sha256 over each group's element keys in order, BFS parents,
    right-multiplication permutations, inverses, class map, class eigenvalue
    exponents and element orders, for the 109 groups of DIGEST_GROUPS."""
    h = hashlib.sha256()
    for kind in DIGEST_GROUPS:
        G = build_group(kind)
        h.update(f"{kind}\n".encode())
        keys = [el.key() for el in G.elements]
        assert G.index == {key: i for i, key in enumerate(keys)}
        h.update(repr(keys).encode())
        for part in (G.parent, G.right, G.inverse, G.class_of, G.class_eigen, G.element_orders):
            h.update(repr(part).encode())
    assert h.hexdigest() == STRUCTURE_DIGEST
