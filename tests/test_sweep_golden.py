"""Byte-level pins of sweep reports and of the order in which `sweep()`
refuses its arguments.

The digests are sha256 of `emit(...)`, computed with the per-kind sweep
functions that the single sweep loop replaced.  Keys of GOLDEN are
(kind, n, mode, extra keyword arguments, max_rows); sampled runs use
count=24 and seed=2024 + n.  Keys of TRACED are (n, max_rows) of sampled
coloring sweeps with traces, count=16 and seed=99.  COLORING pins the
exhaustive coloring sweeps with traces, before their vectorized kernel.
"""

import hashlib

import pytest

from epsilon0.report import emit
from epsilon0.sweep import sweep


def digest(report, fmt):
    return hashlib.sha256(emit(report, fmt).encode()).hexdigest()


GOLDEN = {
    ("order", 0, "exhaustive", (), None): (
        "6a2c628052f25364f621c9b975953cb549961615ee5366fcde1418c1c3251976",
        "c292539d03c478dc0341f6b799109dfcd638be8041ede5d326112a03266e170d"),
    ("order", 0, "exhaustive", (), 5): (
        "6a2c628052f25364f621c9b975953cb549961615ee5366fcde1418c1c3251976",
        "c292539d03c478dc0341f6b799109dfcd638be8041ede5d326112a03266e170d"),
    ("order", 0, "exhaustive", (), 0): (
        "b97c6fbbaa2e41172522e9cbc3766d5f65b62206f912d14f6632759ac36983ff",
        "1979865a156020372a1ac5a1e3ac37b6f14a7b1b16c6a78dd3bc0e2239d06467"),
    ("order", 1, "exhaustive", (), None): (
        "40f6dde220ebe3adde43ee2fdf5cbb7a14dd4a3aca764a3b370b3ab40198cc27",
        "e1ed3cddc6c045d000719edd96e9e5948585269891b8f7d2a081edb87b387797"),
    ("order", 1, "exhaustive", (), 5): (
        "40f6dde220ebe3adde43ee2fdf5cbb7a14dd4a3aca764a3b370b3ab40198cc27",
        "e1ed3cddc6c045d000719edd96e9e5948585269891b8f7d2a081edb87b387797"),
    ("order", 1, "exhaustive", (), 0): (
        "b9deb688d1d6819294518608c46ffdec6b04bf2d52db99763266b5c44fdb5193",
        "9697ad47ddaa035094a042860017ba979ac11f4f96838b8604fd7ad6eb64b1c7"),
    ("order", 2, "exhaustive", (), None): (
        "bc11d65a02c5b7578c9dedee59397bae0577ac32979ba5270e5a916ab2f387b9",
        "4c44393f55d789c3c36064a4563e7592345ec55294a5745038152c52c22aae3d"),
    ("order", 2, "exhaustive", (), 5): (
        "bc11d65a02c5b7578c9dedee59397bae0577ac32979ba5270e5a916ab2f387b9",
        "4c44393f55d789c3c36064a4563e7592345ec55294a5745038152c52c22aae3d"),
    ("order", 2, "exhaustive", (), 0): (
        "4abfa11974eda68e37befafce1c1fcb0689106bd24753633e261923342de2087",
        "f62fb0850f09b23b34f9eba0b9fe3045067a351d2191d378964b5f63c62f2eca"),
    ("order", 3, "exhaustive", (), None): (
        "3e49eb8aa7d5e00a38a5207d6fc8c4c79b20a7b9cdfa84e1e5f0249c08c8cffc",
        "8f722fe078be918a2e780258a80bd32f47dff8a117e001507fab64d7e5812496"),
    ("order", 3, "exhaustive", (), 5): (
        "8b417c59fb8b25cb1d9f74f27140db4f894b7add94116d71114f2339da92d9e0",
        "075f9b40591056f3508e381059518085c7bc97301470d1f21df6be500f7cb2e7"),
    ("order", 3, "exhaustive", (), 0): (
        "7cdd106c47d835acd730ef8a6a732804f8ecb5b6bd9051f175ba73a55e8f0130",
        "e6e5ec4952bf762b872f955e57b4e92a64b5d8461fbff34e54433286785fd38a"),
    ("order", 4, "exhaustive", (), None): (
        "d718c73ad26f32df3b80106718e43e39403c24cb330db1c040fc2138b936a218",
        "0067ea7dac84e2a9ade5cb7fde647a49f3a29c77a3c30ee3bbd3c0a3cdd38e70"),
    ("order", 4, "exhaustive", (), 5): (
        "04113c40cfe5ef0c67ea727063ddc2413dd7fc24b80a23e149291afa2ed29daf",
        "e24c99c620227a4e81704c5b5cf438bed900b97cf5e992556c39187ac381581e"),
    ("order", 4, "exhaustive", (), 0): (
        "86e7a0e36140df26faccf0547d6b28346d7e176c4f2f60e63ed10a1d2bb3f5b3",
        "78c1189e7a2a26cd670c578cfca1d7d1f8ffd20feb25249ccfe54ded1955c096"),
    ("order", 5, "exhaustive", (), None): (
        "d252b77941dad2112f0999024c3e0c7df9fe2f0c4831e39d2a6a343e4ea4ced0",
        "b8e38ee0d49dcebb2761e4b918f9f4795ae1d59e4d6bc35408aa0863e587087b"),
    ("order", 5, "exhaustive", (), 5): (
        "a4304c4ee82c6ed5ee4bec42108fd2187bf7407f01439dfca172750bdce07fee",
        "b7a8e66c43b3e5aa223074eb14100cc11d0941f3933f0f0e94c92ab40a45e183"),
    ("order", 5, "exhaustive", (), 0): (
        "b6f6cceaf67ff19afb64cbf2e9a8db3b628755b97f229a27c8209b0681734da7",
        "7a3513556fdff68a5d00ca87fd30fd5d897275bdb55b4a97c06f426ee7715846"),
    ("order", 6, "exhaustive", (), None): (
        "908e74528934c8cdc7451cd3795d5f489e9d5e425fc900ba0b1b26b98ec22ad5",
        "bf69ee53432255016d88e74a7c41281f4520e5682d5012b02957319e4aa44670"),
    ("order", 6, "exhaustive", (), 5): (
        "8f50ad648f20e1351a3f01074d5fd6c1ac3c9185cc6649ba6c101fef5d33b75d",
        "060ab749c026e5273eb61c92b60c351434eee523956491214a276a5fb6d37fdf"),
    ("order", 6, "exhaustive", (), 0): (
        "5e6c9b02204e286590ae3c902b9ae7b5494e57e5ab8b5926fe1d85aac6cda1f4",
        "56d1d14c631f121d4ac5d94ef0d2985d05e461e37307c606fd58cae930871f99"),
    ("order", 7, "exhaustive", (), None): (
        "22c8492908bec6ffe21d13247174ca9482ff878aef5193ce6ccdff8b9eec551d",
        "834b2c6b7af952fd5380b0ca998d7c0ca8ab885ec9730d74fc100198b17d6d25"),
    ("order", 7, "exhaustive", (), 5): (
        "8ee33378dbbeb09f6599dbd59d215c8e813fcaa24ac3f45056e61187200a769a",
        "8c5825826ddcafe87d0eb794d7c24cd00e135e81f606d32010c2c901b20cfef2"),
    ("order", 7, "exhaustive", (), 0): (
        "68792f21aeca65f978f3a6ac27bd5d16878da7f7e15a559e64d3755840610686",
        "512f8b1a31e93f6ad53fff1baa8cb42c998c954da1860cd8be550e6ebe013b59"),
    ("order", 8, "exhaustive", (), None): (
        "e4d054136db14a24781b2531a3d59469df0e74c673538322bda0520b2c983c5f",
        "dee1598b2125fa0559e935848b6c05243e428f594d19f0e9c485264b12caf8ec"),
    ("order", 8, "exhaustive", (), 5): (
        "43924436dc9d62aba52efc35f57774c60cdb121175a926c69027a94024b3f73c",
        "6d981c547845d72ceb889d5200780595e83c6538f00d01c79b7f175d9e2ac41a"),
    ("order", 8, "exhaustive", (), 0): (
        "0b1a6502382ec4863b35a54d7d20b5f662b790ad94b234591e223901cb629faf",
        "b4552ea5c572ef8bd7270020fd26a793e5d3a382fa6d07c7d60d586baa377b25"),
    ("tournament", 0, "sample", (("window", None),), None): (
        "02090a2c000778ef0660510da721f635cac74ac3cf9ad55b98257526ed3cadde",
        "d55c6258c60e6d2136d91b0e854af1a4812b918a3cbb65d63f61fef68107eea1"),
    ("tournament", 0, "sample", (("window", None),), 2): (
        "a8ccc26efe47901bf0343898a698ba19870e3ea4f6cb44bfe3e1f5e7db41e8f2",
        "ccb053c01188873232c40b199a1b7ecfa203f9a10819d2a9d388a708ff1d02a4"),
    ("tournament", 0, "sample", (("window", 0),), None): (
        "02090a2c000778ef0660510da721f635cac74ac3cf9ad55b98257526ed3cadde",
        "d55c6258c60e6d2136d91b0e854af1a4812b918a3cbb65d63f61fef68107eea1"),
    ("tournament", 0, "sample", (("window", 0),), 2): (
        "a8ccc26efe47901bf0343898a698ba19870e3ea4f6cb44bfe3e1f5e7db41e8f2",
        "ccb053c01188873232c40b199a1b7ecfa203f9a10819d2a9d388a708ff1d02a4"),
    ("tournament", 0, "sample", (("window", 2),), None): (
        "02090a2c000778ef0660510da721f635cac74ac3cf9ad55b98257526ed3cadde",
        "d55c6258c60e6d2136d91b0e854af1a4812b918a3cbb65d63f61fef68107eea1"),
    ("tournament", 0, "sample", (("window", 2),), 2): (
        "a8ccc26efe47901bf0343898a698ba19870e3ea4f6cb44bfe3e1f5e7db41e8f2",
        "ccb053c01188873232c40b199a1b7ecfa203f9a10819d2a9d388a708ff1d02a4"),
    ("tournament", 0, "sample", (("window", 3),), None): (
        "02090a2c000778ef0660510da721f635cac74ac3cf9ad55b98257526ed3cadde",
        "d55c6258c60e6d2136d91b0e854af1a4812b918a3cbb65d63f61fef68107eea1"),
    ("tournament", 0, "sample", (("window", 3),), 2): (
        "a8ccc26efe47901bf0343898a698ba19870e3ea4f6cb44bfe3e1f5e7db41e8f2",
        "ccb053c01188873232c40b199a1b7ecfa203f9a10819d2a9d388a708ff1d02a4"),
    ("tournament", 7, "sample", (("window", None),), None): (
        "3a1f4aec76290f5a90ddaf1cdd0353f8b42b4a6564a702c4aecf35bed64c6eea",
        "1be0fb7b2bc815fc5919b5f1550f5b3af97f78474846179fb14b6ff79a1a588e"),
    ("tournament", 7, "sample", (("window", None),), 2): (
        "ce3bc6a361de34ffc2fedb99d49074767d7a8fca2eaca4f18f91e6994c599dcb",
        "118893ab8a5c1343641ad27cded74b6cf76b4e0977c4559d79245b8844f365d1"),
    ("tournament", 7, "sample", (("window", 0),), None): (
        "ed4801d565a08ed6d2d004434f1adf98ff76fc70e10003a26e7c70262e39680c",
        "bf0dc6490862b8cdb2c019c97e8e286d9923605911208fb6e969a71aa86a3f15"),
    ("tournament", 7, "sample", (("window", 0),), 2): (
        "ce3bc6a361de34ffc2fedb99d49074767d7a8fca2eaca4f18f91e6994c599dcb",
        "118893ab8a5c1343641ad27cded74b6cf76b4e0977c4559d79245b8844f365d1"),
    ("tournament", 7, "sample", (("window", 2),), None): (
        "3ebddcd8ebb5a792e506f3bc39c010dcfb7e38dddc0a2629bbd3bfa053567dba",
        "8ebc35316869466dac495ab5eead46f8ce89e97214685a990ad8a69042e86b47"),
    ("tournament", 7, "sample", (("window", 2),), 2): (
        "ce3bc6a361de34ffc2fedb99d49074767d7a8fca2eaca4f18f91e6994c599dcb",
        "118893ab8a5c1343641ad27cded74b6cf76b4e0977c4559d79245b8844f365d1"),
    ("tournament", 7, "sample", (("window", 10),), None): (
        "20dd24709d0a4760bc004d49bcb2e7b7696d2bb627942a69d3c88cea1d1c3e6d",
        "7983d655012c4be5873e5f21bb699f040be477b804fd291aaff615c82b5229cc"),
    ("tournament", 7, "sample", (("window", 10),), 2): (
        "ce3bc6a361de34ffc2fedb99d49074767d7a8fca2eaca4f18f91e6994c599dcb",
        "118893ab8a5c1343641ad27cded74b6cf76b4e0977c4559d79245b8844f365d1"),
    ("tournament", 12, "sample", (("window", None),), None): (
        "d9d99f3885d92ea8344335eea96265de6629667a652f8a9ee3d9ea9361f30e4b",
        "bfa07b8fc6cd9472e28fe2460163ac89140eefbc1f3b5ceb53e294ec2545ea56"),
    ("tournament", 12, "sample", (("window", None),), 2): (
        "2fdd953da1febec1423deae0ce6397a3af3df7402bc1e9947bce3caf92a57ff6",
        "aa92090b1931e130a471a9f8aa02d27d84072dbcc182bcd2736e2831549e8840"),
    ("tournament", 12, "sample", (("window", 0),), None): (
        "d5181b1358b0040a081ed887b6b564a3db718209acad4f4be5e08bb9ac907ac3",
        "d510050571e4745772db2341931bffdc4813435b0b2a119fe09a43e1c9116408"),
    ("tournament", 12, "sample", (("window", 0),), 2): (
        "2fdd953da1febec1423deae0ce6397a3af3df7402bc1e9947bce3caf92a57ff6",
        "aa92090b1931e130a471a9f8aa02d27d84072dbcc182bcd2736e2831549e8840"),
    ("tournament", 12, "sample", (("window", 2),), None): (
        "7d1ba0f1f7670303bd318249818895ec3ecb1888a42b0c0ba5911886dc2d8913",
        "e5e2cf65a56d61082b98acd0cb9a71af61ff3a103aa67eefc774e04b36d85bbe"),
    ("tournament", 12, "sample", (("window", 2),), 2): (
        "69aa7a9dacc73ffcc962df32cbf5c1ace33315369fcb5fce7fce0169e406ad7b",
        "1dda75d71a63c65e906330f6f50dbc035bf0cd271961af57233d6b7b56254db7"),
    ("tournament", 12, "sample", (("window", 15),), None): (
        "5fc33c720c1a48dacd0647ed24b12c25716b5491d301e8be6809f84cb8aeb604",
        "8b4cce4b962236548cb5fbb6010dcc5aaf1b1bfae8fb41490abffa54d278a5cb"),
    ("tournament", 12, "sample", (("window", 15),), 2): (
        "2fdd953da1febec1423deae0ce6397a3af3df7402bc1e9947bce3caf92a57ff6",
        "aa92090b1931e130a471a9f8aa02d27d84072dbcc182bcd2736e2831549e8840"),
    ("order", 0, "sample", (), None): (
        "3859190496afe91f9cd8f29b8ab7ca80c155ca2be7eb970da6eaa7dd7c36e2df",
        "e98de79a83ae89adb29f8e1ab56a2f6f6db5902dfe69be0dff48db62423a59e2"),
    ("order", 0, "sample", (), 2): (
        "3f049d5599753503067b5c8356a27146367ff1727a369ba3b6142dcd73bfcf85",
        "8b46b35e3c3f05fc83ff480f053b240efa7e0aa54d85196e8bf4ba2cc857ef20"),
    ("order", 9, "sample", (), None): (
        "276552c52af215f02b31499982693f96c62cc5b1205834f34d67d46701118424",
        "4dc3d8c9976bb52d41b0a195e361341e076b8d5bf7f78e95557202ef21f6af46"),
    ("order", 9, "sample", (), 2): (
        "25ebe19598d89de87f0ae4799eac1ba391442de5f23f919821a214217cf6116f",
        "c6eac5856c4d6c0cfb9eb607e59f1c131c06f9837fbd658dcc89396784200c05"),
    ("order", 64, "sample", (), None): (
        "cf35c92880a255d3454c19511f5ed6bded66445afeab83ec13d7cc70834864dd",
        "85297ced319f795725471d612fbae6a6a71ab4183c72cd223b14b3d40b39370d"),
    ("order", 64, "sample", (), 2): (
        "db496a1f3c93628dd4ccf5b0ea93befb921efe0d414ab044afb395f2bc8b3f29",
        "adbccb31097f5d6ff5a3116757f9ad0241c376c396aa4c54eddb9a3c6673749a"),
    ("family", 0, "sample", (("target", None),), None): (
        "e6b2204442c180da1f6fd3d0799692d2c03520ec083f57ac9b3182835247a202",
        "c0c607a76a1a6a633fb6239d0c0ac6c3a1afb9229796f61abc099c75cc08ffa0"),
    ("family", 0, "sample", (("target", None),), 2): (
        "19d15c8662e7de203f725a757625fcc4a0882985ae57351d505581a30564fe3b",
        "52cfbe19f5c9800ca04a66f4bd76936f2739cc538723d1d583c688760c1a67ec"),
    ("family", 0, "sample", (("target", 0),), None): (
        "e6b2204442c180da1f6fd3d0799692d2c03520ec083f57ac9b3182835247a202",
        "c0c607a76a1a6a633fb6239d0c0ac6c3a1afb9229796f61abc099c75cc08ffa0"),
    ("family", 0, "sample", (("target", 0),), 2): (
        "19d15c8662e7de203f725a757625fcc4a0882985ae57351d505581a30564fe3b",
        "52cfbe19f5c9800ca04a66f4bd76936f2739cc538723d1d583c688760c1a67ec"),
    ("family", 9, "sample", (("target", None),), None): (
        "02e61f8f8e6dc286212a3ac905b1e7e54c346d52a31cd78aafa33ec968a02daf",
        "da19818cbd0a39d99adf8147a86f7a3a010e9b500dda84af4a10d9cab7b99107"),
    ("family", 9, "sample", (("target", None),), 2): (
        "8426ee1fdcf3c3afb6af1467b55dba659542b00dd2980a4fdfdf240503336554",
        "a7fe9cd4a6f2b3b894168257265d399edcb9ed9a0170e09891528084a3d5afcb"),
    ("family", 9, "sample", (("target", 0),), None): (
        "d1ed1a67534bd87e17892d5713ea6859bdcf7d839dd18fcfa8faf2f9f88efe41",
        "9aaf2ceeca90a69d99c27871ffededda0c2bc6b1f679b7a3b617b4495babafd5"),
    ("family", 9, "sample", (("target", 0),), 2): (
        "c2e221df311233e26049e5243d85f066d402ee17b0697cce170b52505874dfbd",
        "703dd34a5bc235fe30ed9e6b250989704c7693fb1559f1b98c33f02cdfa10900"),
    ("family", 9, "sample", (("target", 3),), None): (
        "37ee2a4bb3b10f69948c5706b3be0b79fa82baeadc166c6b5489a89bc8cce3e6",
        "bffd2c05678e61482f18ef6894db93369be1e1fd25850e309d0119c8d7cdfefb"),
    ("family", 9, "sample", (("target", 3),), 2): (
        "f0811586435181360597b8a1b09088641beebbadb4e8344b72f785b30c4f9d02",
        "2a9c6ad877a683104b2fe707778ef95727cb5eb3a1dbbe5a3b1e09cd31760890"),
    ("family", 32, "sample", (("target", None),), None): (
        "7a669aea4437206e7ae2c8fecdfc8005800fc8201ced569cf05d7d21a591ad93",
        "ad4fecd3b7e84b0427113c33cea66260ad0ad6105157922f445632be18b8f54a"),
    ("family", 32, "sample", (("target", None),), 2): (
        "a76abea55279b0e85de16e8ac1b1ed11e5fd61cb9e0dc3eccc55f147181617d1",
        "7069f19532c0342a4dd3a7ed043e288a00f71a0ad423256787480ada5c80b5b6"),
    ("family", 32, "sample", (("target", 0),), None): (
        "47147087d164cf319484c49e7e0f8030cad686059bdfcf1ec296ebbedd11b68e",
        "8334c9f5afb86474e7e6e7ec406cdf19f53124055f2dafb0f7b89ab0f2563b01"),
    ("family", 32, "sample", (("target", 0),), 2): (
        "4e53debe3a27835a6e26db8522080336810ebd2bff04d398286e1ee57e222563",
        "e3cbd750e010c1739941693ab7c5ace70b857e014b3502905a47e19c0f289cdf"),
    ("family", 32, "sample", (("target", 3),), None): (
        "a60faa173da54f1fce2a44898836f31bab3fd1535713f7c0963616fbc6ec7b5e",
        "91ab5a1f6d95f6960fdfe5cbb43a21d8429480815e1dd025c9099efd26042b27"),
    ("family", 32, "sample", (("target", 3),), 2): (
        "e8aeb9ff25626ae18ae1c7af3985ffe2573aa2f4489eca511b2635d4caba6430",
        "434536204cc15c193d77fd453ac36bd6ccb1cfe30a592198708bf168a72f195a"),
}
TRACED = {
    (24, None): (
        "0ac8589673a7a7d6f9458e716e6bddc3af624ad8ab326dfffd1252cdb63eac67",
        "4064753b70f2407a6da5ab44573628a09224e5e7e94952862e74cea37c7fccf3",
        "7fadf52b127743fd059f5267d25bcabeebeff45c615cc7bb972798fd6c440ba2"),
    (24, 5): (
        "97a62a98bf7c9dd330a851a4fc7040660ba526dc936f0c016e8d13edf8710c9b",
        "615f40e1287f2f6ffa248b6efc63d97345301beee3d7eb93089867258685012c",
        "0a931b95fbce1e2eb2d46ea15539e90472eb03e518f72df5351030cbd7966c6e"),
    (1, None): (
        "0db5717d87d55db64a4f80ab32c7cd0799747eb37d902b83a88efafd964f2dff",
        "bbd09bd8882c664d087de2293146e9de012a717950a0ab91dc1b8516d00f3da9",
        "9b5c7832cfdfbdae25da045f8d92221cf28a88daa863c00414b7e351189cc14f"),
    (7, 3): (
        "946a58dfc102dbd451549f6bfa12a670f133b9b1ab1dcc2eac6e935a7030f094",
        "6ed2a2436d949d9e50c2423c65cd3e151e02fc4d0b2f27dc8ba89cb9ba088f81",
        "e0ad6c701baf19568bd72d939b1cb00e676fda4bce6bb5802f7cb9edaa69b778"),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=repr)
def test_sweep_reports_match_golden_digests(key):
    kind, n, mode, extra, rows = key
    kwargs = dict(extra)
    if mode == "sample":
        kwargs.update(count=24, seed=2024 + n)
    if rows is not None:
        kwargs["max_rows"] = rows
    report = sweep(kind, n, mode, **kwargs)
    assert (digest(report, "summary"), digest(report, "tsv")) == GOLDEN[key]


@pytest.mark.parametrize("key", list(TRACED), ids=repr)
def test_traced_coloring_sweeps_match_golden_digests(key):
    n, rows = key
    kwargs = {} if rows is None else {"max_rows": rows}
    report = sweep("coloring", n, "sample", count=16, seed=99, want_traces=True, **kwargs)
    assert tuple(digest(report, fmt) for fmt in ("summary", "tsv", "trace")) == TRACED[key]


# sha256 of emit(summary|tsv|trace) on exhaustive coloring sweeps with
# traces, pinned from the per-code rt22_solve loop; keys (n, window,
# max_rows), None for the default.
COLORING = {
    (1, None, None): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, None, 5): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, None, 0): (
        "c311e7e126bad5414ab97a5436ce90cad2f11a17c854deb8557e172d16d487e6",
        "ef1a8b4eadc89b27e39b2506abe645f492414112641ad2abb47822f488f06b4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0, None): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "8866a2ff7bdf7b5a30f581890227694802cf15a1b0c85c2cb6c7f26701e3aa0d"),
    (1, 0, 5): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "8866a2ff7bdf7b5a30f581890227694802cf15a1b0c85c2cb6c7f26701e3aa0d"),
    (1, 0, 0): (
        "c311e7e126bad5414ab97a5436ce90cad2f11a17c854deb8557e172d16d487e6",
        "ef1a8b4eadc89b27e39b2506abe645f492414112641ad2abb47822f488f06b4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 2, None): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, 2, 5): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, 2, 0): (
        "c311e7e126bad5414ab97a5436ce90cad2f11a17c854deb8557e172d16d487e6",
        "ef1a8b4eadc89b27e39b2506abe645f492414112641ad2abb47822f488f06b4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 9, None): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, 9, 5): (
        "0ca2f0885a85125277513c05419f55cc47a3c56279090751a21ce299d2566b76",
        "3e5497e01379c26f7dbb1112d5c352bef8a29111df4a9246668c485eba9872d0",
        "c86ab943cad8b80548529ab5a52bfd1678414657c2c7c8edd14b975463b0bad8"),
    (1, 9, 0): (
        "c311e7e126bad5414ab97a5436ce90cad2f11a17c854deb8557e172d16d487e6",
        "ef1a8b4eadc89b27e39b2506abe645f492414112641ad2abb47822f488f06b4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, None, None): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "bce2c445eb48dfbe2c1665b14f3f39198eb24067bd918ad394c42a1e152b1938"),
    (2, None, 5): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "bce2c445eb48dfbe2c1665b14f3f39198eb24067bd918ad394c42a1e152b1938"),
    (2, None, 0): (
        "ab3757dfafded3602bc8ed3508e3b108c6fcd530c8b87a3f925849e0cedfafef",
        "87488dc415c7ffcb735d1e1d812f35f9e0245431bd9c38acc95e564fdf3de688",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 0, None): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "98a72848a9b934ba7cb2726366bb805a141d5f5ac1ce4367860434ef8fb4f61f"),
    (2, 0, 5): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "98a72848a9b934ba7cb2726366bb805a141d5f5ac1ce4367860434ef8fb4f61f"),
    (2, 0, 0): (
        "ab3757dfafded3602bc8ed3508e3b108c6fcd530c8b87a3f925849e0cedfafef",
        "87488dc415c7ffcb735d1e1d812f35f9e0245431bd9c38acc95e564fdf3de688",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, None): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "5723000cf8a975b0482084e9c1f0c78a92ee2d2a5b8f1af5813bf37153731f32"),
    (2, 2, 5): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "5723000cf8a975b0482084e9c1f0c78a92ee2d2a5b8f1af5813bf37153731f32"),
    (2, 2, 0): (
        "ab3757dfafded3602bc8ed3508e3b108c6fcd530c8b87a3f925849e0cedfafef",
        "87488dc415c7ffcb735d1e1d812f35f9e0245431bd9c38acc95e564fdf3de688",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 9, None): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "5723000cf8a975b0482084e9c1f0c78a92ee2d2a5b8f1af5813bf37153731f32"),
    (2, 9, 5): (
        "3af13bba4dff5103b9eaa57fc2806df08dbad91fb4e6a60cab079d04098c9337",
        "c211ab4dc05849d0fce25723e8a85c08ca537ea96dd200870d5b60b704bfa279",
        "5723000cf8a975b0482084e9c1f0c78a92ee2d2a5b8f1af5813bf37153731f32"),
    (2, 9, 0): (
        "ab3757dfafded3602bc8ed3508e3b108c6fcd530c8b87a3f925849e0cedfafef",
        "87488dc415c7ffcb735d1e1d812f35f9e0245431bd9c38acc95e564fdf3de688",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, None, None): (
        "772c3d249b10907e166265f882f5b778c6e145ff0b09cadc0a3f03b31b735cfa",
        "ddea3393982a2dfb359c449667c926f150ea9c56d781872d0f47fbc25231d0ad",
        "c1cc025beea8d6635e4b5d448161cbc63981bf1c2c04e7a8f60392ce99253e6c"),
    (3, None, 5): (
        "809654ce26a607e094bde1c138ab6c27a452c9558303344ff27fdcb83afb2f2c",
        "6ab4a1df7b80e55cc8398b2d94f0bd775f465d1fc7ee7043edfa812f77accf8a",
        "51c7a496d0a76befda1d2a2307a16fa1102ee51006bffeec837e14d4ed0331aa"),
    (3, None, 0): (
        "79ae553fd395a55d5bd123c300efbbdded9e6f546269ef2ff940408a8bc8cc13",
        "78e4511171085cb1ca1e3f6d9f179e54e9f074d4e725020b1a2e0cc4d4cf512f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 0, None): (
        "772c3d249b10907e166265f882f5b778c6e145ff0b09cadc0a3f03b31b735cfa",
        "ddea3393982a2dfb359c449667c926f150ea9c56d781872d0f47fbc25231d0ad",
        "ba99f351d219f2ab5bd65234401d74db471f5eed4e45f3e6bc3e1acb720b2a08"),
    (3, 0, 5): (
        "809654ce26a607e094bde1c138ab6c27a452c9558303344ff27fdcb83afb2f2c",
        "6ab4a1df7b80e55cc8398b2d94f0bd775f465d1fc7ee7043edfa812f77accf8a",
        "99a5adbc33a730675a3f91abf321e02c6de65fe43836240cf9728d011de8dd91"),
    (3, 0, 0): (
        "79ae553fd395a55d5bd123c300efbbdded9e6f546269ef2ff940408a8bc8cc13",
        "78e4511171085cb1ca1e3f6d9f179e54e9f074d4e725020b1a2e0cc4d4cf512f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 2, None): (
        "772c3d249b10907e166265f882f5b778c6e145ff0b09cadc0a3f03b31b735cfa",
        "ddea3393982a2dfb359c449667c926f150ea9c56d781872d0f47fbc25231d0ad",
        "d9ccd1b7a699776c73bf092bb91a2c49f3f9aaf25afa985eb22e38440fbc73f1"),
    (3, 2, 5): (
        "809654ce26a607e094bde1c138ab6c27a452c9558303344ff27fdcb83afb2f2c",
        "6ab4a1df7b80e55cc8398b2d94f0bd775f465d1fc7ee7043edfa812f77accf8a",
        "f064281dfe31fc7c8321e6b004421d5d4ac47ed8a35e1a64d8dc810e5e423d39"),
    (3, 2, 0): (
        "79ae553fd395a55d5bd123c300efbbdded9e6f546269ef2ff940408a8bc8cc13",
        "78e4511171085cb1ca1e3f6d9f179e54e9f074d4e725020b1a2e0cc4d4cf512f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 9, None): (
        "772c3d249b10907e166265f882f5b778c6e145ff0b09cadc0a3f03b31b735cfa",
        "ddea3393982a2dfb359c449667c926f150ea9c56d781872d0f47fbc25231d0ad",
        "ba0ceb0e72977bedbabc083e4c88dbb08ced56b2df6f73f156d31b52ffda9a8d"),
    (3, 9, 5): (
        "809654ce26a607e094bde1c138ab6c27a452c9558303344ff27fdcb83afb2f2c",
        "6ab4a1df7b80e55cc8398b2d94f0bd775f465d1fc7ee7043edfa812f77accf8a",
        "43d405c33645f0bed585fbc4f4fc08f9e8e7137b8774b5c0d8a7a45eb860df29"),
    (3, 9, 0): (
        "79ae553fd395a55d5bd123c300efbbdded9e6f546269ef2ff940408a8bc8cc13",
        "78e4511171085cb1ca1e3f6d9f179e54e9f074d4e725020b1a2e0cc4d4cf512f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, None, None): (
        "526fbe63c4678c749cbfc835a567fb025f1a553dfaa96aed12298f20b2e3b54f",
        "b48055c2c390a46d69c37b0c3114a47d23c5967741d67566f11315a5da6324a7",
        "ddca989f99d40438a2a53517d3a2352367b2cddc10d58bf88f89516888d15e42"),
    (4, None, 5): (
        "93362ff1edeaba9a06ce622ff14a616baf100ccf4996bdd3a7651a8029c1e12d",
        "a50e0831b61711db060a2eeb999360eb4796a8eef653ec805b6f09a555c0b859",
        "80f5e84db942988cfd66cae5ae49fe26e6a587560df16ba7975360a3c005d0e1"),
    (4, None, 0): (
        "f2ee922c069b5d136dee92bc02f724e89ea1a111accdbf865befdbbe71009277",
        "ba89e422a014e1f04931ac3a6e5c3ea7684b526c863ab0dfad56737d97871048",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 0, None): (
        "526fbe63c4678c749cbfc835a567fb025f1a553dfaa96aed12298f20b2e3b54f",
        "b48055c2c390a46d69c37b0c3114a47d23c5967741d67566f11315a5da6324a7",
        "b6354fe01422ab7118966823618e34a5bfbf394ca96fd694b998a03033eb9bb1"),
    (4, 0, 5): (
        "93362ff1edeaba9a06ce622ff14a616baf100ccf4996bdd3a7651a8029c1e12d",
        "a50e0831b61711db060a2eeb999360eb4796a8eef653ec805b6f09a555c0b859",
        "13e4027e8575f7b87b5458e58782672dc0c17fc48630a29c2c5a32da063b1c33"),
    (4, 0, 0): (
        "f2ee922c069b5d136dee92bc02f724e89ea1a111accdbf865befdbbe71009277",
        "ba89e422a014e1f04931ac3a6e5c3ea7684b526c863ab0dfad56737d97871048",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 2, None): (
        "526fbe63c4678c749cbfc835a567fb025f1a553dfaa96aed12298f20b2e3b54f",
        "b48055c2c390a46d69c37b0c3114a47d23c5967741d67566f11315a5da6324a7",
        "38df262121b7128987d0ddc122683a03cf047e35f3bd1293b536533da4d8b49e"),
    (4, 2, 5): (
        "93362ff1edeaba9a06ce622ff14a616baf100ccf4996bdd3a7651a8029c1e12d",
        "a50e0831b61711db060a2eeb999360eb4796a8eef653ec805b6f09a555c0b859",
        "ba5eed2ab73084d4cd7df3b03e66940c53dfae677965640f4aebde0991d6d42a"),
    (4, 2, 0): (
        "f2ee922c069b5d136dee92bc02f724e89ea1a111accdbf865befdbbe71009277",
        "ba89e422a014e1f04931ac3a6e5c3ea7684b526c863ab0dfad56737d97871048",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 9, None): (
        "526fbe63c4678c749cbfc835a567fb025f1a553dfaa96aed12298f20b2e3b54f",
        "b48055c2c390a46d69c37b0c3114a47d23c5967741d67566f11315a5da6324a7",
        "48a722c7d20197648186172d0a0df629810fc083d62733c6a84100e0754ee54c"),
    (4, 9, 5): (
        "93362ff1edeaba9a06ce622ff14a616baf100ccf4996bdd3a7651a8029c1e12d",
        "a50e0831b61711db060a2eeb999360eb4796a8eef653ec805b6f09a555c0b859",
        "484bf731208c762a86651ee874ea8f7c5305a4ab1d3853cfe40e1908a8d5e5ce"),
    (4, 9, 0): (
        "f2ee922c069b5d136dee92bc02f724e89ea1a111accdbf865befdbbe71009277",
        "ba89e422a014e1f04931ac3a6e5c3ea7684b526c863ab0dfad56737d97871048",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, None, None): (
        "70c56adac250f63dda4a000dcf30aaa3fad9aa273e578eb5657798907bfff613",
        "65ac60648cfc32fc5be49d6d7e53ffabe26c65febe8ef64f8b85336c2f14463b",
        "490540c03ca320b7a3142223d09a8ee7e9b9f0d41451336d15cafbe62e1b64b9"),
    (5, None, 5): (
        "c21b45fe911786612c0e5ea546dade706cdd427753209630d8c2357c31591a90",
        "e3f39749e1f6f1b0cf8d0c0ec0f1d428fdb229feb71918321270855f914cf1e5",
        "d6bc1fd18c494cf65f5128a2180689ab8855466b28c3226262f2f32fa0471b61"),
    (5, None, 0): (
        "eb283e29cb86afdcded0fff294256b9325a4055fa6aa5dc2ad8ff6c48e541ed7",
        "2921c065128834ad092648cf3026086e972dbe39c3b3064f2e7fbca05156b8b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 0, None): (
        "95813e745b585841a529e1107190dfaded206774bc3cfd07a6df959f68c3ce01",
        "d86b111977f2208c8232a82fc168e2f6b46543646aaeec988697cfaeca0e1354",
        "64f20774ab90fb47a1bd049ec3aeabac56d6b752236b66ce36b5b6b4576bdde0"),
    (5, 0, 5): (
        "c21b45fe911786612c0e5ea546dade706cdd427753209630d8c2357c31591a90",
        "e3f39749e1f6f1b0cf8d0c0ec0f1d428fdb229feb71918321270855f914cf1e5",
        "7da81260bd4db2a6e2f94b05b14fb9f46628c56079a09f3f41515abd845c5455"),
    (5, 0, 0): (
        "eb283e29cb86afdcded0fff294256b9325a4055fa6aa5dc2ad8ff6c48e541ed7",
        "2921c065128834ad092648cf3026086e972dbe39c3b3064f2e7fbca05156b8b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 2, None): (
        "70c56adac250f63dda4a000dcf30aaa3fad9aa273e578eb5657798907bfff613",
        "65ac60648cfc32fc5be49d6d7e53ffabe26c65febe8ef64f8b85336c2f14463b",
        "fc5333d8d9ef080f95d027e9948e589b2f53044ac94369757ef92310a61baa9c"),
    (5, 2, 5): (
        "c21b45fe911786612c0e5ea546dade706cdd427753209630d8c2357c31591a90",
        "e3f39749e1f6f1b0cf8d0c0ec0f1d428fdb229feb71918321270855f914cf1e5",
        "85f8595b194426d3a9dbadfa74505fcb16da33b05e79235abb5dc82168f374b4"),
    (5, 2, 0): (
        "eb283e29cb86afdcded0fff294256b9325a4055fa6aa5dc2ad8ff6c48e541ed7",
        "2921c065128834ad092648cf3026086e972dbe39c3b3064f2e7fbca05156b8b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 9, None): (
        "70c56adac250f63dda4a000dcf30aaa3fad9aa273e578eb5657798907bfff613",
        "65ac60648cfc32fc5be49d6d7e53ffabe26c65febe8ef64f8b85336c2f14463b",
        "367eb20680af3bf630ba50cabf21811264ebf96cd1a113da94b37200062de33f"),
    (5, 9, 5): (
        "c21b45fe911786612c0e5ea546dade706cdd427753209630d8c2357c31591a90",
        "e3f39749e1f6f1b0cf8d0c0ec0f1d428fdb229feb71918321270855f914cf1e5",
        "3e7cdcab13e1b57e12f9e00f1e876683cc658265dde946fa3dc89b14fd99057a"),
    (5, 9, 0): (
        "eb283e29cb86afdcded0fff294256b9325a4055fa6aa5dc2ad8ff6c48e541ed7",
        "2921c065128834ad092648cf3026086e972dbe39c3b3064f2e7fbca05156b8b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, None, None): (
        "eb652b7d87ede9920fa133a6252b5b29cdb1bf79a0d3c21d566b4cb52e698a55",
        "8bb59f59924f4f398355ffbd8f68d805dd8ca54a77dd60415d2655983279f67c",
        "f81197b93c1e3ec07b9bdfc05cf5c0ee43ed4671c21b001c25493953443ebe8e"),
    (6, None, 5): (
        "f9dd3a3778606ff187d69d1427673bbd307a61bba6e474468195f9648c9e5b96",
        "09a553f51c45b40624f54d1266a4b08e8a612618997519cfc2bb9ff6b310eaed",
        "6546f1b18966c952b4855774e0384901eaa5b558b229bd3140efde21409342d0"),
    (6, None, 0): (
        "5153144133d906c281b212ca58906aa6e15c8fcbf3c3620eb6080297901194c3",
        "b2e02d7215282275d254289e977d7c6d385182860babf972545a508ac5b9c69d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, 0, None): (
        "d2c42df7b62d4972b36e4edad1c8666c6a2751803847b3cf48da22311d17ac01",
        "7db16fbcc17dfa1e5587ae1d14459b68bcc03f7d5137890064ecb670cc421dc1",
        "558dce3e957b30e15693214a96b9a76297998caebf4962bdbddddeb90a3486c0"),
    (6, 0, 5): (
        "f9dd3a3778606ff187d69d1427673bbd307a61bba6e474468195f9648c9e5b96",
        "09a553f51c45b40624f54d1266a4b08e8a612618997519cfc2bb9ff6b310eaed",
        "58ed0decabaf66efac876f9852dbb6f881df826819cd26bce3f5155163236000"),
    (6, 0, 0): (
        "5153144133d906c281b212ca58906aa6e15c8fcbf3c3620eb6080297901194c3",
        "b2e02d7215282275d254289e977d7c6d385182860babf972545a508ac5b9c69d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, 2, None): (
        "eb652b7d87ede9920fa133a6252b5b29cdb1bf79a0d3c21d566b4cb52e698a55",
        "8bb59f59924f4f398355ffbd8f68d805dd8ca54a77dd60415d2655983279f67c",
        "3400e430d1cc91eef2eb1ae4f4376e7fec73bbe7536c7c960009b815e1874bb9"),
    (6, 2, 5): (
        "f9dd3a3778606ff187d69d1427673bbd307a61bba6e474468195f9648c9e5b96",
        "09a553f51c45b40624f54d1266a4b08e8a612618997519cfc2bb9ff6b310eaed",
        "6546f1b18966c952b4855774e0384901eaa5b558b229bd3140efde21409342d0"),
    (6, 2, 0): (
        "5153144133d906c281b212ca58906aa6e15c8fcbf3c3620eb6080297901194c3",
        "b2e02d7215282275d254289e977d7c6d385182860babf972545a508ac5b9c69d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, 9, None): (
        "6217d811da8256660314ebf355133d5ac4f3e2e21637541455e1c82880aba132",
        "697baa4534315bca9bf2884da24b1355533c933de785aad6c46f889fdc9e85d5",
        "743ea8228cd43686da6626c1550ad59ef5bcde1ff929c722d336b3d7105e60d8"),
    (6, 9, 5): (
        "f9dd3a3778606ff187d69d1427673bbd307a61bba6e474468195f9648c9e5b96",
        "09a553f51c45b40624f54d1266a4b08e8a612618997519cfc2bb9ff6b310eaed",
        "57093ff2627954b715ce28f7767c40f84d33f810cba273203ab9509dd81f5249"),
    (6, 9, 0): (
        "5153144133d906c281b212ca58906aa6e15c8fcbf3c3620eb6080297901194c3",
        "b2e02d7215282275d254289e977d7c6d385182860babf972545a508ac5b9c69d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("key", list(COLORING), ids=repr)
def test_exhaustive_coloring_sweeps_match_golden_digests(key):
    n, window, rows = key
    kwargs = {} if rows is None else {"max_rows": rows}
    if window is not None:
        kwargs["window"] = window
    report = sweep("coloring", n, "exhaustive", want_traces=True, **kwargs)
    assert tuple(digest(report, fmt) for fmt in ("summary", "tsv", "trace")) == COLORING[key]


@pytest.mark.parametrize("args, kwargs, message", [
    (("family", 3, "exhaustive"), {}, "family sweeps are sample-only"),
    (("family", 40, "exhaustive"), {}, "family sweeps are sample-only"),
    (("tournament", 9, "exhaustive"), {"window": -1}, "window must lie in [0, 9]"),
    (("tournament", 4, "sample"), {"count": 2, "seed": 1, "window": -1},
     "window must lie in [0, 4]"),
    (("coloring", 9, "exhaustive"), {"window": -1},
     "exhaustive sweep needs C(n,2) <= 28, got 36"),
    (("coloring", 4, "exhaustive"), {"window": -1}, "window must lie in [0, 4]"),
    (("coloring", 6, "exhaustive"), {"window": -1}, "window must lie in [0, 6]"),
    (("coloring", 6, "exhaustive"), {"window": -1, "want_traces": True, "max_rows": 0},
     "window must lie in [0, 6]"),
    (("coloring", 0, "exhaustive"), {}, "the coloring needs at least one vertex"),
    (("order", 9, "exhaustive"), {}, "exhaustive sweep needs C(n,2) <= 28, got 36"),
    (("family", 3, "sample"), {"count": 2, "seed": 1, "target": -1},
     "target must lie in [0, n]"),
    (("family", 3, "sample"), {"count": 2, "seed": 1, "target": 4},
     "target must lie in [0, n]"),
    (("bogus", -1, "exhaustive"), {}, "n must be non-negative, got -1"),
    (("bogus", 3, "exhaustive"), {}, "unknown kind 'bogus'"),
    (("bogus", 3, "sample"), {"count": 1, "seed": 0}, "unknown kind 'bogus'"),
    (("family", -1, "exhaustive"), {}, "n must be non-negative, got -1"),
    (("tournament", -2, "exhaustive"), {"window": -1}, "n must be non-negative, got -2"),
    (("order", 3, "exhaustive"), {"count": 1}, "exhaustive sweeps take no count, got count=1"),
    (("order", 3, "sample"), {"count": 0, "seed": 1},
     "sampled sweeps need count > 0 and a seed"),
    (("order", 3, "sample"), {"count": 1}, "sampled sweeps need count > 0 and a seed"),
    (("order", 3, "other"), {"count": -1}, "mode must be 'exhaustive' or 'sample'"),
])
def test_sweep_refuses_arguments_in_a_fixed_order(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        sweep(*args, **kwargs)
    assert str(info.value) == message
