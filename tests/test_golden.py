"""Golden CLI outputs: the sha256 of stdout for fixed invocations.

The digests were recorded from the implementation that predates the shared
fold-walk kernel, now ``paths.fold_tables``, when the path count and
``genfun.c_function`` still had separate walkers.  They cover both
specializations and the twisted characters over small weight boxes in
A2/C2/G2/A3/B3, plus one forward and one reversed path export, so any
change to the fold walk, the edge oracle or the polynomial printing that
alters a single byte fails here.  Three more reversed path exports (C3 as
JSON, a twisted G2 start as CSV, B3 as text) were recorded from the
implementation that still built ``graph.reversed`` by turning every column
around, before it became the ``w0`` relabelling of the forward columns.

The graph exports (``qbg`` as JSON for G2/C4/D4/F4 and as DOT for
G2/C4/D4) and every ``beta --index`` of E6-E8/F4/G2 were recorded from
the implementation that still summed both lengths for every edge and
every affine descent, before each length was computed once.  Every
``beta --index`` of A4/B4/C4/D4 was recorded from the implementation that
still re-sorted the canonical layout's candidates at every step.  The
layouts were then laid out by a backtracking search; the lexicographic
lambda-chain sort that replaced it gives the same bytes everywhere except
``beta --type F4 --index 2``, ``F4 --index 3`` and ``G2 --index 1``, whose
digests were re-recorded from the sort.

``qbg --type F4`` as a table and as DOT, and the forward A3 path export
as CSV (whose end names with a comma are quoted) and as a table, were
recorded from the implementation that still built each JSON, CSV and
graph export as one string before printing it.
"""

import hashlib

import pytest

from alcovepaths import cli

# invocation -> sha256 of its stdout; every invocation exits 0
GOLDEN = {
    "emac --type A2 --weight 0,0 --spec both":
        "59c546cde3059a5860f16f82fcf8692d58aaf07d34c9c6b92fa108b2fe9320fe",
    "char --type A2 --weight 0,0 --sigma 1 --format json":
        "708e9e647c8c9d7c598fdb6f95c4a8a6d204f6fa33308992184ac52685fe01df",
    "emac --type A2 --weight 0,-1 --spec both":
        "994dd0da9eb8b1b489d1b583210b4b50d49201f34dccfae1d6fb05db899193be",
    "char --type A2 --weight 0,-1 --sigma 1 --format json":
        "68f4af529dd1b911b6e2ab816a2afdc0e0104a5f48ee64a6d0496a2de63d2d2e",
    "emac --type A2 --weight 0,-2 --spec both":
        "085620d711894c752c84dad2a1d64d6e39e5ce91f13972c95626a41b1651fb88",
    "char --type A2 --weight 0,-2 --sigma 1 --format json":
        "eea766fc3b12e3017611f62a00491d0b585112088e0c203e3600ff82426bfad3",
    "emac --type A2 --weight -1,0 --spec both":
        "7304cd6849b25cc00039f9c00a3ae17c99cc555d9f2035ba856ecfddceed1f6e",
    "char --type A2 --weight -1,0 --sigma 1 --format json":
        "af7ee6ed2b81aaa0d53e4ea217fc1b1864a228d3b4113c9cedd3061c7bb28d4b",
    "emac --type A2 --weight -1,-1 --spec both":
        "c1a2885278bb18652160d753d320723696dee03e35b4559f5f7a458e3b50d244",
    "char --type A2 --weight -1,-1 --sigma 1 --format json":
        "7e52343dfabd03565ed634334d4779d88fdd3235b9c07d4b486f04fdb0e3a4fd",
    "emac --type A2 --weight -1,-2 --spec both":
        "05f3a133826b6e5dc8561b20fb7610cd9f92706bacfd36b9d29609390509c5f3",
    "char --type A2 --weight -1,-2 --sigma 1 --format json":
        "667c5cefe0bb553de86c8c31860f11caceea205b5e2432a99a0b869fd7faff81",
    "emac --type A2 --weight -2,0 --spec both":
        "8d8c78f23e19e217b0412fe90686b4268c16363bdfa9b6142d63007e4f28567c",
    "char --type A2 --weight -2,0 --sigma 1 --format json":
        "0731a6795fd7fc23192ceaf54f9b92f6bdf29a710600a852feac9a98820bc59d",
    "emac --type A2 --weight -2,-1 --spec both":
        "74ffe749621ed5423eea866133da70dd7e63d88a9fbbed7c5f6d0cdff8e6b996",
    "char --type A2 --weight -2,-1 --sigma 1 --format json":
        "dc7eeb5466b837620ff8fd7fc8647f634fbd5641d0d705cc8d0c909ad3ed3560",
    "emac --type A2 --weight -2,-2 --spec both":
        "21ee46d27e8c149b6a803358d3532451cc6dea102e14127e5744dd6d21ae1a48",
    "char --type A2 --weight -2,-2 --sigma 1 --format json":
        "14c926f0095bd964ff0f8aca679c14bef2d30c3e929b5e1a86254ad821963104",
    "emac --type C2 --weight 0,0 --spec both":
        "59c546cde3059a5860f16f82fcf8692d58aaf07d34c9c6b92fa108b2fe9320fe",
    "char --type C2 --weight 0,0 --sigma 1 --format json":
        "708e9e647c8c9d7c598fdb6f95c4a8a6d204f6fa33308992184ac52685fe01df",
    "emac --type C2 --weight 0,-1 --spec both":
        "89d9c154e1b539356d11beacebc570baf8c91dc012fed65906a0c4addc45b0ec",
    "char --type C2 --weight 0,-1 --sigma 1 --format json":
        "d3245a0ee99e330cee99985d4d669cf7182d0f7270cf9f924b0e3e5d9c42362a",
    "emac --type C2 --weight 0,-2 --spec both":
        "e3b6e98c7eee6fcbc149f506b1da970ad7c6b567b7ef53910705762b6bc04277",
    "char --type C2 --weight 0,-2 --sigma 1 --format json":
        "cffe9957fe7cce1217ccb7bf01991c12d791e91bcec13be79cfafffc23dadbb1",
    "emac --type C2 --weight -1,0 --spec both":
        "645f6d0bfc43a824a13cab74506d8062bf7d86d7cf54838681f29fdc91b186f2",
    "char --type C2 --weight -1,0 --sigma 1 --format json":
        "1f7444f5906aff8034595718c478919996da93c2d9fb4ac9e1f5ebeed131e5a9",
    "emac --type C2 --weight -1,-1 --spec both":
        "5bdc28c04d2d5d9076f898780938feb9faf6f489b58802cb64f91746960014f2",
    "char --type C2 --weight -1,-1 --sigma 1 --format json":
        "e3a902d797a3fc4c23146519804ddb5c4b22f59de1e5763769d9e9a59a36a426",
    "emac --type C2 --weight -1,-2 --spec both":
        "64b11f1eb7dab1fa8663cbcf6d85e24d01dcc0c7c9a2349c3db8daf79eb47706",
    "char --type C2 --weight -1,-2 --sigma 1 --format json":
        "f270843ab3fd61cb3fb0e0ccf18b8c03ea8bcbfbd5a9a68a982431b07d97272c",
    "emac --type C2 --weight -2,0 --spec both":
        "5f6ece50cc46a5768cf16a9cbbd962bf26e18f77a5b36e208fe294d5800c53f5",
    "char --type C2 --weight -2,0 --sigma 1 --format json":
        "e2e7cba86d5091158e7b87061687e56fd8e3753cfed89c933deb6c30b1a8eb8c",
    "emac --type C2 --weight -2,-1 --spec both":
        "41263ba4fb4015caaa0dcb6b66543e3cf2dab96e804374a3ecbeefe0b465d8bc",
    "char --type C2 --weight -2,-1 --sigma 1 --format json":
        "b8daa9f0ce25674181ad5d7eafcf4fa83a0275fc4a7f6b2197e08fb487e4288d",
    "emac --type C2 --weight -2,-2 --spec both":
        "7b1741f5549b84c1f7e72974d38c35949e8f255947323a2ac0cf9dcc47b9efc3",
    "char --type C2 --weight -2,-2 --sigma 1 --format json":
        "1edb484db93a4d0cc8e2767109293c043663a4aa85e8ac2359a77592e8ffbc86",
    "emac --type G2 --weight 0,0 --spec both":
        "59c546cde3059a5860f16f82fcf8692d58aaf07d34c9c6b92fa108b2fe9320fe",
    "char --type G2 --weight 0,0 --sigma 1 --format json":
        "708e9e647c8c9d7c598fdb6f95c4a8a6d204f6fa33308992184ac52685fe01df",
    "emac --type G2 --weight 0,-1 --spec both":
        "fc92d9a1bfb14452eaa5b3673e4d11a13710cff7e3f914d91b74a502fba1bd8a",
    "char --type G2 --weight 0,-1 --sigma 1 --format json":
        "35de95c639a727d5e29b4711cc0ef709edbc7a7bc58b23d82f889755c577ae95",
    "emac --type G2 --weight -1,0 --spec both":
        "7fe0dace15e9e0d0cdcc218dc95c9a1fc9e73f6459b40734fb593878575cad6c",
    "char --type G2 --weight -1,0 --sigma 1 --format json":
        "1bd7b1ada14c970488debdb9e78416ddb3e7ce47da8995dad513549637f4fa7f",
    "emac --type G2 --weight -1,-1 --spec both":
        "651bfebc9257a81109107da1c7d91617cdb33506a2dbb169ffde50f1c48bad18",
    "char --type G2 --weight -1,-1 --sigma 1 --format json":
        "e2184a29537f82ffcc918d0183d0d945777722aa2c8ef8c0303b465a7918e18d",
    "emac --type A3 --weight 0,0,0 --spec both":
        "0b5a4a07973f60114aad5c5dff2748d0ca00cf2e6d693662a422887cad04b0b9",
    "char --type A3 --weight 0,0,0 --sigma 1 --format json":
        "ce7564f818b12bb50ee4f56434cd846569fa84b6e9eb07eb0e987be0da816186",
    "emac --type A3 --weight 0,0,-1 --spec both":
        "a4a620f1160fcfb1be7c07adf5dadfd52fd3b507d91705a7621ea538bcbb0068",
    "char --type A3 --weight 0,0,-1 --sigma 1 --format json":
        "3726350b111993f465a5c92779a0f976a00c656ee2ab098caeed305d10b48ea2",
    "emac --type A3 --weight 0,-1,0 --spec both":
        "27b54f846f0357d2b1354299750c5d7686cef3c846be8caec3558e1f2074886e",
    "char --type A3 --weight 0,-1,0 --sigma 1 --format json":
        "ed978bdf82c4d82fb4b79f20296a833e3a977398f353aa4225ea0a891629e973",
    "emac --type A3 --weight 0,-1,-1 --spec both":
        "73db3ee7a9a81d199d54e0f05bd537b591dda9d9a361452be6605cac3294d87e",
    "char --type A3 --weight 0,-1,-1 --sigma 1 --format json":
        "87c1c54cebaecf1c5790643572fc46c7683c426e4a1d3537894fbff4be302021",
    "emac --type A3 --weight -1,0,0 --spec both":
        "72c7477d857c6140b590e709ef302d22d3d8a68d31da7849518f63146a7e390e",
    "char --type A3 --weight -1,0,0 --sigma 1 --format json":
        "dd9a34439758bb9c092af8016b44221443b94c5c26308b85607fa3ee9f77624c",
    "emac --type A3 --weight -1,0,-1 --spec both":
        "59d29f0ddce4f4a733d226ff685c9c4ef7399820459fdede812ba0eaa77cbb18",
    "char --type A3 --weight -1,0,-1 --sigma 1 --format json":
        "19da82a47c17816c870e4db859aba39287c350ffd6034d97fef8b3ca308235f4",
    "emac --type A3 --weight -1,-1,0 --spec both":
        "0a067c617cc8dce98050bd0392131227636b6ff9d44205cebd4d0f2011f8f11d",
    "char --type A3 --weight -1,-1,0 --sigma 1 --format json":
        "e0738c3db1de44c2d6fbbff2a6f2bfc31f5684a260a436295072fab51236f57f",
    "emac --type A3 --weight -1,-1,-1 --spec both":
        "07ceccaedcedf433bd9d26bbfa2f69a31d67672379a8ea082c284fd81ba8569e",
    "char --type A3 --weight -1,-1,-1 --sigma 1 --format json":
        "f00add018d2606b84e1879005d4a9e33d90a4994dfd47072d580fb37cfa6ff7f",
    "emac --type B3 --weight 0,0,0 --spec both":
        "0b5a4a07973f60114aad5c5dff2748d0ca00cf2e6d693662a422887cad04b0b9",
    "char --type B3 --weight 0,0,0 --sigma 1 --format json":
        "ce7564f818b12bb50ee4f56434cd846569fa84b6e9eb07eb0e987be0da816186",
    "emac --type B3 --weight 0,0,-1 --spec both":
        "1a19a8176d6a8b17650f4440317b2b6273deb752719a75d1bd928aecc35999cb",
    "char --type B3 --weight 0,0,-1 --sigma 1 --format json":
        "86b6cf632289b581432b7fa05b529e6bac601ce4ca8d2f5df81952dc57741bce",
    "emac --type B3 --weight 0,-1,0 --spec both":
        "9d4662322f603c5a4f9ac578125999ce17eef6b60063095696db27c2e2794fd3",
    "char --type B3 --weight 0,-1,0 --sigma 1 --format json":
        "468560311360c7802612487bcf33edbfd4905a26b78de5c1932802d2d9a6a6d6",
    "emac --type B3 --weight 0,-1,-1 --spec both":
        "0ca28990c9b92d9fc6e9c892147476fb13bdcbf71ca3e1db97725a24382dcc84",
    "char --type B3 --weight 0,-1,-1 --sigma 1 --format json":
        "8f4e297065a1a93dbae7c872e2ee99d8e984422dfcb1edc9c3b5e45778374fe4",
    "emac --type B3 --weight -1,0,0 --spec both":
        "479f2bdf35a7ee07af41bb0094c37e369b456d9a501211c4f609242004b29a51",
    "char --type B3 --weight -1,0,0 --sigma 1 --format json":
        "e38063c71d6830baf814c2e2dc62599032195109e8320d883f35fa18c699ce81",
    "emac --type B3 --weight -1,0,-1 --spec both":
        "f86cad11a13a200bac4615d1f7462daee86b574ae06073462d5b489370c45fd8",
    "char --type B3 --weight -1,0,-1 --sigma 1 --format json":
        "07e304923c022e436d1b109cd5d9b865841058081efcb3265f7e3f30705da0b0",
    "emac --type B3 --weight -1,-1,0 --spec both":
        "6149e1200dc291d9fb09ef2c36eef244b36c00a866814b6f33f3bc2c472a3faa",
    "char --type B3 --weight -1,-1,0 --sigma 1 --format json":
        "2e8ba092c91dc63064b951c64c75ff04c257037fb069672c84476c791e64d373",
    "emac --type B3 --weight -1,-1,-1 --spec both":
        "f57aaa117b1ce2b0841ac8974376dab9b6e22d67f8bd622ac49b9804a2ac87e2",
    "char --type B3 --weight -1,-1,-1 --sigma 1 --format json":
        "04b2290df3319cb64ae17df0c720ae287b0f1abe834ffcc30cee739589310b98",
    "paths --type G2 --weight -1,0 --format json":
        "f5438b376784432cf9f8f0657ffb13a3c0b98d22d817107429048d29575e8602",
    "paths --type C2 --weight -1,-1 --reversed":
        "22f48bb41983ff494aada079bdd2a9c5e7897ac12dc6e8892d5a98e394fdb1fc",
    "paths --type C3 --weight -1,0,0 --reversed --format json":
        "e86d020963eb78e18078b0f6178f6176e2ef92d5466f418e0c800ee44149ef1c",
    "paths --type G2 --weight -1,-1 --sigma 1,2 --reversed --format csv":
        "b16bb05e4c4b2be85101073deac7e0099fd973ad23c265603b6fa00b46de59ca",
    "paths --type B3 --weight 0,-1,0 --reversed":
        "f7baed21cb6b2ec21524c521b1d6ffb140de678dfa0bad0912aa9cbe4689f3e5",
    "qbg --type G2 --format json":
        "7841854a2fa1242e2a6cc358b655660cd4c7aa7d166a3bb7d5f52e46fdb4330f",
    "qbg --type C4 --format json":
        "6bbbfa4fb1b659fd568a78808155f5410a8ce8a873defd4c90d587905fa1048d",
    "qbg --type D4 --format json":
        "64a2c9beb9202547bdeb54cb431b6618f99eb1606bec0b99bb9ed1d9dab30f46",
    "qbg --type F4 --format json":
        "269a8e50f2825edf75c604fd28d13dd2a5799d403b787ff3bb8539e5ff57d1ca",
    "paths --type A3 --weight -1,0,-1":
        "dc2a314d1ff9bc14d82244407facb20feb0fd53132b89795476a3836879bc506",
    "paths --type A3 --weight -1,0,-1 --format csv":
        "0b2484aa1ee923e554d51efad197cc41649a0d471fb3a6c49be6cb329768654c",
    "qbg --type F4":
        "bc71e1f18d9cc61bbd4d6f486c137c21ac5210415a117a784af31c3522a139ad",
    "qbg --type F4 --format dot":
        "308df8fb3c497b97a8cf01ff5f7087b3985bf198a737264df5f7d95088f9867f",
    "qbg --type G2 --format dot":
        "860b55facf5776ad78ba7bd9a8d27ed103b70f95ebfe8c4fffb953a1bedbc63e",
    "qbg --type C4 --format dot":
        "164dc09f2122c44c35b85f2d2b5f361d6f27c2a7e941dde440960d204f9962dc",
    "qbg --type D4 --format dot":
        "bf454b3b3301a344aa82137a51d1eb8b4808474b8a39819226c02e45e8f9c29d",
    "beta --type A4 --index 1":
        "5cc3a09e138ff0e7b24d44a09bc9ef589b08fef14c0e4fbf2c82818bf3e78d9d",
    "beta --type A4 --index 2":
        "b33b059d98a0dd68da2bf5a479f4e9f0351fb9662902bca3d9441e3968636e65",
    "beta --type A4 --index 3":
        "b22689958de86ee6359532d6ac5f4347cf35ba301ede2d2bc63989fd635a5fc7",
    "beta --type A4 --index 4":
        "33b7a7f6aef18a40f5c101e9d7e0897e3c1a13f9585615f0e0f05750b8ed226c",
    "beta --type B4 --index 1":
        "f8ed16cf75f6c9a6c912bef3dca53418a684d5b1f161c08c27bae96bdcfa6830",
    "beta --type B4 --index 2":
        "6e37bb16920b69bc5a1341f405c8f919cab24bd7c9ead2855f6390f0bc20c220",
    "beta --type B4 --index 3":
        "93d467aa863d48e1f3a91941711486501742529eee376ea87e4ddba17c57dd72",
    "beta --type B4 --index 4":
        "8ed421171c14605e7b1bfe9b3044d2929367eef45dfcc92241f6ad30a7526a8a",
    "beta --type C4 --index 1":
        "5fa3c12261a2085cb258f43e3adb7d47eb1f8ba32e373395d273aa386713be8c",
    "beta --type C4 --index 2":
        "a9a08f7e9f021809928dbe29741e04d114374984b22f037f6fda451a16004626",
    "beta --type C4 --index 3":
        "75d692623e6dab8575c33763a52839dfa2cb465d6eb41885f8ac89340658f65c",
    "beta --type C4 --index 4":
        "bdbebdfc3fd3e2e0303fa1daed90f56b644a188e4e80b6c3bafcbf0d158138ef",
    "beta --type D4 --index 1":
        "5f34275a5b86f3d1a34019ba4056581e88888294a151cc3d12d66ad273bbfac0",
    "beta --type D4 --index 2":
        "18f507301a108373d2141615f54517498d8f9ae7b1b4abf2ad8387d8c7e2a190",
    "beta --type D4 --index 3":
        "4868e4fc693385fbab5a0b93a34e5f1ef10f8ad6210d3d26bdcd38d1ac0d046a",
    "beta --type D4 --index 4":
        "0166f3fb1937e87820972c15226f682ff313cd0d09efd1963f5bb20140f7818e",
    "beta --type E6 --index 1":
        "f2f58b2c155b12805b48394491831563862ea08a12cda1285e048a4e96bbc26b",
    "beta --type E6 --index 2":
        "e7339591c74149ce93783384be864867440a318eddf14141adbce16ec0193ad0",
    "beta --type E6 --index 3":
        "d64467b24964dcf159ba05f3029dda7f2225eee0fc2910ebef75f482d75337d2",
    "beta --type E6 --index 4":
        "40612c4f68aea00a02e8830213f32d4d43427e7bf542c7bedf476286b9430609",
    "beta --type E6 --index 5":
        "a4c41c4c8aaade789e041d2a6eceadfd308af558b4bf2b649e9772211dc7d1f6",
    "beta --type E6 --index 6":
        "4a56bc1408db372f136b0afa3240be332d94e67a1469b00f500e4e5a2b0c6636",
    "beta --type E7 --index 1":
        "f148f20a89d6fd4f39ca6a1bee7ba0858e318d457ae308e930f6a367c1e14b07",
    "beta --type E7 --index 2":
        "3eece764284789e6b6c7b5fd3f784539995a81344c52e62f454b7024a74f9aeb",
    "beta --type E7 --index 3":
        "b8be1ed7dacedd49c180fc44aa3dc467ce5d344d46883425fa4dc65d678448de",
    "beta --type E7 --index 4":
        "c5411554c6c218d5cd56f2a335fa0e150c051bc22539df7a2575573d438755f3",
    "beta --type E7 --index 5":
        "f4999d9bca9ba5d25ba5cc6edeb66e6a3e009a1b33703db59ad66de1fdb7e8bf",
    "beta --type E7 --index 6":
        "30f8a8c266dc961cabd085022c21ba1a4efedf9e45d70551e011fbda07ca5d00",
    "beta --type E7 --index 7":
        "b66ddab2c7a3cf17776a395b1003f93117bacde70449210ffeea828855c2d172",
    "beta --type E8 --index 1":
        "6b2a9f37285246459cc211a8280ee4618b3efe6ef354683f5ccc49921052614d",
    "beta --type E8 --index 2":
        "233484ffdbcaea4099f676bcdef2b6bd3bba36bd1f71680eefac32a063e8fadc",
    "beta --type E8 --index 3":
        "5b59d79951215ac5bcbef8588057c9aaf492273c67f1ef29108e9f1c11ff285b",
    "beta --type E8 --index 4":
        "182160c0d2bca0afbf6fcc40392630921637bac02bb68dbf51d8d0ee07c15468",
    "beta --type E8 --index 5":
        "b50483ed01d85756e899ff7c5b49ceaea2a3f597ffcce25863c3188d22adee62",
    "beta --type E8 --index 6":
        "2c738562d3fe4ccafc1f4640d5f17f8792ffbca7fb20e0dce1034c73c6beda23",
    "beta --type E8 --index 7":
        "786ea4af9835f4284ee6d13bc30e154c231b5c82118156c9ca09bcf9dc74e2eb",
    "beta --type E8 --index 8":
        "c667c3095624673e20122b7be20474c3282d6bb8e95b0b31f39dcb95653ecd20",
    "beta --type F4 --index 1":
        "0728714bcc16d43bcbb939f44404f648639348fdf64c09632aa2c8403c2a06a1",
    "beta --type F4 --index 2":
        "795b2d8107c401c893ba9c62b686a1a10e1c44ef5f1e5f633ee73865148bd935",
    "beta --type F4 --index 3":
        "bc7fd03b42608bdeb2aa7d8c2ef10bdb04c4896b50af5ac55b3f796d618df630",
    "beta --type F4 --index 4":
        "d7e5f9b35ad8891e97a9b437d17a531652d501160ffd0e4148fe040600e62359",
    "beta --type G2 --index 1":
        "bbe19a68a1a092e5abed3a05e391b0da114ddb3af39520b2b117c0abcce60733",
    "beta --type G2 --index 2":
        "64a4bd66720b9a86fd6d1a12c0dae8da0aeff35c5f5e08474c424c5f0718d27b",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_stdout(capsys, argv):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
