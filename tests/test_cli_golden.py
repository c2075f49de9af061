"""Byte-for-byte pins of the CLI's standard output.

Each case runs one command in-process on fixed n = 2 and n = 3 inputs, or
on the fibre commands' permutations and orbit ids, and compares the sha256
of its standard output (and its exit code) with a recorded value.  Refactors of the invariant kernels must leave every digest
unchanged; a deliberate output change has to re-record the digest here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from gridorbits.cli import main
from gridorbits.parametrizations import sw_array
from gridorbits.serialize import map_tuple_from_json, sw_array_from_json

# n = 2: a rational point in the orbit of diag(0, 1, 1), and a second orbit.
N2_MESSY = {"n": 2, "maps": [[["0", "3/2", "-1"], ["0", "2", "5"], ["0", "0", "1/3"]]]}
N2_OTHER = {"n": 2, "maps": [[["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]]}
# n = 3: a Borel conjugate of the published size-4 pair (decomposes), the
# pair itself, a dense rational point, and a pair whose windows force
# incompatible matchings (no thin decomposition).
N3_PAIR = {
    "n": 3,
    "maps": [
        [["0", "0", "0", "1"], ["0", "-1", "1/2", "-1/2"], ["0", "0", "0", "3"], ["0", "0", "0", "-1"]],
        [["1/2", "0", "-1/2", "-3"], ["0", "0", "1", "3"], ["0", "0", "1", "4"], ["0", "0", "0", "-1"]],
    ],
}
N3_CANON = {
    "n": 3,
    "maps": [
        [["0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    ],
}
N3_DENSE = {
    "n": 3,
    "maps": [
        [["0", "0", "1", "-2"], ["0", "2", "1/2", "3"], ["0", "0", "0", "1"], ["0", "0", "0", "-1"]],
        [["-1", "2", "0", "1"], ["0", "0", "1", "-1"], ["0", "0", "3", "2/3"], ["0", "0", "0", "2"]],
    ],
}
N3_REJECTED = {
    "n": 3,
    "maps": [
        [["0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
        [["1", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
    ],
}
BAD_ARRAY = {
    "n": 2,
    "windows": [{"j1": 1, "j2": 1, "table": [[2, 2, 2], [None, 0, 0], [None, None, 0]]}],
}
# every double difference is 0 or 1, yet the pivots (1,1) and (1,2) share a row
REUSED_PIVOTS = {
    "n": 2,
    "windows": [{"j1": 1, "j2": 1, "table": [[1, 2, 2], [None, 0, 0], [None, None, 0]]}],
}

INPUTS = {
    "n2_messy": N2_MESSY,
    "n2_other": N2_OTHER,
    "n3_pair": N3_PAIR,
    "n3_canon": N3_CANON,
    "n3_dense": N3_DENSE,
    "n3_rejected": N3_REJECTED,
    "bad_array": BAD_ARRAY,
    "reused_pivots": REUSED_PIVOTS,
}

HOM_231 = ["hom-report", "--w", "2,3,1", "--orbit"]
HOM_231_FLAGS = ["--qs", "2,3,4,5,7,8"]
# 5^6 arrow tuples exceed the budget although 5^3 horizontal tuples do not
HOM_REFUSED = HOM_231 + ["identity", "--qs", "2,3,4,5", "--budget", "1000"]

# case id -> (argv with input names in braces, exit code, sha256 of stdout)
GOLDEN = {
    "rank-vector-n2": (["rank-vector", "{n2_messy}"], 0,
        "ee6e6cb317180e999362429b79797e269b6811a97ca684fead6c62cd5aa64f0e",
    ),
    "rank-vector-n3": (["rank-vector", "{n3_pair}"], 0,
        "2e77d43255eec9434fba2c84ed2346d2274cc08b92d7378cc8a30a7032d33bbe",
    ),
    "rank-vector-n3-dense": (["rank-vector", "{n3_dense}"], 0,
        "5f1b7abab51fb069bf019f59159f4c0855fbde076197784b4014b82e151a1369",
    ),
    "sw-array-n2": (["sw-array", "{n2_messy}"], 0,
        "2308da221c3e811ca91bd3e993ffe01b0c514db7f478f93e23adb38a53b85956",
    ),
    "sw-array-n3": (["sw-array", "{n3_pair}"], 0,
        "fff56b06f5891b2bbf13e8bc2337513c24b568c982b10080fbe5d2956bb7f016",
    ),
    "sw-array-n3-dense": (["sw-array", "{n3_dense}"], 0,
        "0d5caaa85217d21ec784b1cc7e4677a5f8bcb8fb3085680b60d93e77b1cb733a",
    ),
    "decompose-n2": (["decompose", "{n2_messy}"], 0,
        "d91e3240253623551854e4810170339210f6845749434798d957a5c7621eb786",
    ),
    "decompose-n3": (["decompose", "{n3_pair}"], 0,
        "ed846c5ff038c7063d6629a1ccf165312a133948deed5d6cd03d64183afcca5b",
    ),
    "decompose-n3-rejected": (["decompose", "{n3_rejected}"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "decompose-n3-dense": (["decompose", "{n3_dense}"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "canonical-n2": (["canonical", "{n2_messy}"], 0,
        "c76506ffb42ef9916ff5d5026a7eec063e8421aa69b6929578717c689d6089b8",
    ),
    "canonical-n3": (["canonical", "{n3_pair}"], 0,
        "f5afc577b72f9d143177366e4dd85a951420ab6377b0f005cdb0aae1cda4d359",
    ),
    "same-orbit-true": (["same-orbit", "{n2_messy}", "{n2_messy}"], 0,
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ),
    "same-orbit-false": (["same-orbit", "{n2_messy}", "{n2_other}"], 0,
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ),
    "same-orbit-n3-true": (["same-orbit", "{n3_pair}", "{n3_canon}"], 0,
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ),
    "same-orbit-n3-false": (["same-orbit", "{n3_pair}", "{n3_rejected}"], 0,
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ),
    "degenerates-down": (["degenerates", "{n2_messy}", "{n2_other}"], 0,
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ),
    "degenerates-up": (["degenerates", "{n2_other}", "{n2_messy}"], 0,
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ),
    "degenerates-n3-down": (["degenerates", "{n3_pair}", "{n3_rejected}"], 0,
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ),
    "degenerates-n3-up": (["degenerates", "{n3_dense}", "{n3_rejected}"], 0,
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ),
    "validate-array-n3": (["validate-array", "{n3_pair_array}"], 0,
        "a0e3c4460b5fe3a7c4e1f870498bd323f656529245edd421178be5b4b4fa9976",
    ),
    "validate-array-n3-rejected": (["validate-array", "{n3_rejected_array}"], 0,
        "bb14f0e5a0fd00a18800001269c17088296085ca053f8764bf80d18f86c86cb3",
    ),
    "validate-array-bad": (["validate-array", "{bad_array}"], 0,
        "3ec512ae26c5e4956ee8938683d57ccb484b436ca1609b1ffc4fb9a0f93c56fb",
    ),
    "validate-array-reused-pivots": (["validate-array", "{reused_pivots}"], 0,
        "daea2af915c82239b25a418582849f74a9ede027383c80227638dd8bd1e481d8",
    ),
    "schubert": (["schubert", "--w", "2,3,1"], 0,
        "53b32f49a0d1801e9d4c6c2dc95c8a2db57276e6fcc5ba2dd8fa2e5e19955e4a",
    ),
    "orbits-json": (["orbits", "--n", "2", "--format", "json"], 0,
        "e318ebf91ef7df28771dc417f436b8e2760eae96418c920fb84a32703efe974c",
    ),
    "orbits-csv": (["orbits", "--n", "2", "--format", "csv"], 0,
        "6ea652030ab6b1a4739f05530887d7202e4e0d2df8561dbbe3793c9882e1f97d",
    ),
    "orbits-dot": (["orbits", "--n", "2", "--format", "dot"], 0,
        "82cb41eca97792f671645a81ebdae0d33505d734c77193932ebb3f63bb87cf6d",
    ),
    "poset-json": (["poset", "--n", "2", "--format", "json"], 0,
        "8162772d440547f388c0863bd4ee7d1d3bcfdbe8bd48d8d76363e6b154712cc0",
    ),
    "poset-dot": (["poset", "--n", "2", "--format", "dot"], 0,
        "82cb41eca97792f671645a81ebdae0d33505d734c77193932ebb3f63bb87cf6d",
    ),
    # the 2,704 orbits at n = 3 and their 13,080 covers
    "poset-json-n3": (["poset", "--n", "3", "--format", "json"], 0,
        "d1247b0b06dad3b6ad5102d4df8d6bd50357e205e563483b965554f82993d1d3",
    ),
    "count-report": (["count-report", "--n", "2"], 0,
        "27061edac6a76f1d5e201f57b8ade8bd23bad2d010fafc96ca975a14ba904b43",
    ),
    # 2,704 enumerated orbits, 3,402 F_2 census arrays
    "count-report-n3": (["count-report", "--n", "3"], 0,
        "9f62e2809997304ed312b7d4c40189c99b097e7507d75a019aaee11906cf4f7f",
    ),
    "flat-scan-231": (["flat-scan", "--w", "2,3,1", "--qs", "2,3,4,5,7"], 0,
        "b0062560b27227c2b5743921bf485f149bfac759e882463568980b4952c10180",
    ),
    "flat-scan-312": (["flat-scan", "--w", "3,1,2", "--qs", "2,3,4,5,7"], 0,
        "da2068650f3831ea4ddc33b45ba189586c69135529191d92edc7b966996931be",
    ),
    "hom-report-231-identity": (HOM_231 + ["identity"] + HOM_231_FLAGS, 0,
        "ce87ef1ad55e49eea2dce8aa567527151610ea8d1c22071b87791972791b526d",
    ),
    "hom-report-231-zero": (HOM_231 + ["zero"] + HOM_231_FLAGS, 0,
        "fe4574f9c87b593d4a5b467793b0677de8ef6f4b7c1d950ae748c2e3fe259c2c",
    ),
    "hom-report-231-orbit7": (HOM_231 + ["7"] + HOM_231_FLAGS, 0,
        "e65dc880d020a2881a88ac0ed7e81c0988a05e8ebe6709c117e97ac021949f00",
    ),
    "hom-report-321-identity": (["hom-report", "--w", "3,2,1", "--orbit", "identity"], 0,
        "1d7884dbad07f54c1a5b455b5f7ec3fa407a0eed6340cac2340d4c10906d78bc",
    ),
    # nine coordinate subrepresentations, the audit ranks the first eight
    "hom-report-321-zero": (["hom-report", "--w", "3,2,1", "--orbit", "zero"], 0,
        "df58ca213e41b9451058e78f5ae9df59b0d8d80d2fcf885c1592f49eb6fb86a2",
    ),
    "hom-report-budget-refused": (HOM_REFUSED, 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # the listing the census benchmark checks: 2,704 records with their maps
    "orbits-json-n3": (["orbits", "--n", "3", "--format", "json"], 0,
        "104fe6082a74102bbb17dd526d70e47fb9713060e06f9432208681fdc36ab910",
    ),
    "orbits-csv-n3": (["orbits", "--n", "3", "--format", "csv"], 0,
        "2e08079579b720f7e6426902e3730ea15bb3fb422dbb427009607b07ad9abf38",
    ),
    # the Hasse diagram the census benchmark checks; both commands print it
    "orbits-dot-n3": (["orbits", "--n", "3", "--format", "dot"], 0,
        "7cd9a2bfb8189bd5afd4639b2adebe324816fc25d2508517f4cedced57f66d45",
    ),
    "poset-dot-n3": (["poset", "--n", "3", "--format", "dot"], 0,
        "7cd9a2bfb8189bd5afd4639b2adebe324816fc25d2508517f4cedced57f66d45",
    ),
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, obj in INPUTS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    # the arrays of the n = 3 points, as the sw-array command writes them
    for name in ("n3_pair", "n3_rejected"):
        code, out, _ = run_main(["sw-array", paths[name]])
        assert code == 0
        path = root / f"{name}_array.json"
        path.write_text(out)
        paths[f"{name}_array"] = str(path)
    return paths


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_digest(case, input_files):
    argv, want_code, want_digest = GOLDEN[case]
    code, out, _ = run_main([arg.format(**input_files) for arg in argv])
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


def test_rejected_point_message(input_files):
    code, out, err = run_main(["decompose", input_files["n3_rejected"]])
    assert (code, out) == (2, "")
    assert err == (
        "error: no multiset of thin summands reproduces the rank vector: the "
        "point's maps cannot be reduced to partial permutation form "
        "simultaneously\n"
    )


def test_refused_rep_variety_message():
    code, out, err = run_main(HOM_REFUSED)
    assert (code, out) == (2, "")
    assert err == "error: representation variety has q^6 candidate points\n"


def test_rejected_point_realises_its_array(input_files):
    # validate-array decides realisation by a direct sum of thin summands:
    # the rejected point realises its own array, yet no such sum does
    with open(input_files["n3_rejected_array"], encoding="utf-8") as fh:
        arr = sw_array_from_json(json.load(fh))
    assert sw_array(map_tuple_from_json(N3_REJECTED)) == arr
    code, out, _ = run_main(["validate-array", input_files["n3_rejected_array"]])
    report = json.loads(out)
    assert code == 0 and report["inequalities_ok"] and not report["realizable"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_out_file_holds_the_printed_bytes(case, input_files, tmp_path):
    # with --out the command prints nothing and writes the bytes it prints
    # without it; a refused command writes no file
    argv, want_code, want_digest = GOLDEN[case]
    path = tmp_path / "out"
    code, out, _ = run_main([arg.format(**input_files) for arg in argv] + ["--out", str(path)])
    assert (code, out) == (want_code, "")
    if want_code:
        assert not path.exists()
    else:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want_digest
