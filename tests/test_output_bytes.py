"""The output-bytes contract: report and conditions JSON, attractor CSV and PNG
are byte-identical for identical inputs, across refactors as well.

Each digest is the sha256 of the bytes `mwlab` writes for one bundled example
at a fixed small depth (PNG at the default width). A change that alters any
of these bytes must say so and re-pin them. Text reports carry wall-clock
timings, so they are not pinned. The same digests hold with every row-block
pass over a finished cloud cut into blocks of 2 and of 3 rows.
"""

import hashlib
import io

import pytest

from mwlab.cli import main
from mwlab.datasets import list_bundled

DEPTHS = {"binary_ifs": 8, "cantor_ifs": 8, "duplicate_map": 8, "penrose": 8,
          "squares_z2": 5, "two_part_dust": 7}

DIGESTS = {
    "binary_ifs": {
        "report": "ddf529b8d37ce58df7fc1b870cfbdd79c42c7801794852cd2a7a2065061a710b",
        "conditions": "7a5241a17253910a7fb6a008e1dc7b40b831aac342144ef0d0cf5948dcb16ae7",
        "csv": "81353e950bf36294b271fe6b3c48ebc07d04ddee78e0f7ebfa3c8f3c2937105d",
        "png": "c6f5890997d786c811bdd21892fedaa9f112a3ac28564d8fa98fafc3204b6cbb",
    },
    "cantor_ifs": {
        "report": "166076566832daf8705adff96be76201c13c21bf1795c9c125d47e621db3fe0c",
        "conditions": "77ac1845565d46507990a657bc487c41698c13f722810e82a63e898d849c2332",
        "csv": "20cf3ca95d840192f2a13a32e609348630e99f18b0574f4cac29193ca633ec91",
        "png": "8cfe93645de6d1f84d9638ab5eb9fbbc0d7a2f690ecefebde3918888b4ccddf6",
    },
    "duplicate_map": {
        "report": "ed7fa1bfe839b503d38f38df7370cc7e786b070ec08d3eab748889050596a5c8",
        "conditions": "4f3a6b500052cf1d0399cb151fcd7204d2d83ec8d23530917cee143e58bafa8c",
        "csv": "b9b08ad6a9dbbb1128e03ba5bc6fbbeeeabb88c11a9bc7325ac5826a8f28c62b",
        "png": "9721f575de599b3a7a708958bcdbbd81938ae536454296fe5371d7d6f9997f2f",
    },
    "penrose": {
        "report": "049238a8b68004afe383366a2927eb992c0fa75e8b59008c5bec3ac05c941e9c",
        "conditions": "1afeeee9e4b376ed92f021f308a70508eb56336ad3123e352fd9e3aa3d49b013",
        "csv": "3716292b096b071dd9c96b149c77b6300b10b3112c979de13da32046884905f7",
        "png": "12d05a467707ce8532132652db8f98052bafd9b59e2a5e3fa5885693d46f8542",
    },
    "squares_z2": {
        "report": "edbc7628d1370ce4c4e66bc0cc44083beee0180bbaa34f84e86f88e61eba1938",
        "conditions": "38e6b4220bc399bc2c57fcb8d741dc56806ad6261e0a47dd97de3cf55f7d1133",
        "csv": "02a01fa691d6683e0d9ae9abdcebf07e5f11b8ea14d1dc0e3e34ed105263398b",
        "png": "593e3bf6d6c7b97484d15c371037e748ab9372950843281a2112998eb30529ec",
    },
    "two_part_dust": {
        "report": "f76e8104e58122d3729d598e845c056257e4ee73cbf09801aabb3246d038fd92",
        "conditions": "9eece9362f175ffda450de42809c567e7e72313353ec9e8c4c971a76df775b00",
        "csv": "b8fd7a93b0d8f91134245461cffb1746fde73bbdaf05b888537954e22cce2c51",
        "png": "b6040dfc184b24719eb3319530b663029e22395ff9ffef57c081f005de02d798",
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_bundled_example_is_pinned():
    assert sorted(DIGESTS) == list_bundled() == sorted(DEPTHS)


@pytest.mark.parametrize("command", ["report", "conditions"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_json_bytes(name, command):
    out, err = io.StringIO(), io.StringIO()
    code = main([command, name, "--depth", str(DEPTHS[name]), "--format",
                 "json"], out=out, err=err)
    assert code == 0, err.getvalue()
    assert _sha256(out.getvalue().encode("utf-8")) == DIGESTS[name][command]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_csv_and_png_bytes(name, tmp_path):
    csv, png = tmp_path / "cloud.csv", tmp_path / "cloud.png"
    err = io.StringIO()
    code = main(["attractor", name, "--depth", str(DEPTHS[name]), "--csv",
                 str(csv), "--png", str(png)], out=io.StringIO(), err=err)
    assert code == 0, err.getvalue()
    assert _sha256(csv.read_bytes()) == DIGESTS[name]["csv"]
    assert _sha256(png.read_bytes()) == DIGESTS[name]["png"]


@pytest.mark.parametrize("command", ["report", "conditions"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_json_bytes_in_small_blocks(name, command, small_blocks):
    # the residual, the branch scan and the writers cut each cloud into
    # blocks of a few rows; the bytes are those of whole-cloud passes
    test_json_bytes(name, command)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_csv_and_png_bytes_in_small_blocks(name, tmp_path, small_blocks):
    test_csv_and_png_bytes(name, tmp_path)
