"""Pinned (exit code, digest) pairs for a fixed list of fast CLI invocations.

Refactors of the CLI must keep every pin.  A JSON report is pinned by its
``digest`` field, a CSV report by the SHA-256 of its text, and a run that
prints nothing by ``None``.  To print the pins of the current code:

    PYTHONPATH=src python tests/test_cli_digests.py
"""
import contextlib
import hashlib
import io
import json

import pytest

import qrec.cli as cli

BAD_BRANCHING = {"type": "B3", "rank": 3, "branching": {"1": [[0, 1, 0]]}}

PINS = {
    "gen --type E6 --q 17,22,38,40,14,31 --depth 3 --format csv":
        (0, "441116f5fc94672d0b8e22af83c738689ba6ebcd1a617c3ccf8534699d035369"),
    "gen --type A1 --q 2 --depth 5 --node 1":
        (0, "4cdd827db096630171b9cf78492bb0009a9da603534f5d6d4fdf0f50b0da70b3"),
    "gen --type G2 --seed 3 --depth 8":
        (0, "13b58393ae521777f1bd6962a322d2941a996e05e55ff44acfc372d898e9fb7f"),
    "gen --type A3 --node 2 --seed 1":
        (0, "a401119192d1ca000d17fd5ecf7ae7fcd521779536321509006d25a28097f925"),
    "gen --type B3 --mode character-point --seed 7 --depth 4":
        (0, "bd187d3b274f4d5afd22af9180ab4589e0a392918edbb358b41a0dc93d2ffde5"),
    "gen --type G2 --mode dimension --depth 6 --format csv":
        (0, "17dee264d0081e8aec89eb0712d1b4e0f0b64898f2ef8a1238a59f342f99e7a5"),
    "detect --type A3 --seed 1 --node 2":
        (0, "40e6df3ce26cc42eca1ecb2ed0f0f063cb559e32cf2f2c510c555157b915579b"),
    "detect --type E6 --q 17,22,38,40,14,31":
        (0, "3a6f80ff5547f08e68a9a65437b64721aad5c01c450cf2ff81a902f5a15ae448"),
    "detect --type B3 --node 3 --seed 2 --guard 12":
        (0, "b1b46955bf3392c3b6b4e5ec75a89c3298b720609d0bbdef1bafa9c3475d6249"),
    "detect --type A2 --seed 5 --depth 20":
        (0, "9752be8b5f1ce08e207d6fc474cffa11997aa50be4aa1a3ee87900f10666bcca"),
    "detect --type G2 --node 2 --mode character-point --seed 3":
        (0, "a29cad3582ad47020d606347cf5fe31c0877032715b5ae9b5ac7ea3f14aa7237"),
    "detect --type C3 --node 2 --mode dimension --depth 40":
        (2, None),
    "detect --type G2 --seed 3 --modular 3":
        (0, "bd1a3261ef289eff2ef4f557b1c912dbf757412042fa6af824384391cf3bde45"),
    "detect --type A3 --node 2 --seed 6 --modular 4 --depth auto":
        (0, "4f43b2fc3b850e636b4c3ce9a5dc39022afa872f034921731586511ece69a704"),
    "verify --type B3 --node 1 --mode character-point --seed 7":
        (0, "6801e5c60b7a42a9dd043a5067c505625a56ddccd5435f59d4a8d3fb37325b64"),
    "verify --type G2 --node 1 --seed 11":
        (0, "35157be20774ae7aefd907ff9c4268ab271215b19c407e6375d8ad75657da3dc"),
    "verify --type G2 --node 2 --seed 3 --modular 3":
        (0, "fb68088b8c6092be381ead9d1b445e74ae491d9b0d0b71f4b24fc0c0f70fc054"),
    "verify --type A3 --node 2 --q 3,-4,5":
        (0, "49c5e0e94c968133a04ba81615811cae6544b79e7efa0b7af8e911bf4533ba23"),
    "verify --type B3 --node 1 --mode character-point --seed 7 --branching {bad}":
        (2, "52ac3d53bd500fb92ba7f443469f36418fce1de4e4d6efdbdaf2b1adf4014291"),
    "tables":
        (0, "545abf9f86fc10ba38e1bc6350ac18b63932984689dac9384d6176f770f81612"),
    "tables --type C4 --format csv":
        (0, "5a9376fde6d63a37b4a005b7096e0eb12eb7ae6c3e8b7605991ee89869d15bda"),
    "tables --type E7":
        (0, "eb03033d7dda8b9d08014f9767bf70d39b0e439171f13de27ab47b45f6bf46b5"),
    "interpolate --type A2 --node 1 --k 1 --runs 12 --degree 1 --seed 2":
        (0, "4f17f0c5439c66b2a02fd9858435c720c48b19f6640e7099fbdb6ad872469175"),
    "interpolate --type G2 --node 1 --k 2 --runs 10 --degree 1 --modular 3 --seed 1":
        (2, "d59411f7c492232349b4c09111d32938f907a53b28689fa92e5065d67c481c44"),
    "interpolate --type E6 --node 1 --k 2 --runs 40 --modular 3 --seed 1":  # 28 candidates
        (0, "84ef4c7035a663cf9636f2cbe2fdbab921eb39c0ad2c5c186bc89b28e3bbd261"),
    # one draw of order 60, not 74, makes the fit inconsistent
    "interpolate --type F4 --node 4 --k 1 --modular 3 --seed 7":
        (2, "76a15df9e1a9f9f12d8c69417728f70c19b6b67bc26b6a002f004592f80c1313"),
    "interpolate --type E6 --node 1 --k 3 --runs 40 --modular 3 --seed 8":
        (0, "f28b014f30c5ffe9be79b3732273d4d5dff609a39565feb1570f41d6db812f4e"),
    "interpolate --type E6 --node 1 --k 1 --runs 40 --seed 3":  # exact, over several rounds
        (0, "54f66eb26a08810e9ffe853a326d3fb141449e0cceb70fc8b62d1c745f238d73"),
    "dims --type G2":
        (0, "27ceafc8bad3e7df4afbcf87110d72ddeca6f79b04c75b1037ed43c21ffbe7e5"),
    "dims --type B3 --format csv":
        (0, "5e4b25c7c2059b57aab113ef08ba7ddcb9989a8113d3853b5b7da72e0b214aa3"),
    "weights --type A2 --highest 1,0 --format csv":
        (0, "ac10c775c7555b5532ae02be3e8572b314558474bf72eec782a5137e4a79c592"),
    "weights --type G2 --highest 1,0":
        (0, "2ca69379dd56dc4ab1e7f2dbc41c81cb274a421f2a820a1a79720eafc3d78132"),
    "gen --type Z9 --depth 3":
        (3, None),
    "detect --type B3 --mode character-point --modular 3":
        (3, None),
    "detect --type C7 --node 6":  # window 8261, past the depth ceiling
        (4, None),
    "doubling: detect --type G2 --node 1 --seed 4":
        (0, "4584995817abba08830d7504772b153459a1ecb5e077ad407ba7c405ea799ccc"),
    "doubling: verify --type G2 --node 2 --seed 5":
        (2, "8fd3f940590b381aeca6609ec3af498530ccad38b58bdaf4f13ba6026fb32b8c"),
    "detect --type A2 --q 1/3,3":
        (0, "f80f7006c0d0ec2ed5fe39414c3b935f9b28ebf0128542c0d4fcabdb3eaba1e6"),
    "verify --type G2 --node 2 --y 1/2,3/7":
        (0, "251a017933019d8dbfd1f3891201ea682e0aa5a1a22c39d880ad7472a2ed534f"),
    "detect --type B4 --node 4 --seed 1":
        (0, "3cc5ad26435d28cb7d35a96feb75e972dfb32ab2fe31725850aa77d629a4b820"),
    "verify --type C5 --node 5 --mode character-point --seed 12":  # 3 batches of 4 primes
        (0, "d60f15527fa4203b6d8b8a0bb982cc4da5bda358fc5f6c6702f59dfe0d8a54d1"),
    "detect --type E8 --node 7 --modular 5 --seed 2":  # order 241
        (0, "bc10a357223931e841068a0d771c63a73517b143e09b9864dddd4c97377855bb"),
    "detect --type E6 --node 2 --modular 8 --seed 1":  # order 243
        (0, "67e9b379d80560865c97dfd3f52e0110af61f66d29b08492a18bc6a41747e765"),
    "detect --type B5 --node 4 --seed 1":  # an exact window
        (0, "fee494aba92fe85b76d36fc4b7a7e00394db53c09f9f29f46208f5f80156b52b"),
    "detect --type F4 --node 2 --seed 1":  # an exact stream
        (0, "abca062de50005b0b11217d2e3c9a9f58cc84e259cb817915b0ee48bc0380475"),
    "detect --type F4 --node 2 --q=1/2,3,5/7,2":  # a stream at rational q
        (0, "388790b925d37aea625ae043f6f6f6d7a2f6dded0700b8360fe511768811aca4"),
    # an untabulated node read online modulo M: depth 325, order 145
    "detect --type F4 --node 2 --modular 8 --seed 1":
        (0, "7fa441a076d12fc9db8f52e405f7122b94341d30178f0a76bbe9cd7a20d14e13"),
    "verify --type F4 --node 2 --modular 8 --seed 1":
        (0, "700842fc9cd524568536fb7314ee6e84d3d5c33074511c7dadb5308b775f0924"),
    # rational level-1 values whose denominators share primes
    "verify --type C3 --node 2 --y 4/9,3/2,-6/5":
        (0, "ff2ffeda82de25c8680d5d849a4b31b2a68c84a4b5cfea325b99ad4c6e1ea1cd"),
    "verify --type B3 --node 2 --y 4/9,3/2,-6/5":
        (0, "0e8b5d5749e610a2e23c6a6e89f2029dbf9e2b561079fecb95d7be4ca2d7ab3e"),
    "detect --type A3 --node 2 --q 6/35,-10/21,15/14":
        (0, "7c4fbc2bbfe787365fb45065dfca9ff7f3d1d1c1e4a4b32e2380046cbb3b166a"),
    "detect --type E6 --node 1 --q 1/2,-3/7,5/4,2/9,7/3,-11/6":
        (0, "29f6fe4227e8918e78ee064611292d68550ad8c77d9be9790626bd8fe82c7515"),
    # level-1 values from the vector representation, one run per family
    "verify --type A5 --node 3 --mode character-point --seed 2":
        (0, "1a80b83dfaa07d776f7a62b0f48aec4be8c822fcbabdbebc863ea3d95dd9fd85"),
    "verify --type B4 --node 4 --mode character-point --seed 5":  # spin node
        (0, "7d3f0e0b5ad3f833917dcbf80a58280d0fcebc5de4af8ae0176e9f709f9f82d1"),
    "verify --type C4 --node 2 --mode character-point --seed 1":
        (0, "08c050add26f2f9d968cb2eb7e24c3b7279f4806f9f63437a26436eeebcb29c6"),
    "verify --type D5 --node 4 --mode character-point --seed 1":  # half-spin nodes
        (0, "a83b77ee2fc5cc847b1a116733bfd87167809db468cb36c3a1da7ff786b286b4"),
    "verify --type D5 --node 5 --mode character-point --seed 3":
        (0, "962f8a96fc08847066ca9926dc50ffbb2aee409c9ffa153a80f89d4b3bb8dd74"),
}


def outcome(argv):
    """(exit code, digest) of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    if not text:
        return code, None
    if text.startswith("{"):
        return code, json.loads(text)["digest"]
    return code, hashlib.sha256(text.encode()).hexdigest()


def run_invocation(text, tmp_dir, patch):
    """Runs one pinned invocation; ``doubling:`` ones see no tabulated order."""
    bad = tmp_dir / "bad_branching.json"
    bad.write_text(json.dumps(BAD_BRANCHING))
    argv = text.removeprefix("doubling: ").format(bad=bad).split()
    if text.startswith("doubling: "):
        patch(cli, "predicted_order", lambda lt, a: None)
    return outcome(argv)


@pytest.mark.parametrize("text", PINS)
def test_cli_digest_pinned(text, tmp_path, monkeypatch):
    assert run_invocation(text, tmp_path, monkeypatch.setattr) == PINS[text]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for text in PINS:
            original = cli.predicted_order
            pin = run_invocation(text, Path(tmp), setattr)
            cli.predicted_order = original
            print(f"    {text!r}:\n        {pin!r},")
