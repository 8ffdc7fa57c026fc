"""The six counties' segment lists, pinned byte for byte.

One SHA-256 per (county, scale) over ``world_size`` and every segment's
four integer endpoint coordinates, packed little-endian in list order.
The committed records (REPORT.json, the benchmark baselines) and the e2e
snapshots are built from these lists, so a change to the generator's
``random.Random`` call order or float arithmetic shows here first. The
digests were taken before the generator's hot loops were rewritten and
hold on both sides of that rewrite.
"""

import hashlib
import struct

import pytest

from repro.data.counties import generate_county

DIGESTS = {
    ("anne_arundel", 0.02): "57b002875b2816c2c71f8fbd46dab9552c12537eee07214b5622090d66562dbb",
    ("baltimore", 0.02): "770e4521bc4e94cdd71af3246149f436dcd56beef0b372e44864702d06472a0d",
    ("cecil", 0.02): "287cd5a9873722ba0950258fee8475459a884e2c46716fe5ed2cf5ca6941a9ef",
    ("charles", 0.02): "ba869811a668292e1b81ffe4b0daab7e2019d5c935ed535a840f7f39f6d7d41d",
    ("garrett", 0.02): "4ca9f4508fcbb5ad69241048367b9b539eb65e3d4305c35641c25912af68351d",
    ("washington", 0.02): "0f310703e50f040b78e7035611cd8d77b7251baa68e5f8a375075e9d1fd1f242",
    ("anne_arundel", 0.05): "8f07584a52878bdbd21fa950a814e2e9e8d0976dc44d9b61de7d83e0a8652118",
    ("baltimore", 0.05): "6b4a3fda022fb011a622f5cfb23a5a464bc8bb855834af74ec2427838e1879c9",
    ("cecil", 0.05): "e06e7754a5ed42fce7d25b62e980d1e0ecdce5305ddb14ebb2b71438a0c1261c",
    ("charles", 0.05): "c2fe3f23dd8e3e8366d299737fc5a92e9213c632881ebfbbc086246ea48c97f8",
    ("garrett", 0.05): "a407431abc759418d631b4c7416ebee90ba2871f2536c882d5f1ed130f95e6d4",
    ("washington", 0.05): "be95ee0758d121b458233c6725a69d8ffee59b184b02a8dd67b5d9cd48156015",
    ("anne_arundel", 0.1): "bf88571064e3da5c2d94af0da27dac0dffe7de67e5c3b4c4ff8ef813f6efd2d8",
    ("baltimore", 0.1): "243e7cab989564dc7e2e33c2bcf15cf093c14082ca8147475cbb7ed0b7f793cf",
    ("cecil", 0.1): "ce823f874d551c8b083e57744960102becc139fd1e9f113bea2c1da8ed294ef9",
    ("charles", 0.1): "a496ad5bb859182efd167a96d37923708040f1df4abce98047b762815fa8f7da",
    ("garrett", 0.1): "297a7464d9fe2b482b1729e7cbc3dde76e291056411f2ac651344c53da80e4a1",
    ("washington", 0.1): "eb82f80122b8ef64304d2619a7607eeefdaab0185c1c52d6e19b29fdabe8fd82",
    ("anne_arundel", 1.0): "29ce00d1e8d5df1fcac3369c129d5532e93c666a8fe44222ced02215ff1e14e4",
    ("baltimore", 1.0): "b39be1afe678408404e0ca5ece8a9a39d76a0523efadb9730f129a0db73a873d",
    ("cecil", 1.0): "47511e24ec54c51b07cf7fa70b5de74d85c7c67436c98676c82923b8b545d429",
    ("charles", 1.0): "86aa81fdffaabbb084fd15062bbb69b04e7723e9d81ea9305fcb1311fa757bcb",
    ("garrett", 1.0): "6b83bbf3007dc4998ea5fa7496e38161eacecea22270647355ce6ab37bb03c43",
    ("washington", 1.0): "458e8d2984131d169ba3bdeb99b480e01b2806afae6b3468d92a6fefcfc86580",
}


def digest(map_data) -> str:
    h = hashlib.sha256(struct.pack("<i", map_data.world_size))
    for s in map_data.segments:
        h.update(struct.pack("<4i", *s))
    return h.hexdigest()


@pytest.mark.parametrize("county,scale", sorted(DIGESTS))
def test_county_digest(county, scale):
    assert digest(generate_county(county, scale)) == DIGESTS[county, scale]
