"""Byte identity against recorded output digests.

Criterion 9 compares a run with a rerun of the same code; this module
compares against SHA-256 digests recorded from the dict-of-tuples corpus
implementation (numpy 2.4, scipy 1.17), so a rewrite of the corpus layer
must reproduce every byte that `gen` and `report` wrote before it.
"""

import hashlib
from pathlib import Path

from citerank.cli import main

GEN_ARGS = ["--journals", "300", "--mean-out", "20", "--seed", "3"]

GEN_DIGESTS = {
    "citations.csv": "c9adb5e1b60d70677cf5fead5c8bed33e4c821f1b9769ff32ed8a138e3e0448a",
    "journals.csv": "185cd9444296da4a44c3e1df090c175be2523596919c552c69f04ee188df5ca4",
}

GEN_REPORT_DIGESTS = {
    "eigenfactor.metric.json": "4da9bb397e7ab28f0e76118472cedc4fbdd6607c1f9217189fda8dd7dcc83cf7",
    "eigenfactor.ranks.tsv": "f875b04498a56be952921d4f2fefc0780548da4f17830e4ac258ac70930b71f4",
    "eigenfactor_vs_impact_factor.report.json": "d48ffb65862c71f9021fc16bbc1093e8c788de954bac531736c80c7937fcd6ae",
    "eigenfactor_vs_impact_factor.scatter.tsv": "069b91d5784c962aaad7323b8d57aff2d43fa0bb1bef7449c89cd94a73967494",
    "eigenfactor_vs_total_citations.report.json": "1dd7ac6347ec8eeb488ac5077fa5a322fe6b1636648a05f1d859cb0c3a7cea52",
    "eigenfactor_vs_total_citations.scatter.tsv": "6a724c2a39755d2fc332dd7681abd3a6e71c2251aae895a1d7c072ce4e2171dc",
    "impact_factor.metric.json": "3666b5c9aae32676bce7e49c18ac5023092cbd44564c9df237ec5828f19ed11f",
    "impact_factor.ranks.tsv": "e73b13bbb010b06977a6c41bae591da7782f2a05b0335b196ca07b3f523419d4",
    "report.json": "7e2b8d19c579cb06fc772f4c6b23fec9d68e5b5d78f72ce59430cccdb967639b",
    "total_citations.metric.json": "df08cb16f8a959b14e3c880e28cb51742ef456136ff673b0a6397fc3e7cab6c4",
    "total_citations.ranks.tsv": "7a86597c68bfb92e2b800c68442336e44cb7be39df58092c4e5644188123da54",
    "total_citations_vs_impact_factor.report.json": "43c74edd4a068a689fbc9a801bddda5d1988a5059a3bba2a581b0df011903274",
    "total_citations_vs_impact_factor.scatter.tsv": "4736ccf3d1748876091c6d2f229d74e50c1a98bdf86574ccdf51645841eac03d",
}

TOY_REPORT_DIGESTS = {
    "eigenfactor.metric.json": "e2b877d52e3a2dab6ebd169047298c0faaef0a287fc31f68dfa216862073681c",
    "eigenfactor.ranks.tsv": "3a6bc5d60a5fe0fbd9ff9e5ecea256e0c07cb53113f15f291a6122edbb49c9c5",
    "eigenfactor_vs_impact_factor.report.json": "d1cc740ae4e30d22b4906cf21379947a5316c4fcafd9343c6da9f2e07e617dcd",
    "eigenfactor_vs_impact_factor.scatter.tsv": "8fcf33152ad44b8a9a6683988e7c69c82c379f2137cfb1069ae9eabb2e5d001d",
    "eigenfactor_vs_total_citations.report.json": "c2c9d7d0946ed2da247c34cb603404420e2cfdc80b9dd692ad3c0bbb2c0b4aef",
    "eigenfactor_vs_total_citations.scatter.tsv": "eab27c2a398687c1129e7ce99b85f88e959c78965cf2b3f3bdb5aedf32789e76",
    "impact_factor.metric.json": "cd8633fd3bb8fea5f1b41ddb930c8594eac0782dc8c21323b1ab82cc6c3435f8",
    "impact_factor.ranks.tsv": "f9a9275598ecc2736705d10cdae88bf2add7025cdf752c03e03486eddb1a693b",
    "report.json": "7645f8160c39f6afff624b15ca1569074a05590c1e317543a5fa80d97b01403c",
    "total_citations.metric.json": "1f937ca0692f2338de98577e2ec8b91bcab8d02b2e61ec49cca0f15e8f49fcdf",
    "total_citations.ranks.tsv": "5fa853eff76e53773ed1e9a6c98513f2f91a85211758ab0224c7ee28c05b3dd5",
    "total_citations_vs_impact_factor.report.json": "c2f8821e3b96a3b4abc22ed388559b27c6ee5ca819b66ab914fe3b226d08be17",
    "total_citations_vs_impact_factor.scatter.tsv": "7b910d997a2d2d376a2c833ef4dcc2280e3755df34f06a5553697203c2e63fbe",
}


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def report(journals: Path, citations: Path, out: Path) -> dict[str, str]:
    assert main([
        "report", "--journals", str(journals), "--citations", str(citations),
        "--census-year", "2006", "--out", str(out),
    ]) == 0
    return digests(out)


def test_gen_and_report_match_recorded_digests(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["gen", *GEN_ARGS, "--out", str(gen)]) == 0
    assert digests(gen) == GEN_DIGESTS
    assert report(gen / "journals.csv", gen / "citations.csv", tmp_path / "rep") == GEN_REPORT_DIGESTS


def test_toy_report_matches_recorded_digests(tmp_path, toy_paths, capsys):
    assert report(*toy_paths, tmp_path / "toy") == TOY_REPORT_DIGESTS
