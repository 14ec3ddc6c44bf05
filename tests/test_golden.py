"""Byte identity against recorded output digests.

Criterion 9 compares a run with a rerun of the same code; this module
compares against SHA-256 digests recorded from the dict-of-tuples corpus
implementation (numpy 2.4, scipy 1.17), so a rewrite of the corpus layer
must reproduce every byte that `gen` and `report` wrote before it.  The
two `report.json` digests were recorded again when that file became an
index of the other files.  The `report` digests that depend on eigenfactor
(`eigenfactor.*`, `eigenfactor_vs_*.*` and `report.json`) were recorded
again when `report` began to score eigenfactor through `rank`'s path, on the
5-year cited window; its `eigenfactor.*` digests now equal `rank`'s.  The
pair `*.report.json` and `report.json` digests were recorded again, and the
`*.stats.json` digests added, when each metric's concentration shares and
rank gaps moved out of the pair files into one stats file per metric.  Every
other digest is the original.

The `rank`, `ingest` and script digests were recorded before the journal
axis became columnar (journals.csv parsed into columns, metric vectors held
as score arrays); they cover the files and the printed output of every
other command whose writers that rewrite touched.
"""

import hashlib
from pathlib import Path

import pytest

from citerank.cli import main

from conftest import load_script

GEN_ARGS = ["--journals", "300", "--mean-out", "20", "--seed", "3"]

GEN_DIGESTS = {
    "citations.csv": "c9adb5e1b60d70677cf5fead5c8bed33e4c821f1b9769ff32ed8a138e3e0448a",
    "journals.csv": "185cd9444296da4a44c3e1df090c175be2523596919c552c69f04ee188df5ca4",
}

GEN_REPORT_DIGESTS = {
    "eigenfactor.metric.json": "75f2c4f0cb1b29e588743bf47c2145d6e246bc5f22e8e810ff217ffb496125a5",
    "eigenfactor.ranks.tsv": "79f628ebcba957b570d2fd374ac99e3f831b5ed073df30953535a2d9ace02c73",
    "eigenfactor.stats.json": "d53a4903c92a32196b9b7dcafc8da93d5485b6290a0d1b796672ab5c1e0378a2",
    "eigenfactor_vs_impact_factor.report.json": "d580b4db0a188a874d0cb2c1e3830fa5241dd18180c139631c5810993cfeb879",
    "eigenfactor_vs_impact_factor.scatter.tsv": "ee941bbd55e65dbd8f240c929b6e44f0f1d8d2b9a372b288b40713ec41257f9f",
    "eigenfactor_vs_total_citations.report.json": "dbc9bcbdfe5eb7629571320f52b327a4ccb9ee9d1da270e7193d90dd460a6491",
    "eigenfactor_vs_total_citations.scatter.tsv": "0ba7b6eeef0a43bfa6b9c75edb8e670dcd433010579c4d7666368ec29bdb312d",
    "impact_factor.metric.json": "3666b5c9aae32676bce7e49c18ac5023092cbd44564c9df237ec5828f19ed11f",
    "impact_factor.ranks.tsv": "e73b13bbb010b06977a6c41bae591da7782f2a05b0335b196ca07b3f523419d4",
    "impact_factor.stats.json": "c61d72e1a2b47d84c01ca82f4038c174ca61a5e19b09756e22306a2aae3be32c",
    "report.json": "53cec08910ad18059e0f768d8ed8434008fc4b007df2941f5e5e3083890e4ca2",
    "total_citations.metric.json": "df08cb16f8a959b14e3c880e28cb51742ef456136ff673b0a6397fc3e7cab6c4",
    "total_citations.ranks.tsv": "7a86597c68bfb92e2b800c68442336e44cb7be39df58092c4e5644188123da54",
    "total_citations.stats.json": "14d72470b97ce65f9f1059529f4fbfcf84f3f90c3ef979d2f0718df2d9236cf6",
    "total_citations_vs_impact_factor.report.json": "93586228dad18e1102b9665b72272db3d5d9da77c484726911b5a82d01c5064e",
    "total_citations_vs_impact_factor.scatter.tsv": "4736ccf3d1748876091c6d2f229d74e50c1a98bdf86574ccdf51645841eac03d",
}

TOY_REPORT_DIGESTS = {
    "eigenfactor.metric.json": "8fc42840f4cdb0b2130e520c4927d5b6fd0ddace719abd73bf362b5e04f2ca78",
    "eigenfactor.ranks.tsv": "d57a97805e82720ca2b0f406cb6cb1140753df774f2e2139ed2155614b4b704c",
    "eigenfactor.stats.json": "eb2a4784109f1e65a9b80b5bfbebe5911d56537715571fd69ebc790c4b8e08d1",
    "eigenfactor_vs_impact_factor.report.json": "e4675b9847dfe7387414dd73d0d543424b9d9fadd5f370052ef07bd2a3219a40",
    "eigenfactor_vs_impact_factor.scatter.tsv": "cb70c6215536c28e7f5b0a3f222db8284cfc96600e08677d60830b80831a49b4",
    "eigenfactor_vs_total_citations.report.json": "b81aaf659dc2fc201429a1563c155ae7c666f61370eaf0fbe6eefd56780af9fd",
    "eigenfactor_vs_total_citations.scatter.tsv": "ad38d70adf1ee22d468075d92f8a05a8a41f6a480f474661f8c090688ac04e74",
    "impact_factor.metric.json": "cd8633fd3bb8fea5f1b41ddb930c8594eac0782dc8c21323b1ab82cc6c3435f8",
    "impact_factor.ranks.tsv": "f9a9275598ecc2736705d10cdae88bf2add7025cdf752c03e03486eddb1a693b",
    "impact_factor.stats.json": "f5d04bcd12f6a25ed6ca6a850043a1b642cf8261963e41bfaafd296e068d63a9",
    "report.json": "6c72fbbc3bb122f9d967b029a488bba6a71bf09de83e61a5c021a83883d6666a",
    "total_citations.metric.json": "1f937ca0692f2338de98577e2ec8b91bcab8d02b2e61ec49cca0f15e8f49fcdf",
    "total_citations.ranks.tsv": "5fa853eff76e53773ed1e9a6c98513f2f91a85211758ab0224c7ee28c05b3dd5",
    "total_citations.stats.json": "23a4dc4a279589eb526f10c9d9c370e4379b280b921c5e6d42a5af8e673bc330",
    "total_citations_vs_impact_factor.report.json": "685c30fec354d2b53f1891b26992d31af01c67a8bde9ddbebc95373b0b870c66",
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


RANK_ARGS = {
    "eigenfactor": ["--method", "eigenfactor", "--census-year", "2006"],
    "citations": ["--method", "citations", "--top", "0"],
    "impact-factor": ["--method", "impact-factor", "--census-year", "2006"],
}

RANK_DIGESTS = {
    ("toy", "eigenfactor"): {
        "eigenfactor.metric.json": "8fc42840f4cdb0b2130e520c4927d5b6fd0ddace719abd73bf362b5e04f2ca78",
        "eigenfactor.ranks.tsv": "d57a97805e82720ca2b0f406cb6cb1140753df774f2e2139ed2155614b4b704c",
        "stdout": "b9c4408806ff094aa38f9008cde7ee69300789b67c7a5c50bebcb7411eb64616",
    },
    ("toy", "citations"): {
        "total_citations.metric.json": "1f937ca0692f2338de98577e2ec8b91bcab8d02b2e61ec49cca0f15e8f49fcdf",
        "total_citations.ranks.tsv": "5fa853eff76e53773ed1e9a6c98513f2f91a85211758ab0224c7ee28c05b3dd5",
        "stdout": "4092777e4fbe065720db485ab37af8d3faee6da51c2d1ff9bc5d50006e7d5739",
    },
    ("toy", "impact-factor"): {
        "impact_factor.metric.json": "cd8633fd3bb8fea5f1b41ddb930c8594eac0782dc8c21323b1ab82cc6c3435f8",
        "impact_factor.ranks.tsv": "f9a9275598ecc2736705d10cdae88bf2add7025cdf752c03e03486eddb1a693b",
        "stdout": "9411ec57e969753052ea8d30b4fc775e92ac91d13f9f5539f4ebeb84d93ffae5",
    },
    ("gen", "eigenfactor"): {
        "eigenfactor.metric.json": "75f2c4f0cb1b29e588743bf47c2145d6e246bc5f22e8e810ff217ffb496125a5",
        "eigenfactor.ranks.tsv": "79f628ebcba957b570d2fd374ac99e3f831b5ed073df30953535a2d9ace02c73",
        "stdout": "4f7cf192d775b074a4f3b808c6a79497f829f78dfc431fa31da400f1e6754514",
    },
    ("gen", "citations"): {
        "total_citations.metric.json": "df08cb16f8a959b14e3c880e28cb51742ef456136ff673b0a6397fc3e7cab6c4",
        "total_citations.ranks.tsv": "7a86597c68bfb92e2b800c68442336e44cb7be39df58092c4e5644188123da54",
        "stdout": "df8066a99ba4bbac69afe3718ac23e61af54946181faa4b89e351b03fc70f31f",
    },
    ("gen", "impact-factor"): {
        "impact_factor.metric.json": "3666b5c9aae32676bce7e49c18ac5023092cbd44564c9df237ec5828f19ed11f",
        "impact_factor.ranks.tsv": "e73b13bbb010b06977a6c41bae591da7782f2a05b0335b196ca07b3f523419d4",
        "stdout": "5847568a8ea7a4388fa7390b7470024e6bf3a2a89dbee84a53c290d8fd5a8030",
    },
}

INGEST_DIGESTS = {
    "toy": {
        "citations.csv": "93c289ff4baefbda2ee4bad71ef3e3d3437e46ed856521efd766fb0de261c364",
        "ingest.json": "40fec46e4aa7d368ffb2a163e5d34c6f0838671190a27c8cfd809a54ea7b2cf2",
        "journals.csv": "b9ffa9f05900568f77f83b2dcf8fb5a002ae024fb987c6a733074b814de12097",
        "stdout": "f663d890617394e850ffc9c4bbcfde0222cf722330ed2584a6759576e7786a4d",
    },
    "gen": {
        "citations.csv": "c9adb5e1b60d70677cf5fead5c8bed33e4c821f1b9769ff32ed8a138e3e0448a",
        "ingest.json": "50fb143cad69a407e6a66d95c3bc6f417deddbe722655575f88771426d746fa4",
        "journals.csv": "185cd9444296da4a44c3e1df090c175be2523596919c552c69f04ee188df5ca4",
        "stdout": "b81e69ae4954b1d7ccfd520e868dc3626ded7c6d586f80e853c347873e4db9fc",
    },
}

SCRIPT_DIGESTS = {
    ("medicine2006_top20.py", ()): "845a945b6511551603f228b1ffbd3c04aef10fc6e0feeb74fc8be8dc583f0d2f",
    ("skew_sweep.py", ("--seeds", "1")): "7618ceaa17b0e55bbb6b821e6c185d9853353205f5f51ef4b8006748a7d36995",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory, toy_paths):
    gen = tmp_path_factory.mktemp("gen")
    assert main(["gen", *GEN_ARGS, "--out", str(gen)]) == 0
    return {"toy": toy_paths, "gen": (gen / "journals.csv", gen / "citations.csv")}


def run_digests(capsys, out: Path, *argv) -> dict[str, str]:
    """Digests of the files a command writes to `out`, plus its stdout."""
    capsys.readouterr()
    assert main([*map(str, argv), "--out", str(out)]) == 0
    return digests(out) | {"stdout": sha256(capsys.readouterr().out)}


@pytest.mark.parametrize("corpus, method", sorted(RANK_DIGESTS))
def test_rank_matches_recorded_digests(corpus, method, corpora, tmp_path, capsys):
    journals, citations = corpora[corpus]
    assert run_digests(
        capsys, tmp_path / "rank", "rank", "--journals", journals, "--citations", citations,
        *RANK_ARGS[method],
    ) == RANK_DIGESTS[corpus, method]


@pytest.mark.parametrize("corpus", sorted(INGEST_DIGESTS))
def test_ingest_matches_recorded_digests(corpus, corpora, tmp_path, capsys):
    journals, citations = corpora[corpus]
    assert run_digests(
        capsys, tmp_path / "ingest", "ingest", "--journals", journals, "--citations", citations,
    ) == INGEST_DIGESTS[corpus]


@pytest.mark.parametrize("script, argv", sorted(SCRIPT_DIGESTS))
def test_script_output_matches_recorded_digest(script, argv, capsys):
    module = load_script(script)
    capsys.readouterr()
    module.main(list(argv))
    assert sha256(capsys.readouterr().out) == SCRIPT_DIGESTS[script, argv]
