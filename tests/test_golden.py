"""Golden outputs of the CLI: the exact bytes of solve-topology JSON, check
stdout and render SVG, pinned by sha256.

Any rewrite of the embedding, certificate, document or drawing code must
leave these bytes unchanged.  The inputs are the worked example and a seeded
mixed-supply tree with a Steiner point of degree 4, a source of degree 3 and
a zero-length edge (source 7 sits on source 6, its parent), under a degree
bound and an explicit bound, with the claim of global optimality switched
off and on.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fqst.cli import main
from fqst.documents import dumps, loads


def worked_document(strategy: dict) -> dict:
    return {
        "schema": 1,
        "sources": [[0.0, 0.0], [2.0, 4.0], [11.0, 5.0]],
        "sink": [11.0, 1.0],
        "strategy": strategy,
        "topology": {
            "nodes": ["source", "source", "source", "sink", "steiner", "steiner"],
            "parents": [4, 4, 5, None, 5, 3],
        },
    }


def mixed_document(strategy: dict, seed: int = 9) -> dict:
    """Eight sources, mixed supplies, Steiner slots 9-12.

    Slot 9 takes sources 0, 1, 2 and feeds slot 10 (degree 4); slot 11
    takes sources 4, 5 and feeds source 6, which also takes source 7 at its
    own position and feeds slot 12.
    """
    rng = random.Random(seed)
    sources = [[rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)] for _ in range(8)]
    sources[7] = list(sources[6])
    return {
        "schema": 1,
        "sources": sources,
        "supplies": [round(rng.uniform(0.5, 3.0), 3) for _ in range(8)],
        "sink": [rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)],
        "strategy": strategy,
        "topology": {
            "nodes": ["source"] * 8 + ["sink"] + ["steiner"] * 4,
            "parents": [9, 9, 9, 10, 11, 11, 12, 6, None, 10, 8, 6, 8],
        },
    }


DOCUMENTS = {
    "worked-degree": worked_document({"degree_bound": 3}),
    "worked-explicit": worked_document({"explicit_bound": 2}),
    "mixed-degree": mixed_document({"degree_bound": 4}),
    "mixed-explicit": mixed_document({"explicit_bound": 4}),
}

# name: (solve-topology JSON, check stdout, check stdout with the global
# claim, render SVG), each a sha256 of the exact bytes
GOLDEN = {
    "worked-degree": (
        "d3fd3f7310f648230ae43d1e7a1c57bd24b54e10226b6febeb075be1856f4122",
        "f070c33a000f06c7facd7c86e2e60eabab2c8f8a1373604b166d970fb2482ad5",
        "f070c33a000f06c7facd7c86e2e60eabab2c8f8a1373604b166d970fb2482ad5",
        "0e64416ccc317dd03dd7f174260f966a26bb5405f11791d07b258dba8761d9b6",
    ),
    "worked-explicit": (
        "f8a1568e05b69a6a71e7f0713ea1db147fc2d9ddfb9a108ef6e54eb1e70e0d46",
        "f1e6db5344f8f234cdf3ad3862907ce69b16069fc2dfbfe85453b8cc02fbb553",
        "371962c237dfbec8b5c7e435683c2a9098d8d891edd913c9d6260c1f085f42df",
        "0e64416ccc317dd03dd7f174260f966a26bb5405f11791d07b258dba8761d9b6",
    ),
    "mixed-degree": (
        "fb33feb27cd5146a62c69656ba745648f6c78a43d7bdfb2bcf04baa291e31ca1",
        "e5e3794c5a0529fbdf68151dfeb0440441da24cecc4399ad11811f380d3950e7",
        "25394a8bf7f41914cd6819a3d994a2697d34f3a9666c390f2e8e6d735a22a838",
        "899a7d273af40225f8196c5c03ada7c3e38178d4d047fa39f771c176d9af0496",
    ),
    "mixed-explicit": (
        "91fc13445553f4a6347c2aef004d7bd785a7602ddabc1f7ad117dcdd9f789193",
        "cbc0f6579da7c1b65aa1a2de421fa70eb6751d53e8122a0f45666ed9cd4e6ed5",
        "ecf2fce539cdd4e9dd4e8e8132787496af14af768705e13e811126d7bf7485f0",
        "899a7d273af40225f8196c5c03ada7c3e38178d4d047fa39f771c176d9af0496",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_outputs(tmp_path, capsys, doc: dict) -> tuple[str, str, str, str]:
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(dumps(doc), encoding="utf-8")
    result_path = tmp_path / "result.json"
    assert main(["solve-topology", str(instance_path), "-o", str(result_path)]) == 0
    result_text = result_path.read_text(encoding="utf-8")

    capsys.readouterr()
    main(["check", str(result_path)])
    check_out = capsys.readouterr().out

    claimed = loads(result_text)
    claimed["claims"]["global_optimum"] = True
    claimed_path = tmp_path / "claimed.json"
    claimed_path.write_text(dumps(claimed), encoding="utf-8")
    main(["check", str(claimed_path)])
    claimed_out = capsys.readouterr().out

    svg_path = tmp_path / "drawing.svg"
    assert main(["render", str(result_path), "-o", str(svg_path)]) == 0
    return result_text, check_out, claimed_out, svg_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_output_bytes(tmp_path, capsys, name):
    outputs = cli_outputs(tmp_path, capsys, DOCUMENTS[name])
    assert tuple(sha256(text) for text in outputs) == GOLDEN[name]


def test_mixed_document_exercises_every_certificate(tmp_path, capsys):
    """The mixed tree reaches the branches the golden bytes are meant to pin."""
    result_text, check_out, claimed_out, svg = cli_outputs(
        tmp_path, capsys, DOCUMENTS["mixed-degree"]
    )
    result = loads(result_text)
    assert result["certificates"]["degenerate"] is True
    assert result["certificates"]["edge_overlaps"] > 0
    assert "overlapping edges at node 6" in check_out
    assert "FAIL optimality" in claimed_out
    assert svg.count('class="steiner"') == 4
