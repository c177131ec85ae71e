"""Pinned report bytes.

The sha256 of ``write_report`` output for the report and classification
documents, with and without projection, on a fixed corpus: the staircase,
the dominated-unit variants used across the suite, and two seeded float
generators (a thin frontier, and a dense surface with duplicates,
proportional copies and shrunk copies). Any change to the analysis that
moves a single output byte on this corpus fails here.
"""

import hashlib
import random

import pytest

import fdhscale as f

from conftest import make_staircase, with_dominated


def thin_frontier(seed: int, n: int = 50) -> f.Dataset:
    """Two inputs, one output; every fifth unit on the surface, the rest below it."""
    rng = random.Random(f"thin:{seed}")
    inputs, outputs = [], []
    for k in range(n):
        x = [rng.uniform(1, 10), rng.uniform(1, 10)]
        shrink = 1.0 if k % 5 == 0 else rng.uniform(0.3, 0.8)
        inputs.append(x)
        outputs.append([(x[0] * x[1]) ** 0.4 * shrink])
    return f.validate_dataset([f"T{k}" for k in range(n)], inputs, outputs)


def dense_surface(seed: int, n: int = 44) -> f.Dataset:
    """Three inputs, three outputs near one surface, with copies of earlier units.

    Copies are exact duplicates, proportional copies scaled by a power of
    two (so every ratio stays exact in floats), and copies whose outputs
    are shrunk or whose inputs are inflated.
    """
    rng = random.Random(f"dense:{seed}")
    inputs, outputs = [], []
    for k in range(n):
        if k >= 8 and k % 4 == 0:
            src = rng.randrange(k)
            x, y = list(inputs[src]), list(outputs[src])
            kind = (k // 4) % 4
            if kind == 1:
                t = rng.choice([0.5, 2.0])
                x, y = [t * v for v in x], [t * v for v in y]
            elif kind == 2:
                y = [v * rng.uniform(0.9, 0.999) for v in y]
            elif kind == 3:
                x = [v * rng.uniform(1.001, 1.1) for v in x]
        else:
            x = [rng.uniform(1, 10) for _ in range(3)]
            size = sum(x) / 3
            y = [size ** rng.uniform(0.7, 1.3) * rng.uniform(0.95, 1.0) for _ in range(3)]
        inputs.append(x)
        outputs.append(y)
    return f.validate_dataset([f"D{k}" for k in range(n)], inputs, outputs)


CORPUS = {
    "stair": lambda: make_staircase(),
    "dom-4-4": lambda: with_dominated("E", x=(4,), y=(4,)),
    "dom-6-5": lambda: with_dominated("E", x=(6,), y=(5,)),
    "dom-4-3-float": lambda: with_dominated("E", x=(4,), y=(3,)).as_float(),
    "thin": lambda: thin_frontier(1),
    "dense": lambda: dense_surface(2),
}

BUILDERS = {
    "report": f.build_report_document,
    "classify": f.build_classification_document,
}

DIGESTS = {
    "dense": {
        "classify/False": "cf517c89425f25226b3bca4a3a476f0f9e5d4d762858c1d26f7df658e0d72d00",
        "classify/True": "e74610b1905ae5d5c565df51626b901b9f0115f0c01fba3139a59f3f6b09576a",
        "report/False": "95856b49a593b8ace2952a863ab4ff242bc85729ec6368260127091120e3ba57",
        "report/True": "5834a6b480c50472e394943c5695d9e51b2fb0c12da99b7c40b49c28b7ba62d8",
    },
    "dom-4-3-float": {
        "classify/False": "1eebd9eb10703262ec29a1ea3823386bc96efb79983f2b474f730a5b52eaaa91",
        "classify/True": "a3f6f1a0769962dd0177df876356566e3bc3c5de907105b5a291f7580b6202ab",
        "report/False": "ac3328b538ccdb4536a8a29d17f7624aba05086aa3fa1b293580d28d05f2a4f0",
        "report/True": "2a8540ceacd877a1027449146eb836bd493edd49a3394cdf09a83273328ed128",
    },
    "dom-4-4": {
        "classify/False": "df0cd46cbec6bb6f20e89f46fed2d1e1116061ef2acd03e3a32616224259c0e5",
        "classify/True": "390a47a519a205c55114328010159e8ea45b4c4a2658e32101e302f213825cf9",
        "report/False": "e208a68830a208b73b3e8b77fe0da6de8a1686a77b6b00a1820ee897afe30bef",
        "report/True": "de1d963003e4d83143920a158893bad595a585bf23eecde55468735c4006ff95",
    },
    "dom-6-5": {
        "classify/False": "f2af9541cf46d60f528ae8f302a1cd18df01a8f22609445945ca6f7e824f227a",
        "classify/True": "30c76f1faf55e1a67451fb649639eb0d674ddba77f323ef47ca66ee6f129ac2d",
        "report/False": "71ccc70f6b0d6dfb4498db37982c1626bbc9bce2d90115bb62774a9392721262",
        "report/True": "4da22c8bb50007160d05099603754c36ef7d66f4faab987e63716fb7eb40904e",
    },
    "stair": {
        "classify/False": "c14efa9c9f7753733cb20a5dea8d1eff4ce52dba97766fc239bbf2c4538bccfa",
        "classify/True": "5ea56b2bb50a97c46a666bb7b81d38c5ce40ffd89443299e2916bd5596e42333",
        "report/False": "4aa1843c799474bf7e1d7458a1bc2cd095bd64e54be00d411eb6b51b55641ce2",
        "report/True": "805458f3a8b46defcbd381383564aeeafe1d2317cd2cb93f6690a66f3dab6693",
    },
    "thin": {
        "classify/False": "d0235dbbe9650b53b4f413579a483a04754dd54b41702eaac188ff95e392d8e4",
        "classify/True": "9cd2c05445b113c0cb44caea8c421714fbc6d399903e82ff225070d6fab63fab",
        "report/False": "685363348c3315ebe9f72965fa1416d87f750fa451afc60f6e0f6c1f6f41685c",
        "report/True": "aaf6ae71da7a31044a54b00e88adf6b7fa8223d48f7240f0d8f0cb2faa2e93b6",
    },
}



@pytest.mark.parametrize("case", sorted(CORPUS))
def test_report_bytes_are_pinned(case):
    d = CORPUS[case]()
    got = {}
    for doc, build in BUILDERS.items():
        for project in (False, True):
            text = f.write_report(build(d, project=project))
            got[f"{doc}/{project}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == DIGESTS[case]
