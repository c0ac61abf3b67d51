"""Seeded inputs at the published scale: 3,209 labelled comments.

Sentences come from ``make_sentence`` in demos/synthesize_data.py, the
generator that also rebuilt the bundled assets, so the cue lists live in
one place. The joint label mix is the one acceptance criterion 5 pins:
NAG/CAG/OAG 1258/1495/456, NGEN/GEN 3006/203, NCOM/COM 2967/242.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

PUBLISHED_TOTAL = 3209
PUBLISHED_DISTRIBUTION = {"NAG": 1258, "CAG": 1495, "OAG": 456,
                          "NGEN": 3006, "GEN": 203, "NCOM": 2967, "COM": 242}
# (count, aggression, gender, communal); marginals sum to the table above
JOINT_MIX = ((1258, "NAG", "NGEN", "NCOM"), (1295, "CAG", "NGEN", "NCOM"),
             (200, "CAG", "GEN", "NCOM"), (211, "OAG", "NGEN", "NCOM"),
             (3, "OAG", "GEN", "NCOM"), (242, "OAG", "NGEN", "COM"))
HEADER = "id\ttext\taggression\tgender\tcommunal"


def load_make_sentence(root: Path):
    path = root / "demos" / "synthesize_data.py"
    spec = importlib.util.spec_from_file_location("synthesize_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_sentence


def _label_rows():
    return [(a, g, c) for n, a, g, c in JOINT_MIX for _ in range(n)]


def _write(path: Path, rows) -> None:
    lines = [HEADER] + ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(root: Path, out_dir: Path, seed: int, extra: dict) -> dict:
    """Write published.tsv (3,209 rows) plus, for each name -> size in
    ``extra``, a further split whose label mix is the published one scaled
    down (a fixed composition, so a scorer's baseline does not move with
    the seed). Row order and sentences come from one seeded stream;
    returns name -> path."""
    make_sentence = load_make_sentence(root)
    rng = np.random.default_rng(seed)
    labels = _label_rows()
    assert len(labels) == PUBLISHED_TOTAL
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, size in {"published": PUBLISHED_TOTAL, **extra}.items():
        picks = np.arange(size) * PUBLISHED_TOTAL // size
        rows = []
        for i, k in enumerate(rng.permutation(picks)):
            a, g, c = labels[k]
            rows.append((f"{name}{i:04d}", make_sentence(rng, a, g, c), a, g, c))
        paths[name] = out_dir / f"{name}.tsv"
        _write(paths[name], rows)
    return paths
