#!/usr/bin/env python3
"""Record the per-seed references the correctness checks compare against.

    python3 perfbench/record_references.py [--seeds 0-63]

Writes ``perfbench/references.json``: for each seed, the first epoch
losses of ``train_mlp``, and the best value of one ``search`` campaign
with a digest of all its trial values, as float hex (bit for bit), tagged with the platform they were recorded
on.  Re-record only when a change is *meant* to alter the arithmetic,
and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63")
    args = ap.parse_args()
    lo, hi = (int(s) for s in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.common import REFERENCES, fingerprint_id, platform_fingerprint, source_digest
    from perfbench.search import Campaign
    from perfbench.train import BATCH, LR, REFERENCE_EPOCHS, build_inputs
    from repro.nn.optim import Adam

    table = {
        "platform_id": fingerprint_id(), "platform": platform_fingerprint(),
        "source_sha256": source_digest(), "train_mlp": {}, "search": {},
    }
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in range(lo, hi + 1):
            x, y, model = build_inputs(seed)
            hist = model.fit(x, y, epochs=REFERENCE_EPOCHS, batch_size=BATCH,
                             loss="cross_entropy", optimizer=Adam(model.parameters(), lr=LR),
                             seed=seed)
            table["train_mlp"][str(seed)] = [float(v).hex() for v in hist.series("loss")]
            campaign = Campaign(seed, f"{tmp}/queue{seed}.sqlite", False)
            table["search"][str(seed)] = list(campaign.outcome())
            print(f"seed {seed}: recorded", flush=True)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
