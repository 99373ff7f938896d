"""Pin the output-check reference of workloads for the given input variants.

    python3 perfbench/pin.py --variants 0-49 [--part NAME ...]

Runs each part's fixed-step run once per variant and stores its outcome (loss and
grad_norm of every step, final parameter and H1 diagram digests) in
perfbench/expected.json, which run.py compares against bit for bit.  A seed
runs variant ``seed % VARIANTS``, so every variant below VARIANTS must be
pinned.  Pin only from code whose results are the reference: a faster path
must keep the same diagrams, gradients and traces.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def variant_list(text: str) -> list[int]:
    variants = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        variants.extend(range(int(lo), int(hi or lo) + 1))
    return variants


def dump(expected: dict) -> str:
    """JSON with one line per pinned variant."""
    blocks = []
    for name, variants in sorted(expected.items()):
        rows = [f"  {json.dumps(v)}: {json.dumps(variants[v], sort_keys=True)}"
                for v in sorted(variants, key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--variants", type=variant_list, required=True, help="e.g. 0-9,42")
    ap.add_argument("--part", action="append", help="default: every part")
    args = ap.parse_args(argv)
    if not run.load_package():
        return 2
    from workloads import PARTS, VARIANTS, check

    expected = json.loads(run.EXPECTED.read_text())
    for name in args.part or sorted(PARTS):
        part = PARTS[name]
        for variant in args.variants:
            if not 0 <= variant < VARIANTS:
                ap.error(f"variant {variant} is outside 0-{VARIANTS - 1}")
            r = part.execute(part.setup(variant), variant)
            outcome = r.outcome(with_h1=True)
            # against itself, the check finds only errors and non-finite values
            attempted, failed = check(r, outcome, outcome)
            if r.error or failed:
                print(f"{name} variant {variant}: {failed} of {attempted} steps "
                      f"failed; not pinned\n{r.error or ''}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(variant)] = outcome
            print(f"pinned {name} variant {variant}", flush=True)
            run.EXPECTED.write_text(dump(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
