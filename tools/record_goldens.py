"""Record golden fingerprints into tests/goldens/.

``exact_mode.json`` pins the byte-stable reference semantics of the
simulator: sha256 fingerprints of EAS suite runs, alpha sweeps, a chaos
campaign, a small fleet dispatch, and multiprogram co-runs, all under
``tick_mode="exact"``.  ``fast_mode.json`` and ``bounded_mode.json``
pin the same EAS suite runs under the accelerated clock modes, so a
refactor of an accelerated path must keep its output byte-identical.
``tests/soc/test_golden_regression.py`` fails with a readable diff
when any entry drifts; the fast/bounded clock modes are additionally
held to the exact references by the differential sweep.

Usage::

    PYTHONPATH=src python tools/record_goldens.py [--mode MODE] [--entry NAME ...]

Re-recording is a deliberate act: only run this when an *intentional*
simulation-semantics change has been reviewed, and say so in the
commit message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.diff import (  # noqa: E402
    compute_fingerprint,
    exact_fingerprint_entries,
    mode_fingerprint_entries,
)
from repro.soc.spec import TICK_MODES  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests",
                          "goldens")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=TICK_MODES,
                        default="exact",
                        help="clock mode to record (default: exact)")
    parser.add_argument("--entry", action="append", default=None,
                        help="record only the named entries "
                             "(default: every known entry)")
    parser.add_argument("--output", default=None,
                        help="default: tests/goldens/<mode>_mode.json")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = os.path.join(GOLDEN_DIR, f"{args.mode}_mode.json")

    entries = args.entry or (exact_fingerprint_entries()
                             if args.mode == "exact"
                             else mode_fingerprint_entries())
    existing = {}
    if os.path.exists(args.output):
        with open(args.output) as fh:
            existing = json.load(fh).get("fingerprints", {})

    fingerprints = dict(existing)
    for entry in entries:
        started = time.perf_counter()
        fingerprints[entry] = compute_fingerprint(entry, args.mode)
        status = ""
        if entry in existing and existing[entry] != fingerprints[entry]:
            status = "  (CHANGED)"
        print(f"{entry}: {fingerprints[entry][:16]}... "
              f"[{time.perf_counter() - started:.1f}s]{status}")

    payload = {
        "comment": (f"{args.mode.capitalize()}-mode golden fingerprints. "
                    f"Regenerate with tools/record_goldens.py only for "
                    f"reviewed, intentional simulation-semantics changes."),
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fingerprints)} fingerprints to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
