"""Exact-mode golden fingerprint lock.

``tests/goldens/exact_mode.json`` pins a sha256 fingerprint for every
entry in :func:`repro.harness.diff.exact_fingerprint_entries`: the
Table-1 EAS suites on both platforms, representative alpha sweeps, a
chaos campaign, a small fleet, and multiprogram co-runs - all under
``tick_mode="exact"``, the byte-stable reference.  Any change to the
simulator, the scheduler, or the harness that shifts even one bit of an
exact-mode run flips a fingerprint here and fails with a readable diff.

The default run recomputes a cheap representative subset (one regular
and one irregular workload per platform); set ``REPRO_GOLDEN_FULL=1``
to sweep every recorded entry (CI's scheduled job does).

``tests/goldens/fast_mode.json`` and ``bounded_mode.json`` pin the same
EAS suite runs under the accelerated clock modes.  Those runs are cheap
(macro-steps and phase replay), so every entry is checked on every
run: a refactor of an accelerated path must leave its output
byte-identical.  To bless an *intentional* semantics change,
regenerate with ``tools/record_goldens.py [--mode MODE]`` and say why
in the commit message.
"""

import json
import os

import pytest

from repro.harness.diff import (
    collect_exact_fingerprints,
    compute_fingerprint,
    exact_fingerprint_entries,
    mode_fingerprint_entries,
)

GOLDENS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "goldens")

#: Accelerated clock modes with their own goldens.
ACCELERATED_MODES = ("fast", "bounded")

#: Cheap default coverage: the fastest suite entries on each platform,
#: one regular (MB) and one irregular (BS) workload.
_SUBSET = (
    "suite-eas/desktop/MB",
    "suite-eas/desktop/BS",
    "suite-eas/tablet/MB",
    "suite-eas/tablet/BS",
)

FULL = os.environ.get("REPRO_GOLDEN_FULL", "") == "1"


def _recorded(mode: str = "exact") -> dict:
    with open(os.path.join(GOLDENS_DIR, f"{mode}_mode.json")) as fh:
        return json.load(fh)["fingerprints"]


def _describe_drift(entry: str, recorded: str, computed: str,
                    mode: str = "exact") -> str:
    return (
        f"{mode}-mode fingerprint drift in {entry!r}:\n"
        f"  recorded: {recorded}\n"
        f"  computed: {computed}\n"
        f"This means a code change altered the {mode} clock mode's "
        f"simulation semantics. If that is intentional, regenerate "
        f"tests/goldens/{mode}_mode.json with tools/record_goldens.py "
        f"--mode {mode} and explain the change in the commit; if not, "
        f"you have a regression."
    )


def test_goldens_cover_every_entry():
    """The recorded file and the entry registry must agree exactly -
    a new golden-worthy surface must be recorded, a removed one culled."""
    assert sorted(_recorded()) == sorted(exact_fingerprint_entries())


@pytest.mark.parametrize("entry", exact_fingerprint_entries() if FULL
                         else _SUBSET)
def test_exact_fingerprint_matches_golden(entry):
    recorded = _recorded()[entry]
    computed = compute_fingerprint(entry)
    assert computed == recorded, _describe_drift(entry, recorded, computed)


@pytest.mark.parametrize("mode", ACCELERATED_MODES)
def test_mode_goldens_cover_every_entry(mode):
    assert sorted(_recorded(mode)) == sorted(mode_fingerprint_entries())


@pytest.mark.parametrize("entry", mode_fingerprint_entries())
@pytest.mark.parametrize("mode", ACCELERATED_MODES)
def test_mode_fingerprint_matches_golden(mode, entry):
    recorded = _recorded(mode)[entry]
    computed = compute_fingerprint(entry, mode)
    assert computed == recorded, _describe_drift(entry, recorded, computed,
                                                 mode)


def test_drift_report_is_readable():
    """The failure message names the entry, both hashes, and the
    remediation - the next person should not need to read this file."""
    message = _describe_drift("suite-eas/desktop/MB", "a" * 64, "b" * 64)
    assert "suite-eas/desktop/MB" in message
    assert "a" * 64 in message and "b" * 64 in message
    assert "tools/record_goldens.py" in message


def test_collect_matches_entrywise():
    """collect_exact_fingerprints agrees with per-entry computation
    (the recorder and the checker share one code path)."""
    entries = _SUBSET[:1]
    collected = collect_exact_fingerprints(entries)
    assert collected == {entries[0]: compute_fingerprint(entries[0])}
