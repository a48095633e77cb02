"""The proven-lemma ledger: key determinism, durability, staleness."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.induction import obligation_premises, obligations
from repro.proof.ledger import (
    LEDGER_FORMAT,
    Ledger,
    LedgerEntry,
    default_ledger,
    keys_of,
    lemma_set_fingerprint,
    program_fingerprint,
)
from repro.proof.manager import plan_of, status
from repro.protocols import lock_server


@pytest.fixture(scope="module")
def bundle():
    return lock_server.build()


def entry_for(bundle, index=0):
    obligation = obligations(bundle.program, bundle.invariant)[index]
    key, ph, oh, lh = keys_of(
        bundle.program,
        obligation,
        obligation_premises(obligation, bundle.invariant),
    )
    return key, LedgerEntry(
        program=bundle.program.name,
        invariant=obligation.target or "<no-abort>",
        kind=obligation.kind,
        program_hash=ph,
        obligation_hash=oh,
        lemma_hash=lh,
    )


# --------------------------------------------------------------- determinism

# Prints every ledger key for the lock_server protocol; run under two
# different PYTHONHASHSEEDs, the outputs must be byte-identical -- the
# fingerprints go through the order-deterministic printer, never a set.
_KEYS_SCRIPT = """
import json
from repro.core.induction import obligation_premises, obligations
from repro.proof.ledger import keys_of, program_fingerprint
from repro.protocols import lock_server

bundle = lock_server.build()
keys = [program_fingerprint(bundle.program)]
for obligation in obligations(bundle.program, bundle.invariant):
    key, _, oh, lh = keys_of(
        bundle.program,
        obligation,
        obligation_premises(obligation, bundle.invariant),
    )
    keys.extend([key, oh, lh])
print(json.dumps(keys))
"""


def _keys_under_hashseed(seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_keys_identical_across_hash_seeds():
    first = _keys_under_hashseed("0")
    second = _keys_under_hashseed("4242")
    assert first == second
    assert len(first) > 1


def test_lemma_set_fingerprint_order_and_duplicate_insensitive(bundle):
    formulas = [c.formula for c in bundle.invariant]
    assert lemma_set_fingerprint(formulas) == lemma_set_fingerprint(
        list(reversed(formulas)) + formulas
    )
    assert lemma_set_fingerprint(formulas) != lemma_set_fingerprint(
        formulas[1:]
    )


def test_program_fingerprint_tracks_the_transition_relation(bundle):
    program = bundle.program
    edited = dataclasses.replace(program, body=program.init)
    assert program_fingerprint(program) != program_fingerprint(edited)
    assert program_fingerprint(program) == program_fingerprint(
        dataclasses.replace(program)
    )


# ---------------------------------------------------------------- durability


def test_record_then_proven_roundtrip(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    key, entry = entry_for(bundle)
    assert ledger.proven(key) is None
    ledger.record(entry)
    found = ledger.proven(key)
    assert found is not None
    assert found.invariant == entry.invariant
    assert found.kind == entry.kind
    assert ledger.hits == 1 and ledger.misses == 1
    assert len(ledger) == 1


def test_truncated_entry_reads_unproven_and_is_deleted(tmp_path, bundle, caplog):
    ledger = Ledger(str(tmp_path))
    key, entry = entry_for(bundle)
    ledger.record(entry)
    path = ledger._path(key)
    with open(path, "r+") as handle:
        handle.truncate(10)
    with caplog.at_level("WARNING", logger="repro.store"):
        assert ledger.proven(key) is None
    assert not os.path.exists(path)
    assert "treated as unproven" in caplog.text
    # Deleted means the next lookup is a clean miss, not another warning.
    assert ledger.proven(key) is None


def test_stale_schema_entry_reads_unproven(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    key, entry = entry_for(bundle)
    ledger.record(entry)
    path = ledger._path(key)
    with open(path) as handle:
        payload = json.load(handle)
    payload["format"] = LEDGER_FORMAT + 1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert ledger.proven(key) is None
    assert not os.path.exists(path)


def test_corruption_warns_once_per_store(tmp_path, bundle, caplog):
    ledger = Ledger(str(tmp_path))
    with caplog.at_level("WARNING", logger="repro.store"):
        for index in (0, 1):
            key, entry = entry_for(bundle, index)
            ledger.record(entry)
            with open(ledger._path(key), "w") as handle:
                handle.write("{ not json")
            assert ledger.proven(key) is None
    assert caplog.text.count("treated as unproven") == 1


def test_key_mismatch_is_corruption(tmp_path, bundle):
    """A hand-moved entry must not prove a different obligation."""
    ledger = Ledger(str(tmp_path))
    key0, entry0 = entry_for(bundle, 0)
    key1, _ = entry_for(bundle, 1)
    ledger.record(entry0)
    os.makedirs(os.path.dirname(ledger._path(key1)), exist_ok=True)
    os.replace(ledger._path(key0), ledger._path(key1))
    assert ledger.proven(key1) is None


def test_unwritable_root_counts_write_errors_and_never_raises(bundle):
    ledger = Ledger("/proc/definitely-not-writable")
    _, entry = entry_for(bundle)
    ledger.record(entry)
    assert ledger.write_errors == 1


def test_entries_scan_does_not_inflate_hits(tmp_path, bundle):
    ledger = Ledger(str(tmp_path))
    for index in (0, 1, 2):
        ledger.record(entry_for(bundle, index)[1])
    scanned = list(ledger.entries())
    assert len(scanned) == 3
    assert ledger.hits == 0


# ------------------------------------------------------------- configuration


def test_ledger_env_toggles(tmp_path, configure):
    configure(ledger=False)
    assert default_ledger() is None
    configure(ledger=True, ledger_dir=str(tmp_path))
    ledger = default_ledger()
    assert ledger is not None and ledger.root == str(tmp_path)


# ----------------------------------------------------------------- staleness


def test_status_reports_stale_after_transition_edit(tmp_path, bundle):
    """Editing the transition relation flips proven rows to stale."""
    from repro.proof.manager import prove

    ledger = Ledger(str(tmp_path))
    plan = plan_of(bundle.program)
    report = prove(plan, ledger=ledger)
    assert report.ok
    assert all(row.state == "proven" for row in status(plan, ledger))

    edited = dataclasses.replace(bundle.program, body=bundle.program.init)
    edited_plan = plan_of(edited)
    rows = status(edited_plan, Ledger(str(tmp_path)))
    assert rows and all(row.state == "stale" for row in rows)
