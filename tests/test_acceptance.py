"""Release gate: one test per acceptance criterion.

Each test prints a single `[acceptance] criterion N: PASS|FAIL` line
(collected again in the terminal summary) so the gate's outcome can be
read off a plain pytest run.  The heavy fixtures are module-scoped
digests: they run the workloads once, reduce each run to scalars on the
spot, and drop the bulky histories before the next run starts.
"""

import time
from dataclasses import dataclass, field

import pytest

from mvtostm.checker import (
    check_brute_force,
    check_with_order,
    illegal_read,
    sequential_order,
    timestamp_order,
    topological_order,
)
from mvtostm.harness import WorkloadConfig, run
from mvtostm.history import parse
from tests import support
from tests.support import build_graph


def _report(n: int, ok: bool, note: str) -> None:
    line = f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {note}"
    support.ACCEPTANCE_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# workload digests


@dataclass
class StressDigest:
    runs: int = 0
    opaque: int = 0
    committed: int = 0
    ro_aborted: int = 0
    update_aborted: int = 0
    malformed_witnesses: int = 0
    lock_acquisitions: int = 0
    lock_violations: int = 0
    watchdog_trips: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0


@pytest.fixture(scope="module")
def stress_digest():
    """1,000 concurrent runs, reduced to scalars as they complete."""
    digest = StressDigest()
    start = time.perf_counter()
    for i in range(1000):
        threads = (2, 4, 5, 8)[i % 4]
        cfg = WorkloadConfig(
            threads=threads,
            txs_per_thread=200 // threads,
            object_count=16,
            reads_per_tx=(1, 3),
            writes_per_tx=(1, 2),
            ro_fraction=0.2,
            seed=i,
        )
        digest.runs += 1
        try:
            report = run(cfg)
        except TimeoutError:
            digest.watchdog_trips += 1
            continue
        except Exception as exc:  # noqa: BLE001 - tallied, then reported
            digest.failures.append(f"seed {i}: {exc!r}")
            continue
        if report.verdict.status == "opaque":
            digest.opaque += 1
        else:
            digest.failures.append(f"seed {i}: verdict {report.verdict.status}")
        digest.committed += report.committed
        digest.ro_aborted += report.ro_aborted
        digest.update_aborted += report.update_aborted
        digest.malformed_witnesses += sum(
            1 for tx, _obj, j, k in report.witnesses if not j < tx < k
        )
        if len(report.witnesses) != report.update_aborted:
            digest.failures.append(f"seed {i}: witness count mismatch")
        digest.lock_acquisitions += report.lock_acquisitions
        digest.lock_violations += report.lock_violations
    digest.wall = time.perf_counter() - start
    return digest


@dataclass
class TinyDigest:
    runs: int = 0
    brute_opaque: int = 0
    brute_not_opaque: int = 0
    undecided: int = 0
    ts_disagreements: list = field(default_factory=list)
    oracle_checked: int = 0
    oracle_disagreements: list = field(default_factory=list)


@pytest.fixture(scope="module")
def tiny_digest():
    """500 small runs (at most 5 transactions, 3 objects) where the
    exhaustive checker stays affordable."""
    digest = TinyDigest()
    shapes = [(1, 3), (2, 2), (1, 5), (5, 1), (2, 1)]
    for i in range(500):
        threads, txs = shapes[i % len(shapes)]
        cfg = WorkloadConfig(
            threads=threads,
            txs_per_thread=txs,
            object_count=1 + i % 3,
            reads_per_tx=(1, 2),
            writes_per_tx=(0, 1),
            ro_fraction=0.3,
            retry_limit=0,
            seed=2000 + i,
        )
        history = run(cfg).history
        digest.runs += 1
        brute = check_brute_force(history)
        if brute.status == "undecided":
            digest.undecided += 1
            continue
        if brute.status == "opaque":
            digest.brute_opaque += 1
            ts = check_with_order(history, timestamp_order(history))
            if ts.status != "opaque":
                digest.ts_disagreements.append(f"seed {2000 + i}")
        else:
            digest.brute_not_opaque += 1
        if i % 10 == 0:
            digest.oracle_checked += 1
            by_definition = support.oracle_opaque_by_search(history)
            if (brute.status == "opaque") != by_definition:
                digest.oracle_disagreements.append(f"seed {2000 + i}")
    return digest


@dataclass
class GcDigest:
    runs: int = 0
    opaque: int = 0
    deleted: dict = field(default_factory=dict)
    ro_aborted: int = 0
    malformed_witnesses: int = 0
    oracle_violations: list = field(default_factory=list)
    failures: list = field(default_factory=list)


@pytest.fixture(scope="module")
def gc_digest():
    """Reclamation stress: few hot objects, low thresholds, and a
    deletion-safety oracle replaying the interleaved log."""
    digest = GcDigest()
    for threshold in (1, 2, 8):
        digest.deleted[threshold] = 0
        for i in range(40):
            cfg = WorkloadConfig(
                threads=4,
                txs_per_thread=25,
                object_count=4,
                reads_per_tx=(1, 3),
                writes_per_tx=(1, 2),
                ro_fraction=0.2,
                gc_threshold=threshold,
                seed=5000 + 100 * threshold + i,
            )
            digest.runs += 1
            try:
                report = run(cfg)
            except Exception as exc:  # noqa: BLE001 - tallied, then reported
                digest.failures.append(f"threshold {threshold} run {i}: {exc!r}")
                continue
            if report.verdict.status == "opaque":
                digest.opaque += 1
            else:
                digest.failures.append(
                    f"threshold {threshold} run {i}: {report.verdict.status}"
                )
            digest.deleted[threshold] += report.gc_deleted
            digest.ro_aborted += report.ro_aborted
            digest.malformed_witnesses += sum(
                1 for tx, _obj, j, k in report.witnesses if not j < tx < k
            )
            bad = support.oracle_gc_violations(report.history, report.version_notes)
            bad += support.oracle_read_mismatches(report.history)
            bad += support.oracle_write_rule_violations(report.history)
            if bad:
                digest.oracle_violations.append(
                    f"threshold {threshold} run {i}: {bad[:3]}"
                )
    return digest


# ---------------------------------------------------------------------------
# criteria


class TestAcceptance:
    def test_criterion_1_reference_history_under_its_version_order(self):
        # The bundled 15-event reference interleaving, checked against
        # the version order it is conventionally paired with, asked to
        # come out opaque (acyclic graph) inside one second.
        history = parse(support.REFERENCE_TEXT)
        start = time.perf_counter()
        verdict = check_with_order(history, support.REFERENCE_ORDER)
        elapsed = time.perf_counter() - start
        ok = verdict.opaque and elapsed < 1.0
        if ok:
            note = f"opaque, acyclic, {elapsed:.3f}s"
        else:
            loop = "->".join(str(t) for t in (verdict.cycle or []) + (verdict.cycle or [])[:1])
            exhaustive = check_brute_force(history)
            note = (
                f"graph has cycle {loop} ({elapsed:.3f}s); transactions 1 and 2 "
                "each read the initial value of an object the other overwrites, "
                "so each must serialize before the other; exhaustive search "
                f"confirms no order works ({exhaustive.orders_tested} tried)"
            )
        _report(1, ok, note)
        assert ok, note

    def test_criterion_2_stress_runs_all_opaque(self, stress_digest):
        d = stress_digest
        ok = d.runs == 1000 and d.opaque == 1000 and not d.failures and d.watchdog_trips == 0
        note = (
            f"{d.runs} runs (2-8 threads, 16 objects, 200 transactions each): "
            f"{d.opaque} opaque under the timestamp order, "
            f"{len(d.failures)} failures, {d.committed} commits, {d.wall:.1f}s"
        )
        _report(2, ok, note)
        assert ok, (note, d.failures[:5])

    def test_criterion_3_exhaustive_and_timestamp_checkers_agree(self, tiny_digest):
        d = tiny_digest
        handcrafted = {
            "crossing readers": parse(support.REFERENCE_TEXT),
            "write skew": parse(support.WRITE_SKEW_TEXT),
            "aborted reader": parse(support.ABORTED_READER_TEXT),
        }
        confirmed = {
            name: check_brute_force(h) for name, h in handcrafted.items()
        }
        all_refuted = all(
            v.status == "not_opaque" and "no version order" in v.detail
            for v in confirmed.values()
        )
        ok = (
            d.runs >= 500
            and d.undecided == 0
            and not d.ts_disagreements
            and not d.oracle_disagreements
            and all_refuted
        )
        note = (
            f"{d.runs} small histories: {d.brute_opaque} opaque / "
            f"{d.brute_not_opaque} not, timestamp order agreed on every "
            f"opaque one; {d.oracle_checked} cross-checked against direct "
            f"enumeration; {len(confirmed)}/3 hand-built non-opaque histories "
            "refuted over every order"
        )
        _report(3, ok, note)
        assert ok, (note, d.ts_disagreements[:5], d.oracle_disagreements[:5])

    def test_criterion_4_abort_discipline(self, stress_digest):
        d = stress_digest
        ok = d.ro_aborted == 0 and d.malformed_witnesses == 0 and d.update_aborted > 0
        note = (
            f"read-only aborts {d.ro_aborted} (exactly zero required); "
            f"{d.update_aborted} update aborts, every one carrying a "
            f"witness with j < i < k ({d.malformed_witnesses} malformed)"
        )
        _report(4, ok, note)
        assert ok, note

    def test_criterion_5_no_hangs_and_ordered_locking(self, stress_digest):
        d = stress_digest
        ok = d.watchdog_trips == 0 and d.lock_violations == 0 and d.lock_acquisitions > 0
        note = (
            f"{d.watchdog_trips} watchdog trips across {d.runs} runs; "
            f"{d.lock_acquisitions} lock acquisitions, 100% in ascending "
            f"rank order ({d.lock_violations} out of rank)"
        )
        _report(5, ok, note)
        assert ok, note

    def test_criterion_6_sequential_histories_are_acyclic(self):
        cyclic = []
        for seed in range(1000):
            h = support.random_legal_tseq(seed)
            g = build_graph(h, sequential_order(h))
            _topo, cycle = topological_order(g)
            if cycle is not None:
                cyclic.append(seed)
        still_legal = []
        mutants = 0
        seed = 0
        while mutants < 100:
            base = support.random_legal_tseq(seed)
            mutant = support.mutate_illegal(seed, base)
            seed += 1
            if mutant is None:
                continue
            mutants += 1
            if illegal_read(mutant) is None:
                still_legal.append(seed - 1)
        ok = not cyclic and mutants == 100 and not still_legal
        note = (
            f"1000 generated legal sequential histories all acyclic under "
            f"their block order ({len(cyclic)} cycles); {mutants} corrupted "
            f"variants all flagged illegal ({len(still_legal)} missed)"
        )
        _report(6, ok, note)
        assert ok, (note, cyclic[:5], still_legal[:5])

    def test_criterion_7_reclamation_preserves_everything(self, gc_digest):
        d = gc_digest
        ok = (
            d.runs == 120
            and d.opaque == d.runs
            and all(n > 0 for n in d.deleted.values())
            and d.ro_aborted == 0
            and d.malformed_witnesses == 0
            and not d.oracle_violations
            and not d.failures
        )
        per_threshold = ", ".join(
            f"threshold {t}: {n} deleted" for t, n in sorted(d.deleted.items())
        )
        note = (
            f"{d.runs} runs ({per_threshold}); all opaque, zero read-only "
            f"aborts, witnesses intact, deletion-safety oracle found "
            f"{len(d.oracle_violations)} violations"
        )
        _report(7, ok, note)
        assert ok, (note, d.oracle_violations[:3], d.failures[:3])

    def test_criterion_8_serialization_round_trips(self):
        broken = []
        for seed in range(1000):
            h = support.random_well_formed_history(seed)
            text = h.serialize()
            back = parse(text)
            if back != h or back.serialize() != text:
                broken.append(seed)
        ok = not broken
        note = (
            f"1000 generated histories: parse(serialize(h)) reproduced "
            f"every history and its text byte for byte ({len(broken)} broken)"
        )
        _report(8, ok, note)
        assert ok, (note, broken[:5])
