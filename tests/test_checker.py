import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mvtostm import checker
from mvtostm.checker import (
    OpacityGraph,
    certify_text,
    check_auto,
    check_brute_force,
    check_with_order,
    committed_writes,
    equivalent,
    illegal_read,
    invalid_read,
    is_t_sequential,
    real_time_pairs,
    sequential_order,
    serialization_from,
    timestamp_order,
    topological_order,
)
from mvtostm.cli import opacity_check_main
from mvtostm.errors import InvariantViolation, UsageError
from mvtostm.harness import WorkloadConfig, replay, run
from mvtostm.history import Event, History, parse
from tests import golden, support
from tests.support import MV, RF, RT, build_graph, labeled


@pytest.fixture(scope="module")
def reference():
    return parse(support.REFERENCE_TEXT)


@pytest.fixture(scope="module")
def replayed():
    return parse(support.REFERENCE_REPLAYED)


class TestProjections:
    def test_committed_writes(self, reference):
        assert committed_writes(reference) == {
            "x": {0: 0, 1: 5},
            "y": {0: 0, 3: 15, 2: 10},
            "z": {0: 0, 1: 10, 3: 15},
        }

    def test_last_write_wins(self):
        h = parse("w 1 x 5\nw 1 x 6\nc 1\n")
        assert committed_writes(h) == {"x": {0: 0, 1: 6}}

    def test_aborted_writes_create_no_versions(self):
        h = parse("w 1 x 5\na 1\n")
        assert committed_writes(h) == {"x": {0: 0}}

    def test_real_time_pairs(self, reference):
        assert real_time_pairs(reference) == {(1, 4), (2, 4)}

    def test_live_transaction_precedes_nothing(self):
        h = parse("r 1 x 0\nr 2 x 0\nc 2\n")
        assert real_time_pairs(h) == set()


class TestValidity:
    def test_reference_history_is_valid(self, reference):
        assert invalid_read(reference) is None

    def test_unwritten_value_is_invalid(self):
        h = parse("r 1 x 7\n")
        assert invalid_read(h).line() == "r 1 x 7"

    def test_commit_must_precede_the_read(self):
        h = parse("r 1 x 7\nw 2 x 7\nc 2\n")
        assert invalid_read(h).line() == "r 1 x 7"
        assert invalid_read(parse("w 2 x 7\nc 2\nr 1 x 7\n")) is None

    def test_duplicate_committed_values_are_ambiguous(self):
        h = parse("w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 x 7\n")
        with pytest.raises(ValueError, match="unique"):
            invalid_read(h)

    # The analysis raises for an ambiguous value only where its pass over
    # the reads meets it, before the first invalid read.

    def test_ambiguous_read_before_an_invalid_one_raises(self):
        h = parse("w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 x 7\nr 3 y 9\n")
        order = timestamp_order(h)
        for call in (
            lambda: invalid_read(h),
            lambda: check_with_order(h, order),
            lambda: check_auto(h),
            lambda: build_graph(h, order),
        ):
            with pytest.raises(ValueError, match="unique"):
                call()

    def test_invalid_read_before_an_ambiguous_one_decides(self):
        h = parse("w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 y 9\nr 3 x 7\n")
        order = timestamp_order(h)
        assert invalid_read(h).line() == "r 3 y 9"
        for v in (check_with_order(h, order), check_auto(h)):
            assert v.status == "invalid" and v.invalid_read.line() == "r 3 y 9"

    def test_unread_duplicate_values_are_not_ambiguous(self):
        h = parse("b 3\nr 3 x 0\nw 1 x 7\nc 1\nw 2 x 7\nc 2\nc 3\n")
        order = timestamp_order(h)
        assert invalid_read(h) is None
        assert check_with_order(h, order).opaque and check_auto(h).opaque
        assert labeled(build_graph(h, order), RF) == {(0, 3)}


class TestOneProjectionPerCheck:
    """Each check computes the committed writes once, whichever of the
    shortcut, the graph and the search it takes."""

    @pytest.fixture
    def projections(self, monkeypatch):
        calls = Counter()
        original = checker.committed_writes

        def counting(*args):
            calls["committed_writes"] += 1
            return original(*args)

        monkeypatch.setattr(checker, "committed_writes", counting)
        return calls

    def test_each_check_projects_once(self, reference, replayed, projections):
        # the search finds an opaque order for this one, at the 7th try
        searched = support.random_concurrent_history(8)
        assert check_auto(searched).orders_tested == 7
        for h in (reference, replayed, searched):
            order = timestamp_order(h)
            for check, args in ((check_auto, (h,)), (check_with_order, (h, order))):
                projections.clear()
                check(*args)
                assert projections == {"committed_writes": 1}

    @pytest.mark.parametrize("caller", ["check_with_order", "opacity-check", "run"])
    def test_timestamp_checks_project_once(self, caller, tmp_path, capsys, projections):
        path = tmp_path / "h.hist"
        path.write_text(support.REFERENCE_TEXT, encoding="utf-8")
        cfg = WorkloadConfig(threads=1, txs_per_thread=3, object_count=2, seed=1)
        call = {
            "check_with_order": lambda: check_with_order(parse(support.REFERENCE_TEXT)),
            "opacity-check": lambda: opacity_check_main([str(path), "--order", "ts"]),
            "run": lambda: run(cfg),
        }[caller]
        call()
        assert projections == {"committed_writes": 1}
        capsys.readouterr()


def _projected(h: History):
    """What checker._Analysis(h) projects: the first invalid read and,
    when there is none, the reads; or the error building it raises."""
    try:
        analysis = checker._Analysis(h)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if analysis.invalid is not None:
        return analysis.invalid, None
    return None, analysis.reads


def _reference_projected(h: History):
    """_projected by support.reference_projection, the projection that
    resolved every read and kept an ambiguity after the first invalid
    read for later."""
    try:
        invalid, reads, _ambiguous, _vertices = support.reference_projection(h)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if invalid is not None:
        return invalid, None
    return None, reads


# Hand-built histories, one per case of the projection pass, each with
# what it projects: "raises", or the first invalid read's line (None
# when every read is valid).
PROJECTION_CASES = {
    "ambiguous before the first invalid": (
        "w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 x 7\nr 3 y 9\n",
        "raises",
    ),
    # the pass stops at the invalid read, so the ambiguous one after it
    # raises nothing
    "ambiguous after the first invalid": (
        "w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 y 9\nr 3 x 7\n",
        "r 3 y 9",
    ),
    "unread duplicate value": (
        "b 3\nr 3 x 0\nw 1 x 7\nc 1\nw 2 x 7\nc 2\nc 3\n",
        None,
    ),
    "writer commits after the read": (
        "b 1\nw 1 x 5\nb 2\nr 2 x 5\nc 1\nc 2\n",
        "r 2 x 5",
    ),
    "aborted writer": ("b 1\nw 1 x 5\na 1\nb 2\nr 2 x 5\nc 2\n", "r 2 x 5"),
}


class TestProjectionAgainstReference:
    """_Analysis projects its history in its constructor and stops at
    the first invalid read. Its invalid read, its raised errors and, on
    a history with no invalid read, its reads must be those of
    support.reference_projection, which resolved every read."""

    @pytest.mark.parametrize("case", sorted(PROJECTION_CASES))
    def test_hand_built_cases(self, case):
        text, want = PROJECTION_CASES[case]
        h = parse(text)
        got = _projected(h)
        assert got == _reference_projected(h)
        if want == "raises":
            assert got[0] == "ValueError" and "unique" in got[1]
            return
        invalid, _ = got
        assert (None if invalid is None else invalid.line()) == want

    def test_golden_inputs(self):
        # the golden inputs include random_concurrent_history's seeds
        # 0-599 as concurrent/<seed>
        outcomes = Counter()
        for name, h in golden.inputs():
            got = _projected(h)
            assert got == _reference_projected(h), name
            if isinstance(got[0], str):
                outcomes["raises"] += 1
            else:
                outcomes["invalid" if got[0] is not None else "valid"] += 1
        assert outcomes["raises"] >= 1, outcomes
        assert min(outcomes["invalid"], outcomes["valid"]) > 300, outcomes


class TestSequential:
    def test_reference_history_is_not_sequential(self, reference):
        assert not is_t_sequential(reference)

    def test_blocks_are_sequential(self):
        h = parse("b 1\nr 1 x 0\nc 1\nb 2\nw 2 x 5\nc 2\n")
        assert is_t_sequential(h)

    def test_last_block_may_be_live(self):
        assert is_t_sequential(parse("c 1\nr 2 x 0\n"))

    def test_middle_block_must_terminate(self):
        assert not is_t_sequential(parse("r 1 x 0\nc 2\n"))

    def test_revisited_transaction_rejected(self):
        assert not is_t_sequential(parse("r 1 x 0\nc 2\nc 1\n"))

    def test_transaction_resuming_after_another_block_rejected(self):
        # every block ends in a terminal, so only the revisit breaks it;
        # parse would refuse the event after c 1
        events = (Event("c", 1), Event("c", 2), Event("r", 1, "x", 0))
        assert not is_t_sequential(History(events))

    def test_legality_requires_sequential(self, reference):
        with pytest.raises(UsageError):
            illegal_read(reference)

    def test_legal_walk(self):
        h = parse("r 1 x 0\nw 1 x 5\nc 1\nr 2 x 5\nc 2\n")
        assert illegal_read(h) is None

    def test_uncommitted_writes_invisible(self):
        h = parse("w 1 x 5\na 1\nr 2 x 0\nc 2\n")
        assert illegal_read(h) is None
        bad = parse("w 1 x 5\na 1\nr 2 x 5\nc 2\n")
        assert illegal_read(bad).line() == "r 2 x 5"

    def test_sequential_order_follows_block_positions(self):
        h = parse("w 2 x 5\nc 2\nw 1 x 9\nc 1\n")
        assert sequential_order(h) == {"x": (0, 2, 1)}


def _witnesses():
    """(seed, witness, completion) for every opaque golden concurrent history."""
    for seed in range(600):
        h = support.random_concurrent_history(seed)
        verdict = check_auto(h)
        if verdict.opaque:
            yield seed, verdict.serialization, h.complete()


def _mutants(seed: int, s: History):
    """The witness with one event's value changed, with one event dropped,
    and with two different events of one transaction swapped."""
    rng = random.Random(f"equivalent/{seed}")
    events = list(s.events)
    valued = [i for i, e in enumerate(events) if e.value is not None]
    i = rng.choice(valued)
    changed = events.copy()
    changed[i] = events[i]._replace(value=events[i].value + 1)
    yield "value", History(tuple(changed))
    dropped = events.copy()
    del dropped[rng.randrange(len(events))]
    yield "drop", History(tuple(dropped))
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(events)), 2)
        if events[i].tx == events[j].tx and events[i] != events[j]
    ]
    i, j = rng.choice(pairs)
    swapped = events.copy()
    swapped[i], swapped[j] = events[j], events[i]
    yield "swap", History(tuple(swapped))


class TestEquivalent:
    def test_witness_is_equivalent_to_its_completion(self):
        count = 0
        for _seed, s, completed in _witnesses():
            assert equivalent(s, completed)
            assert support.tuple_equivalent(s, completed)
            count += 1
        assert count > 50

    def test_mutated_witnesses_are_not_equivalent(self):
        # each mutant is refused, as the (kind, obj, value) projection did
        seen = Counter()
        for seed, s, completed in _witnesses():
            for how, mutant in _mutants(seed, s):
                assert not support.tuple_equivalent(mutant, completed), how
                assert not equivalent(mutant, completed), (seed, how)
                assert not equivalent(completed, mutant), (seed, how)
                seen[how] += 1
        assert set(seen) == {"value", "drop", "swap"}
        assert min(seen.values()) > 50

    def test_other_interleavings_are_equivalent(self):
        for seed in range(200):
            h = support.random_well_formed_history(seed)
            other = support.shuffle_preserving_tx_order(seed, h)
            assert equivalent(h, other)
            assert support.tuple_equivalent(h, other)

    def test_events_compare_whole_within_a_transaction(self):
        h = History((Event("r", 1, "x", 0), Event("c", 1)))
        assert not equivalent(h, History((Event("r", 1, "y", 0), Event("c", 1))))
        assert not equivalent(h, History((Event("r", 1, "x", 0), Event("a", 1))))
        assert not equivalent(h, History((Event("r", 2, "x", 0), Event("c", 1))))


class TestBuildGraph:
    def test_reference_history_edge_sets(self, reference):
        g = build_graph(reference, support.REFERENCE_ORDER)
        assert g.vertices == frozenset({0, 1, 2, 3, 4})
        assert labeled(g, RT) == {
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4),
        }
        assert labeled(g, RF) == {
            (0, 1), (0, 2), (0, 3), (1, 4), (2, 4),
        }
        assert labeled(g, MV) == {
            (2, 1), (1, 2), (1, 3), (3, 1), (0, 1), (0, 2), (4, 3),
        }

    def test_rt_comes_from_the_uncompleted_history(self):
        # T1 is live, so nothing may claim to follow it, even though its
        # completion abort lands before T2's events.
        h = parse("r 1 x 0\nr 2 x 0\nc 2\n")
        g = build_graph(h, {"x": (0,)})
        assert labeled(g, RT) == {(0, 1), (0, 2)}

    def test_order_must_cover_exactly_the_writers(self, reference):
        for order in (
            {"x": (0, 1), "y": (0, 2, 3)},  # z missing
            {**support.REFERENCE_ORDER, "w": (0,)},  # unknown object
            {**support.REFERENCE_ORDER, "x": (0, 1, 2)},  # 2 never wrote x
            {**support.REFERENCE_ORDER, "x": (0, 1, 1)},  # duplicate
        ):
            for check in (build_graph, check_with_order):
                with pytest.raises(UsageError):
                    check(reference, order)

    def test_own_write_and_own_read_impose_nothing(self):
        # A committed transaction reading an object it later writes must
        # not generate an edge against itself.
        h = parse("r 1 x 0\nw 1 x 5\nc 1\n")
        g = build_graph(h, {"x": (0, 1)})
        assert all(u != v for u, v, _ in g.edges)
        topo, cycle = topological_order(g)
        assert topo == [0, 1]
        assert cycle is None

    def test_event_after_a_terminal_is_a_usage_error(self):
        # build_graph reads the peel's bit sets, whose rt sets need each
        # terminal to be its transaction's last event, as the checks do
        h = History((Event("b", 1), Event("c", 1), Event("w", 1, "x", 5)))
        with pytest.raises(UsageError, match="well-formed"):
            build_graph(h, {"x": (0, 1)})

    def test_ambiguous_read_raises_before_the_order_is_checked(self):
        # the analysis projects in its constructor, so a value with two
        # committed writers, read before any invalid read, raises first
        h = parse(golden.AMBIGUOUS_TEXT)
        with pytest.raises(ValueError, match="unique") as info:
            build_graph(h, {"x": (0, 1)})  # writer 2 missing
        assert type(info.value) is ValueError

    def test_invalid_read_is_a_usage_error(self):
        # the analysis stops at the first invalid read, so the reads after
        # it, and the graph, are never resolved
        h = parse("b 1\nw 1 x 5\nb 2\nr 2 x 5\nc 1\nc 2\n")
        with pytest.raises(UsageError, match="invalid read 'r 2 x 5'"):
            build_graph(h, {"x": (0, 1)})

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mv_edges_ignore_interleaving(self, seed):
        # Re-interleaving the same per-transaction event sequences leaves
        # the mv edge family untouched; only rt can change. A shuffle can
        # move a read before its writer's commit: that history is decided
        # invalid at that read, and has no graph.
        h = support.random_legal_tseq(seed)
        order = sequential_order(h)
        g1 = build_graph(h, order)
        shuffled = support.shuffle_preserving_tx_order(seed, h)
        bad = invalid_read(shuffled)
        if bad is not None:
            v = check_with_order(shuffled, order)
            assert v.status == "invalid" and v.invalid_read == bad
            return
        g2 = build_graph(shuffled, order)
        assert labeled(g1, MV) == labeled(g2, MV)
        assert labeled(g1, RF) == labeled(g2, RF)


class TestTopologicalOrder:
    def test_min_id_tie_break(self):
        g = OpacityGraph(
            frozenset({0, 1, 2, 3}),
            frozenset({(0, 3, "rt"), (0, 2, "rt"), (0, 1, "rt")}),
        )
        topo, cycle = topological_order(g)
        assert topo == [0, 1, 2, 3]
        assert cycle is None

    def test_two_cycle_extraction(self):
        g = OpacityGraph(
            frozenset({0, 1, 2}),
            frozenset({(0, 1, "rt"), (1, 2, "mv"), (2, 1, "mv")}),
        )
        topo, cycle = topological_order(g)
        assert topo is None
        assert cycle == [1, 2]

    def test_self_loop(self):
        g = OpacityGraph(frozenset({1}), frozenset({(1, 1, "mv")}))
        assert topological_order(g) == (None, [1])

    def test_cycle_with_downstream_vertices(self):
        # 4 hangs off the cycle 2->3->2; extraction must report the loop.
        g = OpacityGraph(
            frozenset({1, 2, 3, 4}),
            frozenset(
                {(1, 2, "rt"), (2, 3, "mv"), (3, 2, "mv"), (3, 4, "rf")}
            ),
        )
        topo, cycle = topological_order(g)
        assert topo is None
        assert sorted(cycle) == [2, 3]

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_dfs_oracle(self, seed):
        import random as _random

        rng = _random.Random(f"digraph/{seed}")
        n = rng.randint(1, 8)
        vertices = frozenset(range(n))
        pairs = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.25
        }
        g = OpacityGraph(vertices, frozenset((u, v, "rt") for u, v in pairs))
        topo, cycle = topological_order(g)
        assert (topo is not None) == support.oracle_acyclic_dfs(vertices, pairs)
        if topo is None:
            # the reported cycle must be a real cycle in the graph
            assert len(cycle) >= 1
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (a, b) in pairs or a == b
        else:
            position = {v: i for i, v in enumerate(topo)}
            assert all(position[u] < position[v] for u, v in pairs)


class TestVerdicts:
    def test_reference_history_under_reference_order(self, reference):
        v = check_with_order(reference, support.REFERENCE_ORDER)
        assert v.status == "not_opaque"
        assert v.cycle == [1, 2]
        assert v.orders_tested == 1
        assert "cycle 1->2->1" in v.summary()

    def test_reference_history_no_order_works(self, reference):
        v = check_brute_force(reference)
        assert v.status == "not_opaque"
        assert v.orders_tested == 72  # 2! * 3! * 3!
        assert v.cycle == [1, 2]

    def test_crossover_pair_not_opaque(self):
        v = check_brute_force(parse(support.WRITE_SKEW_TEXT))
        assert v.status == "not_opaque"
        assert v.orders_tested == 4

    def test_aborted_reader_blocks_opacity(self):
        v = check_brute_force(parse(support.ABORTED_READER_TEXT))
        assert v.status == "not_opaque"

    def test_replayed_history_is_opaque(self, replayed):
        for verdict in (
            check_with_order(replayed, timestamp_order(replayed)),
            check_brute_force(replayed),
            check_auto(replayed),
        ):
            assert verdict.status == "opaque"
            assert verdict.serialization is not None

    def test_default_order_is_the_timestamp_order(self):
        for name, h in golden.inputs():
            default = _outcome(check_with_order, h)
            assert default == _outcome(check_with_order, h, timestamp_order(h)), name

    def test_timestamp_order_of_reference_history(self, reference):
        assert timestamp_order(reference) == {
            "x": (0, 1),
            "y": (0, 2, 3),
            "z": (0, 1, 3),
        }

    def test_opaque_serialization_is_block_ordered(self):
        h = parse("r 1 x 0\nw 1 x 5\nc 1\nr 2 x 5\nc 2\n")
        v = check_auto(h)
        assert v.status == "opaque"
        assert v.orders_tested == 1  # fast path, no search needed
        s = v.serialization
        assert is_t_sequential(s)
        assert illegal_read(s) is None
        assert equivalent(s, h.complete())

    def test_undecided_when_budget_exceeded(self, reference):
        v = check_brute_force(reference, budget=10)
        assert v.status == "undecided"
        assert "budget" in v.detail

    def test_brute_force_is_check_auto(self):
        assert check_brute_force is check_auto

    def test_working_timestamp_order_needs_no_budget(self):
        # 4! = 24 version orders of x exceed the budget, but the first,
        # ascending one already works
        h = parse("w 1 x 1\nc 1\nw 2 x 2\nc 2\nw 3 x 3\nc 3\n")
        v = check_brute_force(h, budget=1)
        assert v.status == "opaque"
        assert v.orders_tested == 1
        assert v.order == {"x": (0, 1, 2, 3)}

    def test_auto_falls_back_to_search(self, reference):
        v = check_auto(reference)
        assert v.status == "not_opaque"
        assert v.orders_tested == 72

    def test_invalid_read_short_circuits(self):
        h = parse("r 1 x 7\n")
        for verdict in (
            check_with_order(h, {"x": (0,)}),
            check_brute_force(h),
            check_auto(h),
        ):
            assert verdict.status == "invalid"
            assert verdict.invalid_read.line() == "r 1 x 7"
            assert "invalid read" in verdict.summary()

    def test_serialization_from_expands_blocks(self, replayed):
        completed = replayed.complete()
        topo = [0, 1, 2, 3, 4]
        s = serialization_from(completed, topo)
        assert [e.tx for e in s] == sorted(e.tx for e in completed)
        assert equivalent(s, completed)

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_brute_force_agrees_with_direct_search(self, seed):
        # The graph characterization against opacity by definition:
        # enumerate transaction orderings directly and compare.
        h = support.random_legal_tseq(seed)
        mutant = support.mutate_illegal(seed, h)
        for candidate in filter(None, (h, mutant)):
            try:
                verdict = check_brute_force(candidate)
            except ValueError:
                continue  # mutation made some value ambiguous
            if verdict.status == "undecided":
                continue
            assert (verdict.status == "opaque") == support.oracle_opaque_by_search(
                candidate
            )


class TestSearchAgainstDefinition:
    def test_concurrent_histories(self):
        # Concurrent histories with stale reads reach both verdicts; the
        # exhaustive search must match opacity by definition on each.
        verdicts = {True: 0, False: 0}
        for seed in range(150):
            h = support.random_concurrent_history(seed)
            v = check_auto(h)
            assert v.status in ("opaque", "not_opaque"), (seed, v.summary())
            assert v.opaque == support.oracle_opaque_by_search(h), seed
            verdicts[v.opaque] += 1
        assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts


def _unpruned_steps(history: History, tested: int) -> int:
    """Prefixes a walk that never prunes extends before it reaches the
    tested-th order: ceil(tested / orders below one prefix) per depth."""
    writes = committed_writes(history)
    sizes = [math.factorial(len(writes[obj])) for obj in sorted(writes)]
    return sum(-(-tested // math.prod(sizes[d + 1 :])) for d in range(len(sizes)))


class TestPrunedSearch:
    """The search skips the completions of every cyclic prefix; verdicts
    and counts must stay those of one graph per order."""

    def test_matches_one_graph_per_order(self, monkeypatch):
        steps = []
        extended = checker._extended

        def counting(reach, pairs):
            steps.append(pairs)
            return extended(reach, pairs)

        monkeypatch.setattr(checker, "_extended", counting)
        statuses = {}
        pruned = pruned_then_found = 0
        for seed in range(400):
            h = support.random_concurrent_history(seed)
            steps.clear()
            auto = _outcome(check_auto, h, DIFF_BUDGET)
            reference = _outcome(support.brute_force_reference, h, DIFF_BUDGET)
            status = getattr(reference, "status", "error")
            statuses[status] = statuses.get(status, 0) + 1
            if status == "undecided":
                # only the timestamp order can still answer
                assert auto == reference or auto.orders_tested == 1, seed
                continue
            assert auto == reference, seed
            searched = status == "not_opaque" or auto.orders_tested > 1
            if searched and len(steps) < _unpruned_steps(h, auto.orders_tested):
                pruned += 1
                pruned_then_found += auto.opaque
        assert statuses["not_opaque"] > 200 and statuses["opaque"] > 50, statuses
        # prefixes were cut short of the last object, also before a find
        assert pruned > 100 and pruned_then_found > 0, (pruned, pruned_then_found)

    def test_cyclic_first_prefix_then_opaque(self):
        h = parse(support.CYCLIC_FIRST_PREFIX_TEXT)
        ts = check_with_order(h, timestamp_order(h))
        assert ts.status == "not_opaque" and ts.cycle == [2, 3]
        v = check_auto(h)
        assert v.status == "opaque"
        assert v.order == {"x": (0, 2, 1), "y": (0, 4, 5)}
        # all 3! y orders under x order 0, 1, 2, then the first under 0, 2, 1
        assert v.orders_tested == 7
        assert v == support.brute_force_reference(h, DIFF_BUDGET)

    def test_count_is_the_found_orders_rank(self):
        # an opaque verdict counts the orders up to the one found, in
        # product order; a not-opaque one counts them all
        found = 0
        for seed in range(600):
            h = support.random_concurrent_history(seed)
            v = check_auto(h, DIFF_BUDGET)
            writes = committed_writes(h)
            objs = sorted(writes)
            product = list(
                itertools.product(
                    *(itertools.permutations(sorted(writes[obj])) for obj in objs)
                )
            )
            if v.status == "not_opaque":
                assert v.orders_tested == len(product), seed
            elif v.opaque:
                found += 1
                rank = product.index(tuple(v.order[obj] for obj in objs))
                assert v.orders_tested == 1 + rank, seed
                read = {e.obj for e in h.events if e.kind == "r"}
                for obj, seq in v.order.items():
                    assert seq[0] == 0, seed
                    assert obj in read or list(seq) == sorted(seq), seed
        assert found > 150, found

    def test_static_edges_never_close_a_cycle(self):
        # with T0 first and every other transaction placed by its last
        # event, each rt, rf and T0 edge of a valid history runs forward;
        # so it does in the mask sweep's order, the one the closure needs,
        # and the masks hold exactly those edges
        checked = 0
        for name, h in golden.inputs():
            try:
                analysis = checker._Analysis(h)
                if analysis.invalid is not None:
                    continue
            except ValueError:
                continue  # ambiguous written values
            last = {0: -1}
            for i, e in enumerate(h.events):
                last[e.tx] = i
            static = support.reference_static_edges(analysis)
            for u, v, label in static:
                assert last[u] < last[v], (name, u, v, label)
            vertex, _, rt, rf, _ = analysis.static_masks
            masked = {
                (vertex[u], vertex[v])
                for v, (before, read) in enumerate(zip(rt, rf))
                for u in range(v)
                if (before | read) >> u & 1
            }
            for v, (before, read) in enumerate(zip(rt, rf)):
                assert (before | read) >> v == 0, (name, vertex[v])
            assert masked == {(u, v) for u, v, _ in static}, name
            checked += 1
        assert checked > 1500, checked

    def test_cyclic_static_edges_are_an_invariant_violation(
        self, reference, monkeypatch
    ):
        # T0's rt, rf and T0 predecessors gain transaction 2: a backward
        # edge in the mask sweep's index order
        static_masks = checker._Analysis.static_masks.func

        def with_backward_edge(analysis):
            vertex, index, rt, rf, reads = static_masks(analysis)
            rt = rt.copy()
            rt[0] |= 1 << index[2]
            return vertex, index, rt, rf, reads

        monkeypatch.setattr(
            checker._Analysis, "static_masks", property(with_backward_edge)
        )
        with pytest.raises(InvariantViolation, match="close a cycle"):
            check_auto(reference)

    def test_found_order_is_sorted_once(self, graph_calls):
        # the timestamp order's peel leaves a cycle, the walk finds the
        # order, and only that order's graph is peeled after it
        h = parse(support.CYCLIC_FIRST_PREFIX_TEXT)
        v = check_auto(h)
        assert v.opaque
        ts, found = (build_graph(h, order) for order in (timestamp_order(h), v.order))
        assert graph_calls == [_edge_pairs(ts), _edge_pairs(found)]

    def test_no_order_found_sorts_only_timestamps(self, reference, graph_calls):
        # check_auto peels the timestamp order's graph alone, and its
        # cycle is the one sorting that graph yields
        v = check_auto(reference)
        assert v.status == "not_opaque" and v.orders_tested == 72
        graph = build_graph(reference, timestamp_order(reference))
        assert graph_calls == [_edge_pairs(graph)]
        _, cycle = support.reference_topological_order(graph)
        assert v.cycle == cycle


BUDGETS = (1, 10, 72, checker.DEFAULT_BUDGET)


def _walk_corpus():
    yield from golden.inputs()
    for seed in range(600):
        yield f"concurrent/{seed}", support.random_concurrent_history(seed)


class TestOneWalk:
    """check_auto decides the timestamp order by its peel, then every
    order in one walk. Verdicts, orders, counts, cycles and
    witnesses must stay those of the code it replaced,
    support.reference_check_auto."""

    def _agrees_with_references(self):
        decided = 0
        for name, h in _walk_corpus():
            for budget in BUDGETS:
                auto = _outcome(check_auto, h, budget)
                assert auto == _outcome(support.reference_check_auto, h, budget), (
                    name,
                    budget,
                )
                brute = _outcome(
                    support.brute_force_reference, h, min(budget, DIFF_BUDGET)
                )
                if getattr(brute, "status", None) not in (None, "undecided"):
                    assert auto == brute, (name, budget)
                    decided += 1
        return decided

    def test_matches_the_replaced_check(self):
        assert self._agrees_with_references() > 3000

    def test_a_read_brings_its_writers_predecessors(self):
        # 2 terminated before 3 began and 1 read 3's y, so 2 precedes 1
        # although 1 began first; 1 read x before 2 wrote it
        h = parse("b 1\nr 1 x 0\nb 2\nw 2 x 1\nc 2\nb 3\nw 3 y 2\nc 3\nr 1 y 2\nc 1\n")
        v = check_auto(h)
        assert v.status == "not_opaque" and v.cycle == [1, 2, 3]
        assert v == support.reference_check_auto(h)

    def test_event_after_a_terminal_is_a_usage_error(self):
        # parse refuses this; a history built by hand reaches the search,
        # whose rt masks need each terminal to be its transaction's last
        events = (Event("b", 2), Event("c", 2), Event("b", 1), Event("c", 1))
        h = History(events + (Event("w", 2, "x", 5),))
        with pytest.raises(UsageError, match="well-formed"):
            check_auto(h)
        with pytest.raises(UsageError, match="well-formed"):
            check_with_order(h, {"x": (2, 0)})
        # a write after its own commit, under every order, the default
        # timestamp order too: each one takes the peel's masks
        h = History((Event("b", 1), Event("c", 1), Event("w", 1, "x", 5)))
        for order in (None, {"x": (0, 1)}, {"x": (1, 0)}):
            with pytest.raises(UsageError, match="well-formed"):
                check_with_order(h, order)
        with pytest.raises(UsageError, match="well-formed"):
            check_auto(h)

    def test_certify_text_is_the_ascending_witness(self):
        # certify_text is the one form of the ascending rule: it answers,
        # with the timestamp order and the witness's text, iff the
        # ascending serialization passes _witness. The converse can fail
        # only on two committed writers of one value on one object, which
        # certify_text declines even unread (TestCertifyText pins that);
        # no valid history of this corpus has them.
        passed = 0
        for name, h in _walk_corpus():
            try:
                analysis = checker._Analysis(h)
                if analysis.invalid is not None:
                    continue
            except ValueError:
                continue
            s, failure = checker._witness(analysis, sorted({0} | h.txns()))
            certified = certify_text(h.serialize())
            assert (certified is not None) == (failure is None), name
            if certified is not None:
                assert certified == (timestamp_order(h), s.serialize()), name
                passed += 1
        assert passed > 1000, passed

    def test_walk_skips_t0_later_and_unread_permutations(self, monkeypatch):
        tried = []  # (writers, reads, permutation) of every choice the walk meets
        choices = checker._choices

        def recording(writers, reads):
            for choice in choices(writers, reads):
                tried.append((writers, reads, choice[1]))
                yield choice

        steps = []
        extended = checker._extended

        def counting(above, pairs):
            steps.append(pairs)
            return extended(above, pairs)

        reference_steps = []
        reference_extended = support.reference_extended

        def reference_counting(reach, pairs):
            reference_steps.append(pairs)
            return reference_extended(reach, pairs)

        monkeypatch.setattr(checker, "_choices", recording)
        monkeypatch.setattr(checker, "_extended", counting)
        monkeypatch.setattr(support, "reference_extended", reference_counting)
        fewer = unread = 0
        for seed in range(600):
            h = support.random_concurrent_history(seed)
            tried.clear()
            steps.clear()
            reference_steps.clear()
            v = check_auto(h, DIFF_BUDGET)
            support.reference_check_auto(h, DIFF_BUDGET)
            for writers, reads, perm in tried:
                assert perm[0] == writers[0] == 0, seed
            for writers, reads in {(tuple(w), tuple(r)) for w, r, _ in tried}:
                if not reads:
                    unread += 1
                    perms = [p for w, r, p in tried if tuple(w) == writers and not r]
                    assert set(perms) == {writers}, seed
            if v.status == "not_opaque":
                fewer += len(steps) < len(reference_steps)
        assert fewer >= 100 and unread > 0, (fewer, unread)

    def test_long_mvto_history_matches_the_graph(self):
        # the peel on a long history under its timestamp order, whose
        # witness is ascending, and under a shuffled order, which is cyclic
        h = replay(support.long_replay_script(1, 1200))
        assert len(h.txns()) >= 1000
        statuses = []
        for order in (timestamp_order(h), _random_order(1, h)):
            v = check_with_order(h, order)
            assert v == support.check_with_graph(h, order)
            statuses.append(v.status)
        assert statuses == ["opaque", "not_opaque"]
        _ascending_witness(h)
        assert check_auto(h) == check_with_order(h)


class TestSequentialHistoriesAreOpaque:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_legal_sequential_graph_is_acyclic(self, seed):
        h = support.random_legal_tseq(seed)
        g = build_graph(h, sequential_order(h))
        topo, cycle = topological_order(g)
        assert cycle is None, f"seed {seed}: cycle {cycle}"
        assert support.oracle_acyclic_dfs(g.vertices, g.edge_pairs())


# -------------------------------------------- ascending shortcut vs. the graph

DIFF_BUDGET = 720


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:  # ambiguous written values
        return "ValueError", str(exc)


def _auto_by_graph(history: History, budget: int):
    """check_auto decided by the graph path alone, the shortcut's reference."""
    ts = support.check_with_graph(history, timestamp_order(history))
    if ts.status in ("opaque", "invalid"):
        return ts
    return support.brute_force_reference(history, budget)


def _renumbered(seed: int, history: History) -> History:
    """The same history with transaction ids permuted, so id order stops
    following the order in which transactions ran."""
    rng = random.Random(f"renumber/{seed}")
    ids = sorted(history.txns())
    shuffled = ids[:]
    rng.shuffle(shuffled)
    new_id = dict(zip(ids, shuffled))
    return History(tuple(e._replace(tx=new_id[e.tx]) for e in history.events))


def _random_order(seed: int, history: History) -> dict:
    rng = random.Random(f"order/{seed}")
    order = {}
    for obj, writers in sorted(committed_writes(history).items()):
        seq = sorted(writers)
        rng.shuffle(seq)
        order[obj] = tuple(seq)
    return order


def _edge_pairs(graph: OpacityGraph):
    return graph.vertices, graph.edge_pairs()


@pytest.fixture
def graph_calls(monkeypatch):
    """Every graph the peel orders, as its vertices and (from, to) id
    pairs, recorded as it runs."""
    calls = []
    peel = checker._peel

    def recording(vertex, preds):
        pairs = {
            (vertex[u], vertex[v])
            for v, p in enumerate(preds)
            for u in checker._bits(p)
        }
        calls.append((frozenset(vertex), pairs))
        return peel(vertex, preds)

    monkeypatch.setattr(checker, "_peel", recording)
    return calls


def _same_verdicts(history: History, order) -> None:
    """Assert that check_with_order agrees with the graph path under
    order."""
    fast = _outcome(check_with_order, history, order)
    assert fast == _outcome(support.check_with_graph, history, order)


def _ascending_witness(history: History) -> None:
    """Assert that the timestamp order of an MVTO history is opaque, with
    the ascending serialization as its witness."""
    v = check_with_order(history)
    assert v.opaque
    assert [e.tx for e in v.serialization] == sorted(e.tx for e in history.complete())


def _same_auto(history: History) -> None:
    auto = _outcome(check_auto, history, DIFF_BUDGET)
    assert auto == _outcome(_auto_by_graph, history, DIFF_BUDGET)
    # check_brute_force is check_auto: one call answers for both names
    reference = _outcome(support.brute_force_reference, history, DIFF_BUDGET)
    if getattr(reference, "status", None) != "undecided":
        assert auto == reference


class TestAscendingShortcut:
    """The histories the ascending shortcut, certify_text, is for: MVTO
    runs, replays and generated histories, under fixed orders.
    check_with_order peels every order; each verdict must equal the
    graph path's."""

    def test_stress_runs(self):
        for seed in range(4):
            for threads in (1, 2, 3):
                for gc in (None, 1, 2):
                    cfg = WorkloadConfig(
                        threads=threads,
                        txs_per_thread=6,
                        object_count=3,
                        gc_threshold=gc,
                        retry_limit=1,
                        seed=seed,
                    )
                    h = run(cfg).history
                    # on an MVTO history the timestamp order is the witness
                    _ascending_witness(h)
                    _same_verdicts(h, timestamp_order(h))
                    _same_verdicts(h, _random_order(seed, h))
                    _same_auto(h)

    def test_replayed_schedules(self):
        for seed in range(150):
            h = replay(support.random_replay_script(seed))
            _ascending_witness(h)
            _same_verdicts(h, timestamp_order(h))
            _same_verdicts(h, _random_order(seed, h))
            _same_auto(h)

    def test_generated_histories(self):
        for seed in range(150):
            h = support.random_legal_tseq(seed)
            renumbered = _renumbered(seed, h)
            corpus = [
                h,
                support.shuffle_preserving_tx_order(seed, h),
                support.mutate_illegal(seed, h),
                renumbered,
                support.shuffle_preserving_tx_order(seed, renumbered),
                support.random_well_formed_history(seed),
            ]
            for candidate in filter(None, corpus):
                for order in (timestamp_order(candidate), _random_order(seed, candidate)):
                    _same_verdicts(candidate, order)
                _same_auto(candidate)

    def test_replayed_mvto_history_needs_no_graph(self, replayed, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(checker, "real_time_pairs", unexpected)
        monkeypatch.setattr(checker, "topological_order", unexpected)
        v = check_with_order(replayed, timestamp_order(replayed))
        assert v.status == "opaque"
        assert [e.tx for e in v.serialization] == sorted(
            e.tx for e in replayed.complete()
        )

    def test_later_transaction_finished_first(self):
        # T2 commits before T1 begins and they touch different objects:
        # real time rules out the ascending order, the graph puts 2 first
        h = parse("b 2\nw 2 x 1\nc 2\nb 1\nw 1 y 1\nc 1\n")
        v = check_with_order(h, timestamp_order(h))
        assert v == support.check_with_graph(h, timestamp_order(h))
        assert v.status == "opaque"
        assert [e.tx for e in v.serialization] == [2, 2, 2, 1, 1, 1]

    def test_read_illegal_in_ascending_order(self):
        # T1 reads T2's value, so T1 cannot go first; nothing in real
        # time stops 2 before 1
        h = parse("b 1\nb 2\nw 2 x 1\nc 2\nr 1 x 1\nc 1\n")
        v = check_with_order(h, timestamp_order(h))
        assert v == support.check_with_graph(h, timestamp_order(h))
        assert v.status == "opaque"
        assert [e.tx for e in v.serialization] == [2, 2, 2, 1, 1, 1]

    def test_order_not_ascending_skips_the_shortcut(self):
        # The ascending serialization is legal and respects real time,
        # but under version order 0, 2, 1 T3's read of 2 forces 3 before
        # 1, against real time: not opaque under this order.
        h = parse("w 1 x 1\nc 1\nw 2 x 2\nc 2\nr 3 x 2\nc 3\n")
        order = {"x": (0, 2, 1)}
        v = check_with_order(h, order)
        assert v == support.check_with_graph(h, order)
        assert v.status == "not_opaque"
        assert v.cycle == [1, 3]


def _non_ascending_order(seed: int, history: History) -> dict | None:
    """A seeded random version order that lists some object's writers
    out of ascending order, or None when no object has two writers."""
    rng = random.Random(f"non-ascending/{seed}")
    order = _random_order(seed, history)
    if all(list(seq) == sorted(seq) for seq in order.values()):
        several = [obj for obj, seq in order.items() if len(seq) > 1]
        if not several:
            return None
        obj = rng.choice(several)
        order[obj] = order[obj][::-1]
    return order


def _unexpected(*args):
    raise AssertionError("the labelled graph was built")


class TestOneEngine:
    """check_with_order decides every order by peeling the walk's bit
    sets. Whole verdicts must be those of the labelled
    graph, support.check_with_graph, and neither it nor check_auto may
    build an rt pair, a labelled edge or a heap sort on the way."""

    def _agrees(self, monkeypatch, corpus) -> Counter:
        statuses = Counter()
        for seed, (name, h) in enumerate(corpus):
            order = _non_ascending_order(seed, h)
            if order is None:
                continue
            with monkeypatch.context() as m:
                m.setattr(checker, "real_time_pairs", _unexpected)
                m.setattr(checker, "topological_order", _unexpected)
                verdict = _outcome(check_with_order, h, order)
                auto = _outcome(check_auto, h, DIFF_BUDGET)
            assert verdict == _outcome(support.check_with_graph, h, order), name
            assert auto == _outcome(support.reference_check_auto, h, DIFF_BUDGET), name
            statuses[getattr(verdict, "status", "ValueError")] += 1
        return statuses

    def test_golden_inputs(self, monkeypatch):
        statuses = self._agrees(monkeypatch, golden.inputs())
        assert statuses["opaque"] > 100 and statuses["not_opaque"] > 500, statuses

    def test_concurrent_histories(self, monkeypatch):
        corpus = (
            (seed, support.random_concurrent_history(seed)) for seed in range(600)
        )
        statuses = self._agrees(monkeypatch, corpus)
        assert statuses["opaque"] >= 10 and statuses["not_opaque"] > 500, statuses

    def test_long_replayed_histories(self, monkeypatch):
        corpus = [
            (n, replay(support.long_replay_script(seed, n)))
            for seed, n in enumerate((200, 400, 700, 1000), start=1)
        ]
        assert self._agrees(monkeypatch, corpus)["not_opaque"] == len(corpus)


def _masks_by_vertex(reads, seq) -> dict[int, int]:
    """checker._mv_masks as a dict, asserting one nonzero entry per
    vertex."""
    masks = checker._mv_masks(reads, seq)
    assert all(mask for _, mask in masks)
    by_vertex = dict(masks)
    assert len(by_vertex) == len(masks)
    return by_vertex


def _reference_masks(reads, seq) -> dict[int, int]:
    """Per target vertex, the OR of support.reference_mv_pairs."""
    by_vertex: dict[int, int] = {}
    for u, v in support.reference_mv_pairs(reads, seq):
        by_vertex[v] = by_vertex.get(v, 0) | 1 << u
    return by_vertex


def _random_mv_case(rng: random.Random) -> tuple[list, list]:
    """Reads and a version order of one object over a few vertices, 0
    the initial writer. Readers are drawn from every vertex, so a reader
    can write the object too, read the version it wrote (k == j) or
    read one version twice; T0's version is read like any other."""
    size = rng.randint(1, 7)
    writers = [0] + rng.sample(range(1, size + 1), rng.randint(0, size))
    seq = writers[:]
    rng.shuffle(seq)
    reads = [
        (rng.randint(1, size), rng.choice(writers)) for _ in range(rng.randint(0, 6))
    ]
    if reads and rng.random() < 0.3:
        reads.append(rng.choice(reads))
    return reads, seq


class TestMvRule:
    def test_masks_match_the_reference_pairs(self):
        # per target vertex, a mask is the OR of the pairs it replaced
        rng = random.Random("mv-masks")
        cases = Counter()
        for _ in range(20_000):
            reads, seq = _random_mv_case(rng)
            assert _masks_by_vertex(reads, seq) == _reference_masks(reads, seq), (
                reads,
                seq,
            )
            readers = Counter(k for k, _ in set(reads))
            cases["reader writes"] += any(k in seq for k, _ in reads)
            cases["k == j"] += any(k == j for k, j in reads)
            cases["read of T0"] += any(j == 0 for _, j in reads)
            cases["repeated read"] += len(set(reads)) < len(reads)
            cases["one reader of two versions"] += any(n > 1 for n in readers.values())
        assert min(cases.values()) > 1000 and len(cases) == 5, cases

    def test_masks_on_golden_inputs(self):
        # under the timestamp order and a seeded random one, by the
        # vertex indices the peel uses
        checked = 0
        for seed, (name, h) in enumerate(golden.inputs()):
            try:
                analysis = checker._Analysis(h)
                _, index, _, _, indexed = analysis.static_masks
            except (ValueError, UsageError):
                continue
            reads = analysis.reads
            for order in (timestamp_order(h), _random_order(seed, h)):
                for obj, seq in order.items():
                    pairs = [(index[k], index[j]) for k, j in reads.get(obj, ())]
                    assert indexed.get(obj, []) == pairs, (name, obj)
                    seq = [index[w] for w in seq]
                    want = _reference_masks(pairs, seq)
                    assert _masks_by_vertex(pairs, seq) == want, (name, obj)
            checked += 1
        assert checked > 1500, checked

    def test_graph_edges_match_the_labelled_reference(self):
        # build_graph expands the peel's bit sets; under any version
        # order its rt, rf, T0 and mv edges must be the labelled sets
        # they replaced. A history the analysis refuses, or one with an
        # invalid read, has no graph and raises
        built = 0
        for seed, (name, h) in enumerate(golden.inputs()):
            ts = timestamp_order(h)
            try:
                analysis = checker._Analysis(h)
                analysis.static_masks
            except (ValueError, UsageError) as exc:
                with pytest.raises(type(exc)):
                    build_graph(h, ts)
                continue
            if analysis.invalid is not None:
                with pytest.raises(UsageError, match="invalid read"):
                    build_graph(h, ts)
                continue
            static = support.reference_static_edges(analysis)
            reads = [
                (k, obj, j) for obj, pairs in analysis.reads.items() for k, j in pairs
            ]
            for order in (ts, _random_order(seed, h)):
                positions = {
                    obj: {w: p for p, w in enumerate(seq)} for obj, seq in order.items()
                }
                mv = support.reference_mv_edges(reads, analysis.writes, positions)
                graph = build_graph(h, order)
                assert graph.vertices == {0} | h.txns(), name
                assert graph.edges == static | mv, name
            built += 1
        assert built > 1500, built


def _ts_outcome(text: str):
    """What parse and check_with_order make of text: the order, witness
    text and orders tried of an opaque verdict, else its status or the
    name of the error raised."""
    try:
        v = check_with_order(parse(text))
    except ValueError as exc:
        return type(exc).__name__
    if not v.opaque:
        return v.status
    return v.order, v.serialization.serialize(), v.orders_tested


# One input per rule of certify_text. Each breaks that rule alone, so
# the certifier declines only because of it; the parse path then gives
# a different answer than certifying would.
DECLINED = {
    # shape
    "event after terminal": "b 1\nc 1\nr 1 x 0\n",
    "begin not first": "r 1 x 0\nb 1\nc 1\n",
    "read after write": "b 1\nw 1 x 5\nr 1 x 0\nc 1\n",
    # valid reads
    "value never committed": "b 1\nr 1 x 5\nc 1\n",
    "value of an aborted writer": "b 1\nw 1 x 5\na 1\nb 2\nr 2 x 5\nc 2\n",
    "value committed after the read": "b 1\nw 1 x 5\nb 2\nr 2 x 5\nc 1\nc 2\n",
    "duplicate value, read": "w 1 x 5\nc 1\nw 2 x 5\nc 2\nr 3 x 5\nc 3\n",
    "value T0 wrote, read": "w 1 x 0\nc 1\nr 2 x 0\nc 2\n",
    # legality under ascending order, at a read
    "stale read": "w 1 x 5\nc 1\nw 2 x 6\nc 2\nr 3 x 5\nc 3\n",
    "read of a larger id's value": "b 1\nw 2 x 5\nc 2\nr 1 x 5\nc 1\n",
    # legality under ascending order, at a commit
    "reader above read the predecessor": "b 2\nr 3 x 0\nw 2 x 5\nc 2\nc 3\n",
    # real time
    "larger id terminated first": "b 2\nc 2\nb 1\nc 1\n",
}


class TestCertifyText:
    """certify_text answers only where parse and check_with_order call
    the history opaque under the timestamp order after one order, with
    the same witness text, and it declines wherever one of its rules
    breaks."""

    @pytest.mark.parametrize(
        "text",
        [
            support.REFERENCE_REPLAYED,
            # a live transaction's abort is appended to its own lines
            "b 1\nr 1 x 0\nb 2\nw 2 x 5\nc 2\nw 1 y 3\n",
            # objects that only aborted writers or readers touch
            "b 1\nw 1 x 5\na 1\nb 2\nr 2 y 0\nc 2\n",
            # the last write of a transaction is its version
            "w 1 x 5\nw 1 x 6\nc 1\nr 2 x 6\nc 2\n",
            # an aborted reader reads the newest version below it
            "b 1\nb 2\nr 2 x 0\nw 1 y 5\nc 1\nr 2 y 5\na 2\n",
            # the last line needs no newline
            "b 1\nw 1 x -5\nc 1\nr 2 x -5",
            "",
        ],
    )
    def test_certified_as_parse_and_check(self, text):
        order, witness = certify_text(text)
        assert _ts_outcome(text) == (order, witness, 1)

    def test_mvto_histories_are_certified(self):
        for seed in range(40):
            text = replay(support.random_replay_script(seed)).serialize()
            got = certify_text(text)
            assert got is not None, seed
            assert _ts_outcome(text) == (*got, 1)

    @pytest.mark.parametrize(
        "line",
        [
            "r 1  x 0",  # doubled space
            "r 1\tx 0",
            " r 1 x 0",
            "r 1 x 0 ",
            "r 1 x 0\r",
            "r 01 x 0",
            "r 1 x 00",
            "r 1 x -0",
            "r 1 x 0 # comment",
            "r 1 x#1 0",
            "R 1 x 0",
            "r 1 x",
            "r 0 x 0",
        ],
    )
    def test_declines_other_spellings(self, line):
        text = f"b 1\n{line}\nc 1\n"
        assert certify_text(text) is None

    @pytest.mark.parametrize("text", ["b 1\n\nc 1\n", "# comment\nb 1\nc 1\n"])
    def test_declines_blank_and_comment_lines(self, text):
        assert certify_text(text) is None
        assert certify_text(text.replace("\n\n", "\n").replace("# comment\n", ""))

    @pytest.mark.parametrize("rule", sorted(DECLINED))
    def test_declines_on_each_rule(self, rule):
        text = DECLINED[rule]
        assert certify_text(text) is None
        # and the parse path does not certify the ascending serialization
        outcome = _ts_outcome(text)
        if isinstance(outcome, tuple):
            txs = [int(line.split()[1]) for line in outcome[1].splitlines()]
            assert txs != sorted(txs), rule

    def test_declines_an_unread_duplicate_value(self):
        # unread, it breaks no check of the parse path; one rule for
        # duplicates keeps the pass simple
        text = "w 1 x 5\nc 1\nw 2 x 5\nc 2\n"
        assert certify_text(text) is None
        assert _ts_outcome(text)[2] == 1

    @pytest.mark.parametrize("fault", ["drop", "repeat"])
    def test_a_line_count_mismatch_raises(self, fault, monkeypatch):
        regrouped = checker._regrouped

        def faulty(groups):
            out = regrouped(groups)
            return out[:-1] if fault == "drop" else out + out[-1:]

        monkeypatch.setattr(checker, "_regrouped", faulty)
        with pytest.raises(InvariantViolation, match="lost or changed events"):
            certify_text(support.REFERENCE_REPLAYED)


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _set_token(slot: int, make):
    """A line mutation that replaces token slot by make(token); it applies
    to lines that have that token."""

    def mutate(tokens: list[str]) -> str | None:
        if slot >= len(tokens):
            return None
        tokens = list(tokens)
        tokens[slot] = make(tokens[slot])
        return " ".join(tokens)

    return mutate


def _leading_zero(token: str) -> str:
    return "-0" + token[1:] if token.startswith("-") else "0" + token


# Each rewrites one canonical line, or returns None where it does not
# apply; a line that becomes two is one string with a newline inside.
# All but the last break the canonical spelling; the last breaks the
# shape, as a begin that does not come first.
LINE_MUTATIONS = {
    "leading-zero id": _set_token(1, _leading_zero),
    "leading-zero value": _set_token(3, _leading_zero),
    "-0 id": _set_token(1, lambda _: "-0"),
    "-0 value": _set_token(3, lambda _: "-0"),
    "+ id": _set_token(1, lambda t: "+" + t),
    "+5 value": _set_token(3, lambda _: "+5"),
    "non-ASCII digits in id": _set_token(1, lambda t: t.translate(_ARABIC_INDIC)),
    "non-ASCII digits in value": _set_token(3, lambda t: t.translate(_ARABIC_INDIC)),
    "tab": lambda tokens: "\t".join(tokens),
    "double space": lambda tokens: "  ".join(tokens),
    "trailing space": lambda tokens: " ".join(tokens) + " ",
    "CRLF": lambda tokens: " ".join(tokens) + "\r",
    "blank line before": lambda tokens: "\n" + " ".join(tokens),
    "comment line before": lambda tokens: "# c\n" + " ".join(tokens),
    "trailing comment": lambda tokens: " ".join(tokens) + " # c",
    "NEL in object": _set_token(2, lambda t: t[:1] + "\x85" + t[1:]),
    "no-break space in object": _set_token(2, lambda t: t[:1] + "\u00a0" + t[1:]),
    "missing field": lambda tokens: " ".join(tokens[:-1]),
    "unknown kind": lambda tokens: " ".join(["q", *tokens[1:]]),
    "begin after": lambda tokens: " ".join(tokens) + f"\nb {tokens[1]}",
}


def _mutated(text: str):
    """(name, text) for every LINE_MUTATIONS entry applied at the first,
    a middle and the last line it applies to, then the text without its
    final newline."""
    lines = text.splitlines()
    for name, mutate in LINE_MUTATIONS.items():
        spots = [(i, m) for i, line in enumerate(lines) if (m := mutate(line.split(" ")))]
        for i, line in (spots[0], spots[len(spots) // 2], spots[-1]) if spots else ():
            yield f"{name} at line {i + 1}", "\n".join([*lines[:i], line, *lines[i + 1:]]) + "\n"
    yield "no final newline", text[:-1]


class TestCertifyTextAgainstReference:
    """certify_text gives support.reference_certify_text's answer, None or
    the same order and witness, on canonical texts and on texts that
    break the canonical spelling or the shape at one line."""

    @staticmethod
    def _agrees(texts) -> int:
        certified = 0
        for name, text in texts:
            got = certify_text(text)
            assert got == support.reference_certify_text(text), name
            certified += got is not None
        return certified

    def test_golden_inputs(self):
        # among them the 600 random_concurrent_history seeds
        texts = [(name, h.serialize()) for name, h in golden.inputs()]
        texts += [(name, getattr(support, name)) for name in ("REFERENCE_TEXT", "REFERENCE_REPLAYED")]
        texts.append(("empty text", ""))
        assert self._agrees(texts) > 1000

    def test_long_replayed_histories(self):
        texts = [
            (n, replay(support.long_replay_script(seed, n)).serialize())
            for seed, n in enumerate((200, 500, 800, 1200), start=1)
        ]
        assert self._agrees(texts) == len(texts)

    @pytest.mark.parametrize(
        "text",
        [
            support.REFERENCE_REPLAYED,
            replay(support.long_replay_script(1, 200)).serialize(),
            support.random_concurrent_history(3).serialize(),
        ],
    )
    def test_mutated_lines(self, text):
        mutated = list(_mutated(text))
        names = {name.split(" at line")[0] for name, _ in mutated}
        assert names == {*LINE_MUTATIONS, "no final newline"}
        # only the text without its final newline can still be certified
        assert self._agrees(mutated) == (certify_text(text) is not None)
