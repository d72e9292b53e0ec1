import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mvtostm import checker
from mvtostm.checker import (
    OpacityGraph,
    build_graph,
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

    # The checks raise for an ambiguous value only where the walk for the
    # first invalid read meets it; build_graph resolves every read.

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
        with pytest.raises(ValueError, match="unique"):
            build_graph(h, order)

    def test_unread_duplicate_values_are_not_ambiguous(self):
        h = parse("b 3\nr 3 x 0\nw 1 x 7\nc 1\nw 2 x 7\nc 2\nc 3\n")
        order = timestamp_order(h)
        assert invalid_read(h) is None
        assert check_with_order(h, order).opaque and check_auto(h).opaque
        assert build_graph(h, order).labeled(checker.RF) == {(0, 3)}


class TestOneProjectionPerCheck:
    """Each check computes the committed writes and the writer index
    once, whichever of the shortcut, the graph and the search it takes."""

    @pytest.fixture
    def projections(self, monkeypatch):
        calls = Counter()
        for name in ("committed_writes", "_writer_index"):

            def counting(*args, name=name, original=getattr(checker, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(checker, name, counting)
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
                assert projections == {"committed_writes": 1, "_writer_index": 1}

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
        assert projections == {"committed_writes": 1, "_writer_index": 1}
        capsys.readouterr()


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
        assert g.labeled(checker.RT) == {
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4),
        }
        assert g.labeled(checker.RF) == {
            (0, 1), (0, 2), (0, 3), (1, 4), (2, 4),
        }
        assert g.labeled(checker.MV) == {
            (2, 1), (1, 2), (1, 3), (3, 1), (0, 1), (0, 2), (4, 3),
        }

    def test_rt_comes_from_the_uncompleted_history(self):
        # T1 is live, so nothing may claim to follow it, even though its
        # completion abort lands before T2's events.
        h = parse("r 1 x 0\nr 2 x 0\nc 2\n")
        g = build_graph(h, {"x": (0,)})
        assert g.labeled(checker.RT) == {(0, 1), (0, 2)}

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

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mv_edges_ignore_interleaving(self, seed):
        # Re-interleaving the same per-transaction event sequences leaves
        # the mv edge family untouched; only rt can change.
        h = support.random_legal_tseq(seed)
        order = sequential_order(h)
        g1 = build_graph(h, order)
        shuffled = support.shuffle_preserving_tx_order(seed, h)
        g2 = build_graph(shuffled, order)
        assert g1.labeled(checker.MV) == g2.labeled(checker.MV)
        assert g1.labeled(checker.RF) == g2.labeled(checker.RF)


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
            analysis = checker._Analysis(h)
            try:
                if analysis.invalid is not None:
                    continue
            except ValueError:
                continue  # ambiguous written values
            last = {0: -1}
            for i, e in enumerate(h.events):
                last[e.tx] = i
            for u, v, label in analysis.static_edges:
                assert last[u] < last[v], (name, u, v, label)
            vertex, _, rt, rf = analysis.static_masks
            masked = {
                (vertex[u], vertex[v])
                for v, (before, read) in enumerate(zip(rt, rf))
                for u in range(v)
                if (before | read) >> u & 1
            }
            for v, (before, read) in enumerate(zip(rt, rf)):
                assert (before | read) >> v == 0, (name, vertex[v])
            assert masked == {(u, v) for u, v, _ in analysis.static_edges}, name
            checked += 1
        assert checked > 1500, checked

    def test_cyclic_static_edges_are_an_invariant_violation(
        self, reference, monkeypatch
    ):
        # T0's rt, rf and T0 predecessors gain transaction 2: a backward
        # edge in the mask sweep's index order
        static_masks = checker._Analysis.static_masks.func

        def with_backward_edge(analysis):
            vertex, index, rt, rf = static_masks(analysis)
            rt = rt.copy()
            rt[0] |= 1 << index[2]
            return vertex, index, rt, rf

        monkeypatch.setattr(
            checker._Analysis, "static_masks", property(with_backward_edge)
        )
        with pytest.raises(InvariantViolation, match="close a cycle"):
            check_auto(reference)

    @pytest.fixture
    def topo_graphs(self, monkeypatch):
        graphs = []
        topological_order = checker.topological_order

        def recording(graph):
            graphs.append(graph)
            return topological_order(graph)

        monkeypatch.setattr(checker, "topological_order", recording)
        return graphs

    def test_found_order_is_sorted_once(self, topo_graphs):
        # the timestamp order fails on the walk's masks, with no graph
        h = parse(support.CYCLIC_FIRST_PREFIX_TEXT)
        v = check_auto(h)
        assert v.opaque
        assert topo_graphs == [build_graph(h, v.order)]

    def test_no_order_found_sorts_only_timestamps(self, reference, topo_graphs):
        # check_auto sorts no graph; its cycle is the one sorting the
        # timestamp order's graph yields
        v = check_auto(reference)
        assert v.status == "not_opaque" and v.orders_tested == 72
        assert topo_graphs == []
        _, cycle = topological_order(build_graph(reference, timestamp_order(reference)))
        assert v.cycle == cycle


BUDGETS = (1, 10, 72, checker.DEFAULT_BUDGET)


def _walk_corpus():
    yield from golden.inputs()
    for seed in range(600):
        yield f"concurrent/{seed}", support.random_concurrent_history(seed)


class TestOneWalk:
    """check_auto decides the timestamp order and the search in one walk.
    Verdicts, orders, counts, cycles and witnesses must stay those of the
    code it replaced, support.reference_check_auto."""

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

    def test_matches_with_the_gate_declining(self, monkeypatch):
        # the walk alone decides what the ascending serialization certified
        monkeypatch.setattr(
            checker._Analysis, "ascending_certifies", lambda analysis, order: False
        )
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

    def test_gate_is_the_ascending_witness(self):
        # exact: it passes iff the ascending serialization passes _witness
        passed = 0
        for name, h in _walk_corpus():
            try:
                analysis = checker._Analysis(h)
                if analysis.invalid is not None:
                    continue
            except ValueError:
                continue
            order = checker._ascending_order(analysis.writes)
            _, failure = checker._witness(analysis, sorted(analysis.vertices))
            assert analysis.ascending_certifies(order) == (failure is None), name
            passed += failure is None
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

    def test_long_mvto_history_takes_the_gate(self, monkeypatch):
        h = replay(support.long_replay_script(1, 1200))
        assert len(h.txns()) >= 1000

        def unexpected(*args):
            raise AssertionError("the gate should have certified")

        monkeypatch.setattr(checker, "real_time_pairs", unexpected)
        monkeypatch.setattr(checker, "topological_order", unexpected)
        monkeypatch.setattr(checker, "_closure", unexpected)
        monkeypatch.setattr(checker._Analysis, "static_masks", property(unexpected))
        v = check_auto(h)
        assert v.opaque and v.orders_tested == 1
        assert [e.tx for e in v.serialization] == sorted(e.tx for e in h.complete())


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


@pytest.fixture
def graph_calls(monkeypatch):
    """Every version order the graph path decides, recorded as it runs."""
    calls = []
    graph_verdict = checker._graph_verdict

    def recording(analysis, order, tested=1):
        calls.append(order)
        return graph_verdict(analysis, order, tested)

    monkeypatch.setattr(checker, "_graph_verdict", recording)
    return calls


def _same_verdicts(history: History, order, graph_calls) -> bool:
    """Assert that check_with_order agrees with the graph path under
    order; return whether it certified opacity without building a graph."""
    before = len(graph_calls)
    fast = _outcome(check_with_order, history, order)
    certified = len(graph_calls) == before and getattr(fast, "opaque", False)
    assert fast == _outcome(support.check_with_graph, history, order)
    return certified


def _same_auto(history: History) -> None:
    auto = _outcome(check_auto, history, DIFF_BUDGET)
    assert auto == _outcome(_auto_by_graph, history, DIFF_BUDGET)
    # check_brute_force is check_auto: one call answers for both names
    reference = _outcome(support.brute_force_reference, history, DIFF_BUDGET)
    if getattr(reference, "status", None) != "undecided":
        assert auto == reference


class TestAscendingShortcut:
    """check_with_order certifies the ascending serialization before it
    builds a graph. Every verdict must equal the graph path's."""

    def test_stress_runs(self, graph_calls):
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
                    assert _same_verdicts(h, timestamp_order(h), graph_calls)
                    _same_verdicts(h, _random_order(seed, h), graph_calls)
                    _same_auto(h)

    def test_replayed_schedules(self, graph_calls):
        for seed in range(150):
            h = replay(support.random_replay_script(seed))
            assert _same_verdicts(h, timestamp_order(h), graph_calls)
            _same_verdicts(h, _random_order(seed, h), graph_calls)
            _same_auto(h)

    def test_generated_histories(self, graph_calls):
        certified = checked = 0
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
                    certified += _same_verdicts(candidate, order, graph_calls)
                    checked += 1
                _same_auto(candidate)
        # the corpus reaches both the shortcut and the graph
        assert 0 < certified < checked

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


class TestMvRule:
    def test_graph_edges_match_the_labelled_reference(self):
        # one mv rule serves the graph and the search; it must give the
        # edges of the labelled set it replaced, under any version order
        for seed in range(200):
            h = support.random_concurrent_history(seed)
            analysis = checker._Analysis(h)
            reads = [
                (k, obj, j) for obj, pairs in analysis.reads.items() for k, j in pairs
            ]
            for order in (timestamp_order(h), _random_order(seed, h)):
                positions = {
                    obj: {w: p for p, w in enumerate(seq)} for obj, seq in order.items()
                }
                want = support.reference_mv_edges(reads, analysis.writes, positions)
                assert build_graph(h, order).labeled(checker.MV) == {
                    (u, v) for u, v, _ in want
                }, seed


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
