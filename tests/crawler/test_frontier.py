"""Tests for the BFS frontier."""

import numpy as np

from repro.crawler.frontier import BFSFrontier


class TestFrontier:
    def test_fifo_order(self):
        frontier = BFSFrontier()
        frontier.add_all([3, 1, 2])
        assert [frontier.pop() for _ in range(3)] == [3, 1, 2]

    def test_dedup_on_add(self):
        frontier = BFSFrontier()
        assert frontier.add(1)
        assert not frontier.add(1)
        assert len(frontier) == 1

    def test_popped_user_cannot_requeue(self):
        frontier = BFSFrontier()
        frontier.add(1)
        frontier.pop()
        assert not frontier.add(1)

    def test_add_all_counts_new(self):
        frontier = BFSFrontier()
        frontier.add(1)
        assert frontier.add_all([1, 2, 3]) == 2

    def test_visited_and_discovered(self):
        frontier = BFSFrontier()
        frontier.add(1)
        assert frontier.discovered(1)
        assert not frontier.visited(1)
        frontier.pop()
        assert frontier.visited(1)
        assert frontier.n_visited == 1
        assert frontier.n_discovered == 1

    def test_bool_reflects_queue(self):
        frontier = BFSFrontier()
        assert not frontier
        frontier.add(1)
        assert frontier
        frontier.pop()
        assert not frontier

    def test_mixed_int_and_numpy_int_dedup(self):
        # Circle lists arrive as numpy int64; seeds as python ints.  Both
        # hash identically, so the same id must dedup across the types.
        frontier = BFSFrontier()
        assert frontier.add(5)
        assert not frontier.add(np.int64(5))
        assert frontier.add(np.int64(6))
        assert not frontier.add(6)
        assert len(frontier) == 2
        assert frontier.n_discovered == 2

    def test_add_all_accepts_a_generator(self):
        frontier = BFSFrontier()
        added = frontier.add_all(uid * 2 for uid in range(4))
        assert added == 4
        assert [frontier.pop() for _ in range(4)] == [0, 2, 4, 6]

    def test_add_all_generator_with_duplicates(self):
        frontier = BFSFrontier()
        assert frontier.add_all(uid % 3 for uid in range(9)) == 3


class TestStateExport:
    def test_round_trip(self):
        frontier = BFSFrontier()
        frontier.add_all([7, 3, 9, 5])
        frontier.pop()
        state = frontier.export_state()
        restored = BFSFrontier()
        restored.restore_state(state)
        assert restored.export_state() == state
        assert [restored.pop() for _ in range(3)] == [3, 9, 5]
        assert restored.visited(7)
        assert not restored.add(7)

    def test_export_coerces_numpy_ids_to_ints(self):
        frontier = BFSFrontier()
        frontier.add(np.int64(42))
        state = frontier.export_state()
        assert type(state["queue"][0]) is int
        assert type(state["seen"][0]) is int

    def test_sets_serialise_sorted(self):
        frontier = BFSFrontier()
        frontier.add_all([9, 1, 5])
        state = frontier.export_state()
        assert state["seen"] == [1, 5, 9]
        assert state["queue"] == [9, 1, 5]  # FIFO order is preserved


def sequential(frontier: BFSFrontier, user_ids) -> int:
    """The per-id loop ``add_all`` batches: the oracle for its result."""
    return sum(1 for uid in user_ids if frontier.add(uid))


def drained(frontier: BFSFrontier) -> list:
    return [frontier.pop() for _ in range(len(frontier))]


class TestAddAllMatchesSequentialAdd:
    """``add_all`` queues the same ids, in the same order, with the same
    count, as calling ``add`` once per id."""

    BATCHES = [
        [],
        [5, 1, 5, 3, 1],
        [2, 2, 2],
        list(range(50)) + list(range(25, 75)),
        [np.int64(9), 9, np.int64(4), 4, 11],
        [7, np.int64(7), True, 1, 0, False],
    ]

    def check(self, prefill, batches):
        batched, oracle = BFSFrontier(), BFSFrontier()
        for frontier in (batched, oracle):
            for uid in prefill:
                frontier.add(uid)
            frontier.pop()  # one prefilled id is already visited
        for batch in batches:
            assert batched.add_all(batch) == sequential(oracle, batch)
            assert batched.n_discovered == oracle.n_discovered
        queued, expected = drained(batched), drained(oracle)
        assert queued == expected
        assert [type(uid) for uid in queued] == [type(uid) for uid in expected]
        assert batched.export_state() == oracle.export_state()

    def test_lists(self):
        self.check([1, 3, 4], self.BATCHES)

    def test_tuples_and_arrays(self):
        self.check(
            [0, 8],
            [tuple(batch) for batch in self.BATCHES]
            + [np.array([3, 8, 3, 12], dtype=np.int64)],
        )

    def test_generators_are_consumed_once(self):
        batched, oracle = BFSFrontier(), BFSFrontier()
        for frontier in (batched, oracle):
            frontier.add(2)
        assert batched.add_all(uid % 5 for uid in range(12)) == sequential(
            oracle, (uid % 5 for uid in range(12))
        )
        assert drained(batched) == drained(oracle) == [2, 0, 1, 3, 4]
