"""The one bounded LRU every in-memory cache of the serving tier sits on.

A stateful Hypothesis machine interleaves ``put`` / ``get`` / ``peek`` /
``pop`` with random sizes under both bounds and checks the map against a
reference ``OrderedDict`` model after every step.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.lru import ByteBudgetLRU

KEYS = st.integers(min_value=0, max_value=11)
SIZES = st.integers(min_value=0, max_value=40)


class LRUMachine(RuleBasedStateMachine):
    """``ByteBudgetLRU`` against a model that evicts by hand."""

    @initialize(max_bytes=st.none() | st.integers(min_value=1, max_value=100),
                max_entries=st.none() | st.integers(min_value=1, max_value=6))
    def build(self, max_bytes, max_entries):
        self.max_bytes, self.max_entries = max_bytes, max_entries
        # Values are (tag, size) pairs, so a value carries its own size.
        self.lru = ByteBudgetLRU(max_bytes, max_entries, size=lambda v: v[1])
        self.model: OrderedDict = OrderedDict()
        self.evicted = 0
        self.tag = 0

    def _over(self) -> bool:
        held = sum(v[1] for v in self.model.values())
        return ((self.max_entries is not None and len(self.model) > self.max_entries)
                or (self.max_bytes is not None and held > self.max_bytes))

    @rule(key=KEYS, size=SIZES)
    def put(self, key, size):
        self.tag += 1
        value = (self.tag, size)
        self.model.pop(key, None)
        self.model[key] = value
        while len(self.model) > 1 and self._over():
            self.model.popitem(last=False)
            self.evicted += 1
        self.lru.put(key, value)
        assert self.lru.peek(key) is value  # the entry just put is held

    @rule(key=KEYS)
    def get(self, key):
        expect = self.model.get(key)
        if expect is not None:
            self.model.move_to_end(key)
        assert self.lru.get(key) is expect

    @rule(key=KEYS)
    def peek(self, key):
        assert self.lru.peek(key) is self.model.get(key)

    @rule(key=KEYS)
    def pop(self, key):
        assert self.lru.pop(key) is self.model.pop(key, None)

    @invariant()
    def same_entries_in_lru_order(self):
        # Same keys in the same recency order: evictions followed the
        # model's LRU order, and nothing left that the model kept.
        assert list(self.lru) == list(self.model)
        assert len(self.lru) == len(self.model)

    @invariant()
    def bytes_are_the_held_sizes(self):
        assert self.lru.bytes == sum(v[1] for v in self.model.values())

    @invariant()
    def over_a_bound_only_alone(self):
        assert len(self.lru) <= 1 or not self._over()

    @invariant()
    def evictions_count_what_left(self):
        assert self.lru.evictions == self.evicted


LRUMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=40,
                                        deadline=None)
TestLRUMachine = LRUMachine.TestCase


def test_size_is_read_at_put():
    """A value that grows in place keeps the size it was put with."""
    lru = ByteBudgetLRU(max_bytes=4)
    rows: list = []
    lru.put("rows", rows)
    rows.extend(range(10))
    assert lru.bytes == 0
    assert lru.pop("rows") is rows and lru.bytes == 0
