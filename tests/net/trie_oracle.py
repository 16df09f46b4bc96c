"""Binary radix trie for longest-prefix matching: the lookup oracle.

Production resolves covering prefixes through the pfx2as stab table
(:mod:`repro.net.pfx2as`).  This trie stores one node per prefix bit
along inserted paths and answers longest-prefix-match in at most 32
steps; ``tests/net/test_prefix_lookup.py`` holds the stab table to it.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.net.ipv4 import IPv4Address, IPv4Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps :class:`IPv4Prefix` keys to values with longest-prefix lookup."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value for ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def exact(self, prefix: IPv4Prefix) -> V | None:
        """Return the value stored exactly at ``prefix``, or None."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def longest_match(self, address: IPv4Address) -> tuple[IPv4Prefix, V] | None:
        """Return the most specific ``(prefix, value)`` covering ``address``."""
        node = self._root
        best: tuple[int, V] | None = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        for depth in range(32):
            bit = (address.value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        return IPv4Prefix.containing(address, length), value

    def lookup(self, address: IPv4Address) -> V | None:
        """Return the value of the longest matching prefix, or None."""
        match = self.longest_match(address)
        return None if match is None else match[1]

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """Yield all ``(prefix, value)`` pairs in address order."""

        def walk(node: _Node[V], network: int, depth: int
                 ) -> Iterator[tuple[IPv4Prefix, V]]:
            if node.has_value:
                yield IPv4Prefix(network, depth), node.value  # type: ignore[misc]
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    child_network = network | (bit << (31 - depth))
                    yield from walk(child, child_network, depth + 1)

        yield from walk(self._root, 0, 0)
