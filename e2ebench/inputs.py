"""Seeded input generators for the end-to-end benchmark.

Every input is produced here, from ``random.Random(seed)``, as bracket
notation (``{a{b}{c}}``): the program under test only ever receives the
generated strings.  The generators are the benchmark's own and do not call
the library, so a change to ``repro.datasets`` cannot change what is
measured.

A tree is built as a list of labels plus a list of child-index lists
(node 0 is the root) and serialized without recursion, so deep spines such
as the 300-node left branch need no recursion headroom.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

#: Fig. 9 shapes of the paper, by their figure names.
SHAPES: Tuple[str, ...] = ("LB", "RB", "FB", "ZZ", "RND")

#: Part-of-speech / constituent tags for treebank-like trees.
TREEBANK_TAGS: Tuple[str, ...] = (
    "S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "DT", "NN", "NNS", "VB",
    "VBD", "VBZ", "IN", "JJ", "RB", "PRP", "CC", "CD", "TO",
)

#: Labels of random trees (light pairs and the RND shape).
RANDOM_ALPHABET: Tuple[str, ...] = tuple("abcdefgh")


class TreeSpec:
    """A rooted ordered labelled tree under construction (node 0 = root)."""

    __slots__ = ("labels", "children")

    def __init__(self, root_label: str) -> None:
        self.labels: List[str] = [root_label]
        self.children: List[List[int]] = [[]]

    def add(self, parent: int, label: str, position: int = -1) -> int:
        node = len(self.labels)
        self.labels.append(label)
        self.children.append([])
        kids = self.children[parent]
        if position < 0:
            kids.append(node)
        else:
            kids.insert(position, node)
        return node

    def __len__(self) -> int:
        return len(self.labels)

    def to_bracket(self) -> str:
        out: List[str] = []
        stack: List[object] = [0]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("{" + self.labels[item])
            stack.append("}")
            stack.extend(reversed(self.children[item]))
        return "".join(out)

    def copy(self) -> "TreeSpec":
        other = TreeSpec(self.labels[0])
        other.labels = list(self.labels)
        other.children = [list(kids) for kids in self.children]
        return other


def _spine(n: int, spine_left: Callable[[int], bool]) -> TreeSpec:
    """A spine with one leaf beside each inner spine node.

    The node count rule is the paper's LB/RB/ZZ one: (spine child, leaf)
    pairs while two nodes fit, and an even ``n`` puts a single-child node
    on top.  ``spine_left(k)`` says whether the ``k``-th pair, counted from
    the bottom, keeps the spine on the left.
    """
    tree = TreeSpec("a")
    current = tree.add(0, "a") if n % 2 == 0 else 0
    pairs = (n - 1) // 2
    for k in reversed(range(pairs)):
        if spine_left(k):
            nxt = tree.add(current, "a")
            tree.add(current, "a")
        else:
            tree.add(current, "a")
            nxt = tree.add(current, "a")
        current = nxt
    return tree


def full_binary(n: int) -> TreeSpec:
    """Balanced binary tree with exactly ``n`` nodes (left subtree larger)."""
    tree = TreeSpec("a")
    stack = [(0, n)]
    while stack:
        node, count = stack.pop()
        remaining = count - 1
        left = (remaining + 1) // 2
        right = remaining - left
        for size in (left, right):
            if size > 0:
                stack.append((tree.add(node, "a"), size))
    return tree


def random_tree(
    rng: random.Random,
    n: int,
    alphabet: Sequence[str] = RANDOM_ALPHABET,
    max_depth: int = 15,
    max_fanout: int = 6,
) -> TreeSpec:
    """``n`` nodes, each attached to a uniformly chosen node below the limits."""
    tree = TreeSpec(rng.choice(alphabet))
    depth = [0]
    eligible = [0]
    while len(tree) < n:
        slot = rng.randrange(len(eligible))
        parent = eligible[slot]
        child = tree.add(parent, rng.choice(alphabet))
        depth.append(depth[parent] + 1)
        if len(tree.children[parent]) >= max_fanout:
            eligible[slot] = eligible[-1]
            eligible.pop()
        if depth[child] < max_depth:
            eligible.append(child)
    return tree


def shape_tree(shape: str, n: int, rng: random.Random) -> TreeSpec:
    """The Fig. 9 shape ``shape`` with ``n`` nodes (RND draws from ``rng``)."""
    if shape == "LB":
        return _spine(n, lambda k: True)
    if shape == "RB":
        return _spine(n, lambda k: False)
    if shape == "ZZ":
        return _spine(n, lambda k: k % 2 == 0)
    if shape == "FB":
        return full_binary(n)
    if shape == "RND":
        return random_tree(rng, n, alphabet=("a",))
    raise ValueError(f"unknown shape {shape!r}")


def treebank_tree(rng: random.Random, size: int) -> TreeSpec:
    """A small, deep, narrow tree with skewed constituent labels."""
    tree = TreeSpec("S")
    depth = [0]
    frontier = [0]
    while len(tree) < size:
        # Extend one of the deeper half of the frontier: deep, narrow shapes.
        frontier.sort(key=lambda node: (depth[node], node))
        deep = frontier[len(frontier) // 2:]
        parent = deep[rng.randrange(len(deep))]
        fanout = rng.choices((1, 2, 3), weights=(0.55, 0.35, 0.10))[0]
        for _ in range(min(fanout, size - len(tree))):
            child = tree.add(parent, rng.choice(TREEBANK_TAGS))
            depth.append(depth[parent] + 1)
            frontier.append(child)
        frontier.remove(parent)
        if not frontier:
            frontier = [0]
    return tree


def perturb(tree: TreeSpec, rng: random.Random, edits: int) -> TreeSpec:
    """A copy of ``tree`` after ``edits`` leaf inserts, leaf deletes or renames.

    Labels come from the tree's own label set, so the copy stays a near
    duplicate (its distance to the original is at most ``edits``).
    """
    out = tree.copy()
    labels = sorted(set(tree.labels))
    for _ in range(edits):
        op = rng.choice(("rename", "insert", "delete"))
        if op == "rename":
            out.labels[rng.randrange(len(out))] = rng.choice(labels)
        elif op == "insert":
            parent = rng.randrange(len(out))
            position = rng.randint(0, len(out.children[parent]))
            out.add(parent, rng.choice(labels), position)
        else:
            leaves = [v for v in range(1, len(out)) if not out.children[v]]
            if leaves:
                out = _without_leaf(out, rng.choice(leaves))
    return out


def _without_leaf(tree: TreeSpec, leaf: int) -> TreeSpec:
    out = TreeSpec(tree.labels[0])
    stack = [(0, 0)]
    while stack:
        old, new = stack.pop()
        made = [
            (child, out.add(new, tree.labels[child]))
            for child in tree.children[old]
            if child != leaf
        ]
        stack.extend(made)
    return out
