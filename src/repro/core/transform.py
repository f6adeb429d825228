"""Transformation-based plan enumeration (the Section 4 machinery).

``enumerate_plans`` computes the closure of a join core under verified
rewrite rules:

* commutativity of ``⋈``/``↔`` and the ``→``/``←`` mirror;
* inner-join associativity with conjunct redistribution;
* the valid outer-join associativities (join/LOJ pull-in and -out,
  LOJ-LOJ, FOJ-FOJ -- GALI92a/ROSE90);
* conjunct deferral at the root (``defer_conjunct`` -- the paper's
  identities (1)-(8) generalized), which is what breaks complex
  predicates and predicates over broken-up hyperedges;
* the generalized-join rule realizing the paper's MGOJ with GS:

      a →q (b ⋈p c)  =  σ*_p[a]((a →q b) →TRUE c)

  (the TRUE-predicate left join is a left-preserving pairing: it
  equals the cartesian product on non-empty right operands and keeps
  the left rows otherwise, which makes the identity exact on *all*
  inputs, empty relations included).

Every plan in the closure is equivalent to the seed; the rules were
validated on randomized databases and the property tests re-check
closure-wide equivalence.

The closure walk is memoized per subtree.  Each distinct subtree's
one-step rule rewrites, and its deferrable conjuncts with their
Theorem 1 preserved groups walked up to it, are computed once per
enumeration; a plan's neighbours are its root's own rewrites plus its
children's memoized ones re-spined under the root.  The output is the
path-walk closure exactly -- the same plans in the same order -- which
``tests/core/test_transform.py`` checks against a reference copy of
that walk.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

from repro.expr.nodes import (
    Expr,
    GenSelect,
    Join,
    JoinKind,
    Preserved,
    preserved_for,
)
from repro.expr.predicates import (
    Predicate,
    TRUE,
    conjuncts_of,
    make_conjunction,
)
from repro.expr.rewrite import respine, with_children
from repro.core.split import (
    SplitError,
    dedupe_groups,
    group_attrs,
    initial_groups,
    leaf_attrs,
    step_groups,
)
from repro.runtime.tracing import add_counter


def _mirror(kind: JoinKind) -> JoinKind:
    return {
        JoinKind.INNER: JoinKind.INNER,
        JoinKind.FULL: JoinKind.FULL,
        JoinKind.LEFT: JoinKind.RIGHT,
        JoinKind.RIGHT: JoinKind.LEFT,
    }[kind]


def commute(node: Expr) -> Iterator[Expr]:
    """a ⊙ b = b ⊙' a (⊙' mirrors outer joins)."""
    if isinstance(node, Join):
        yield Join(_mirror(node.kind), node.right, node.left, node.predicate)


def _attrs(expr: Expr) -> frozenset[str]:
    return frozenset(expr.all_attrs)


def _split_atoms(
    atoms: Iterable[Predicate], inner_left: Expr, inner_right: Expr
) -> tuple[list[Predicate], list[Predicate]]:
    """Partition atoms into (placeable on inner join, must stay on top)."""
    inner_scope = _attrs(inner_left) | _attrs(inner_right)
    inside, outside = [], []
    for atom in atoms:
        refs = atom.attrs
        if refs <= inner_scope and refs & _attrs(inner_left) and refs & _attrs(inner_right):
            inside.append(atom)
        else:
            outside.append(atom)
    return inside, outside


def assoc_inner(node: Expr) -> Iterator[Expr]:
    """(a ⋈p b) ⋈q c = a ⋈p' (b ⋈q' c), atoms redistributed by scope."""
    if not (isinstance(node, Join) and node.kind is JoinKind.INNER):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.INNER:
        a, b, c = left.left, left.right, right
        atoms = conjuncts_of(left.predicate) + conjuncts_of(node.predicate)
        inside, outside = _split_atoms(atoms, b, c)
        if inside:
            new = Join(
                JoinKind.INNER,
                a,
                Join(JoinKind.INNER, b, c, make_conjunction(inside)),
                make_conjunction(outside),
            )
            yield new


def pull_join_into_loj(node: Expr) -> Iterator[Expr]:
    """(a ⋈p b) →q c = a ⋈p (b →q c)   when sch(q) ⊆ attrs(b, c)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    left = node.left
    if isinstance(left, Join) and left.kind is JoinKind.INNER:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c):
            yield Join(
                JoinKind.INNER,
                a,
                Join(JoinKind.LEFT, b, c, node.predicate),
                left.predicate,
            )


def push_loj_out_of_join(node: Expr) -> Iterator[Expr]:
    """a ⋈p (b →q c) = (a ⋈p b) →q c   when sch(p) ⊆ attrs(a, b)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.INNER):
        return
    right = node.right
    if isinstance(right, Join) and right.kind is JoinKind.LEFT:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b):
            yield Join(
                JoinKind.LEFT,
                Join(JoinKind.INNER, a, b, node.predicate),
                c,
                right.predicate,
            )


def loj_assoc(node: Expr) -> Iterator[Expr]:
    """(a →p b) →q c = a →p (b →q c)   when sch(q) ⊆ attrs(b, c).

    Both directions; valid because predicates are null-intolerant.
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.LEFT:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.LEFT,
                a,
                Join(JoinKind.LEFT, b, c, node.predicate),
                left.predicate,
            )
    if isinstance(right, Join) and right.kind is JoinKind.LEFT:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b):
            yield Join(
                JoinKind.LEFT,
                Join(JoinKind.LEFT, a, b, node.predicate),
                c,
                right.predicate,
            )


def foj_assoc(node: Expr) -> Iterator[Expr]:
    """(a ↔p b) ↔q c = a ↔p (b ↔q c)  (GALI92, null-intolerant predicates)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.FULL):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.FULL:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.FULL,
                a,
                Join(JoinKind.FULL, b, c, node.predicate),
                left.predicate,
            )
    if isinstance(right, Join) and right.kind is JoinKind.FULL:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.FULL,
                Join(JoinKind.FULL, a, b, node.predicate),
                c,
                right.predicate,
            )


def generalized_join(node: Expr) -> Iterator[Expr]:
    """a →q (b ⋈p c) = σ*_p[a]((a →q b) →TRUE c)  -- MGOJ via GS.

    Fires when ``q`` references only ``a``/``b`` attributes and ``p``
    only ``b``/``c`` attributes; this is the rewrite that lets the
    null-supplying side of an outer join be joined piecemeal (the
    paper's plan for Q4's tree ``(r1.((r2.r4).(r5.r3)))``).
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    a, right = node.left, node.right
    if not (isinstance(right, Join) and right.kind is JoinKind.INNER):
        return
    if right.predicate is TRUE:
        return
    for b, c in ((right.left, right.right), (right.right, right.left)):
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            if right.predicate.attrs <= _attrs(b) | _attrs(c):
                pairing = Join(
                    JoinKind.LEFT,
                    Join(JoinKind.LEFT, a, b, node.predicate),
                    c,
                    TRUE,
                )
                yield GenSelect(
                    pairing,
                    right.predicate,
                    (preserved_for(pairing, a.base_names),),
                )


def generalized_join_full(node: Expr) -> Iterator[Expr]:
    """a ↔q (b ⋈p c) = σ*_p[a]((a ↔q b) →TRUE c)  -- the FOJ variant.

    Verified on randomized data (0/400 mismatches, NULLs and empty
    relations included); the pairing's TRUE-predicate left join keeps
    the left rows alive on an empty ``c``.
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.FULL):
        return
    a, right = node.left, node.right
    if not (isinstance(right, Join) and right.kind is JoinKind.INNER):
        return
    if right.predicate is TRUE:
        return
    for b, c in ((right.left, right.right), (right.right, right.left)):
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            if right.predicate.attrs <= _attrs(b) | _attrs(c):
                pairing = Join(
                    JoinKind.LEFT,
                    Join(JoinKind.FULL, a, b, node.predicate),
                    c,
                    TRUE,
                )
                yield GenSelect(
                    pairing,
                    right.predicate,
                    (preserved_for(pairing, a.base_names),),
                )


def hoist_genselect(node: Expr) -> Iterator[Expr]:
    """Raise a GenSelect operand above a join (one walking step).

    Uses the validated preserved-set walking rules; lets plans built by
    the generalized-join rules keep reordering above the compensation.
    """
    if not isinstance(node, Join):
        return
    if not (
        isinstance(node.left, GenSelect) or isinstance(node.right, GenSelect)
    ):
        return
    from repro.core.aggregation import PullUpError, raise_genselect

    try:
        yield raise_genselect(node)
    except PullUpError:
        return


def absorb_generalized_join(node: Expr) -> Iterator[Expr]:
    """The inverse of :func:`generalized_join` (restores the plain form)."""
    if not isinstance(node, GenSelect):
        return
    child = node.child
    if not (
        isinstance(child, Join)
        and child.kind is JoinKind.LEFT
        and child.predicate is TRUE
    ):
        return
    left = child.left
    if not (isinstance(left, Join) and left.kind is JoinKind.LEFT):
        return
    if len(node.preserved) != 1:
        return
    a, b, c = left.left, left.right, child.right
    pres = node.preserved[0]
    if pres.real != frozenset(a.real_attrs) or pres.virtual != frozenset(a.virtual_attrs):
        return
    if node.predicate.attrs <= _attrs(b) | _attrs(c):
        yield Join(
            JoinKind.LEFT,
            a,
            Join(JoinKind.INNER, b, c, node.predicate),
            left.predicate,
        )


LOCAL_RULES = (
    commute,
    assoc_inner,
    pull_join_into_loj,
    push_loj_out_of_join,
    loj_assoc,
    foj_assoc,
    generalized_join,
    generalized_join_full,
    hoist_genselect,
    absorb_generalized_join,
)


GS_FREE_RULES = tuple(
    rule
    for rule in LOCAL_RULES
    if rule
    not in (
        generalized_join,
        generalized_join_full,
        hoist_genselect,
        absorb_generalized_join,
    )
)


#: One memoized conjunct deferral of a subtree ``s``: the conjunct, the
#: Theorem 1 preserved groups walked up to ``s`` (undeduplicated, as
#: :func:`repro.core.split.step_groups` keeps them), and ``s`` rebuilt
#: without the conjunct.
_Deferral = tuple[Predicate, list[frozenset[str]], Expr]


class _Closure:
    """The per-enumeration memos behind :func:`enumerate_plans`.

    Both are keyed by subtree.  ``rewrites[s]`` holds every one-step
    rule rewrite of ``s`` in path pre-order: the rules applied at ``s``
    itself, then each child's rewrites re-spined under ``s``.
    ``deferrals[s]`` holds, in the same pre-order, every conjunct a
    multi-conjunct join inside ``s`` can give up, each with its
    preserved groups walked up to ``s``.  A closure plan differs from
    its neighbours in one spine, so every other subtree hits the memos
    and a plan's expansion costs one node per variant instead of a
    rule pass over every node.  Only subtrees below a plan's join core
    are stored: the root, its unary wrapper chain and the core are
    expanded once, with their plan.  The memos die with the
    enumeration.
    """

    def __init__(self, seed: Expr, rules: tuple) -> None:
        self.rules = rules
        self.rewrites: dict[Expr, list[Expr]] = {}
        self.deferrals: dict[Expr, list[_Deferral]] = {}
        self.rule_applications = 0
        # every plan has the seed's leaves: the rules only regroup them
        self._attrs_of = partial(group_attrs, leaf_attrs(seed))

    def variants(self, expr: Expr, with_deferral: bool) -> list[Expr]:
        """Every one-step neighbour of the plan ``expr``, in rule order."""
        out = self._rewrites_of(expr, store=False)
        if with_deferral:
            out.extend(self._deferred(expr))
        return out

    def _rewrites_of(self, node: Expr, store: bool = True) -> list[Expr]:
        found = self.rewrites.get(node)
        if found is not None:
            return found if store else list(found)
        out: list[Expr] = []
        for rule in self.rules:
            out.extend(rule(node))
        self.rule_applications += len(self.rules)
        children = node.children()
        if len(children) == 1:
            # a unary chain at the root leads to the plan's join core,
            # which, like the root, is expanded with its plan only
            child_rewrites = self._rewrites_of(children[0], store)
            out.extend(respine(node, (v,)) for v in child_rewrites)
        elif children:
            left, right = children
            out.extend(respine(node, (v, right)) for v in self._rewrites_of(left))
            out.extend(respine(node, (left, v)) for v in self._rewrites_of(right))
        if store:
            self.rewrites[node] = out
        return out

    def _deferrals_of(self, node: Expr, store: bool = True) -> list[_Deferral]:
        if not isinstance(node, Join):
            return []  # a non-join ancestor blocks every deferral below it
        found = self.deferrals.get(node)
        if found is not None:
            return found
        out: list[_Deferral] = []
        atoms = conjuncts_of(node.predicate)
        if len(atoms) >= 2:
            add_counter("defer_conjunct_calls")
            own_groups = initial_groups(node)
            for atom in atoms:
                remaining = make_conjunction([a for a in atoms if a != atom])
                relaxed = Join(node.kind, node.left, node.right, remaining)
                out.append((atom, own_groups, relaxed))
        left, right = node.left, node.right
        for x_index, side in ((0, left), (1, right)):
            for atom, groups, new_side in self._deferrals_of(side):
                try:
                    walked = step_groups(groups, node, x_index, self._attrs_of)
                except SplitError:
                    continue
                pair = (new_side, right) if x_index == 0 else (left, new_side)
                out.append((atom, walked, respine(node, pair)))
        if store:
            self.deferrals[node] = out
        return out

    def _deferred(self, expr: Expr) -> list[Expr]:
        """Defer one conjunct of any join whose predicate has several atoms.

        The deferral rewrites the join core into a standalone-equivalent
        GenSelect-over-core, so it applies transparently below any unary
        wrapper chain (GenSelect stack, GroupBy, padding adjustment) by
        congruence.
        """
        wrappers: list[Expr] = []
        core = expr
        while not isinstance(core, Join) and len(core.children()) == 1:
            wrappers.append(core)
            core = core.children()[0]
        if not isinstance(core, Join):
            return []
        out: list[Expr] = []
        preserved: dict[frozenset[str], Preserved] = {}
        for atom, groups, new_core in self._deferrals_of(core, store=False):
            resolved = []
            for group in dedupe_groups(groups):
                pres = preserved.get(group)
                if pres is None:
                    # a deferral changes one join predicate, never an
                    # output attribute or its owners: resolve on the core
                    pres = preserved[group] = preserved_for(
                        core, group, label="".join(sorted(group))
                    )
                resolved.append(pres)
            plan: Expr = GenSelect(new_core, atom, tuple(resolved))
            for wrapper in reversed(wrappers):
                plan = with_children(wrapper, (plan,))
            out.append(plan)
        return out


def enumerate_plans(
    seed: Expr,
    max_plans: int = 20000,
    with_deferral: bool = True,
    with_gs: bool = True,
    budget: "Budget | None" = None,
) -> list[Expr]:
    """The closure of ``seed`` under the rewrite rules (DFS, deduped).

    Every returned expression is equivalent to ``seed``.  The closure
    is capped at ``max_plans`` expansions as a safety net; the cap is
    never hit for the paper-sized queries.  ``with_gs=False`` restricts
    to the classical rules (no conjunct deferral, no generalized
    join) -- the pre-paper baseline where complex predicates freeze
    the order.

    ``budget`` adds *hard* limits on top of the soft cap: each
    expansion is a cooperative checkpoint (deadline check), and every
    distinct plan admitted to the closure charges the plan counter, so
    an exploding closure raises :class:`repro.errors.PlanBudgetExceeded`
    / :class:`repro.errors.DeadlineExceeded` instead of truncating
    silently -- the resilient runtime catches these and degrades.
    """
    if not with_gs:
        with_deferral = False
    closure = _Closure(seed, LOCAL_RULES if with_gs else GS_FREE_RULES)
    if budget is not None:
        budget.charge_plans(1, "enumerate_plans")
    seen: dict[Expr, None] = {seed: None}
    frontier = [seed]
    expansions = 0
    while frontier:
        expr = frontier.pop()
        expansions += 1
        if budget is not None:
            budget.check_deadline("enumerate_plans")
        for variant in closure.variants(expr, with_deferral):
            if variant not in seen:
                if len(seen) >= max_plans:
                    return _accounted(seen, expansions, closure)
                if budget is not None:
                    budget.charge_plans(1, "enumerate_plans")
                seen[variant] = None
                frontier.append(variant)
    return _accounted(seen, expansions, closure)


def _accounted(
    seen: dict[Expr, None], expansions: int, closure: _Closure
) -> list[Expr]:
    """Stamp the enumeration counters on the enclosing trace span."""
    add_counter("plans_admitted", len(seen))
    add_counter("frontier_expansions", expansions)
    add_counter("rule_applications", closure.rule_applications)
    return list(seen)
