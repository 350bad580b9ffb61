"""The static configuration-cost engine (paper, Section 4).

An abstract interpretation over accfg IR that predicts, per function, what
the co-simulator will charge — configuration instructions and bytes, launch
counts, host compute — *without running anything*.  Loop trip counts are
carried symbolically: constant-bound ``scf.for`` loops contribute exact
counts, loops bounded by a function argument contribute a polynomial in
that argument (``arg0``, ``arg1``, ...), and everything else widens to an
interval.  ``scf.if`` joins both arms into a min/max interval.

The cost domain is three-layered:

* :class:`SymExpr` — a polynomial with nonnegative integer coefficients
  over nonnegative parameters.  Parameters model loop trip counts, which
  are never negative (``argN`` binds to ``max(0, args[N])``), so addition
  and multiplication are monotone and termwise min/max of coefficients
  gives sound interval bounds.
* :class:`CostRange` — a ``[lo, hi]`` interval of :class:`SymExpr`, with
  ``hi = None`` meaning unbounded (a loop whose bound the analysis cannot
  see).  Exact programs keep ``lo == hi`` through every operation.
* :class:`CostVector` — per ``(accelerator, category)`` instruction-count
  ranges plus configuration bytes, launch counts, and static datapath ops.

Most of a program needs none of this: straight-line runs, constant-trip
loops and the join of two such branch arms are counted as plain ints
(``_Tally``), and ranges are built only around symbolic trip counts, calls
and unmodeled ops, with the same results.

Every setup/launch/await/reset contributes a :class:`CostSite` carrying
provenance: the op, its instruction stream, its enclosing loops and trip
counts, and whether it executes conditionally.  Sites power the opportunity
lints (ACCFG010, ACCFG012–015) and the ``python -m repro cost`` table.

The per-op charges mirror :mod:`repro.interp.interpreter` /
:mod:`repro.sim.cosim` exactly; the static-cost oracle
(:func:`compare_with_simulation`) holds the two sides together — on every
fuzzed program the prediction must bound (and, with concrete trip counts,
equal) what the simulator measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, TypeVar

from ..dialects import accfg, arith, func, scf
from ..ir.operation import Operation, UnregisteredOp
from ..ir.ssa import BlockArgument, SSAValue
from ..isa.instructions import CTRL_PAIR_STREAM, CTRL_STREAM, Instr, InstrCategory

K = TypeVar("K")

if TYPE_CHECKING:  # pragma: no cover
    from ..backends.base import AcceleratorSpec
    from ..ir.block import Block
    from ..sim.cosim import CoSimulator

# A monomial: parameter names, sorted, with repetition for powers.
Monomial = tuple[str, ...]

#: Instruction-count key: ``(Instr.accelerator, Instr.category)`` — exactly
#: how charged instruction records are attributed (Gemmini's ``stage-rs``
#: staging writes carry ``accelerator=None``, so a per-accelerator-only
#: grouping would lose them).
InstrKey = tuple["str | None", InstrCategory]


# ---------------------------------------------------------------------------
# Symbolic domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymExpr:
    """A polynomial over nonnegative integer parameters.

    ``terms`` maps each monomial to a positive integer coefficient; the
    empty monomial ``()`` is the constant term.  The zero polynomial has no
    terms.  Coefficients and parameters are nonnegative, so the polynomial
    is monotone in every parameter — the soundness basis for the interval
    arithmetic in :class:`CostRange`.
    """

    terms: tuple[tuple[Monomial, int], ...] = ()

    @staticmethod
    def _make(terms: Mapping[Monomial, int]) -> "SymExpr":
        return SymExpr(
            tuple(sorted((m, c) for m, c in terms.items() if c != 0))
        )

    @staticmethod
    def const(value: int) -> "SymExpr":
        if value < 0:
            raise ValueError(f"cost expressions are nonnegative, got {value}")
        return SymExpr((((), value),)) if value else SymExpr()

    @staticmethod
    def param(name: str) -> "SymExpr":
        return SymExpr._make({(name,): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> int | None:
        """The polynomial's value when it has no parameters, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def parameters(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self.terms for name in mono)

    def __add__(self, other: "SymExpr") -> "SymExpr":
        if not self.terms:
            return other
        if not other.terms:
            return self
        mine, theirs = self.terms, other.terms
        if len(mine) == 1 and len(theirs) == 1 and mine[0][0] == theirs[0][0]:
            # The overwhelmingly common case: const + const (or two like
            # monomials) — skip the dict round-trip.
            return SymExpr(((mine[0][0], mine[0][1] + theirs[0][1]),))
        merged = dict(mine)
        for mono, coeff in theirs:
            merged[mono] = merged.get(mono, 0) + coeff
        return SymExpr._make(merged)

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        mine, theirs = self.terms, other.terms
        if len(mine) == 1 and len(theirs) == 1 and (
            not mine[0][0] or not theirs[0][0]
        ):
            # Trip-count scaling is overwhelmingly const × const or
            # const × monomial; coefficients are positive by invariant,
            # so the single product term needs no re-sorting or filtering.
            return SymExpr(
                ((mine[0][0] or theirs[0][0], mine[0][1] * theirs[0][1]),)
            )
        product: dict[Monomial, int] = {}
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                mono = tuple(sorted(mono_a + mono_b))
                product[mono] = product.get(mono, 0) + coeff_a * coeff_b
        return SymExpr._make(product)

    def scaled(self, factor: int) -> "SymExpr":
        return SymExpr._make({mono: coeff * factor for mono, coeff in self.terms})

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        """The polynomial's value under concrete parameter bindings."""
        total = 0
        for mono, coeff in self.terms:
            value = coeff
            for name in mono:
                value *= bindings[name]
            total += value
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms:
            if not mono:
                parts.append(str(coeff))
            else:
                factors = "*".join(mono)
                parts.append(factors if coeff == 1 else f"{coeff}*{factors}")
        return " + ".join(parts)


def _termwise(
    a: SymExpr, b: SymExpr, pick: Callable[[int, int], int]
) -> SymExpr:
    """Coefficient-wise combination of two polynomials (min or max).

    With nonnegative coefficients and parameters, the termwise minimum is a
    sound lower bound for ``min(a, b)`` and the termwise maximum a sound
    upper bound for ``max(a, b)`` at every parameter valuation.
    """
    if (
        len(a.terms) == 1
        and len(b.terms) == 1
        and a.terms[0][0] == b.terms[0][0]
    ):
        # Like single terms, the common case of two exact counts: both
        # coefficients are positive, so the picked one needs no filtering.
        return SymExpr(((a.terms[0][0], pick(a.terms[0][1], b.terms[0][1])),))
    terms_a = dict(a.terms)
    terms_b = dict(b.terms)
    return SymExpr._make(
        {
            mono: pick(terms_a.get(mono, 0), terms_b.get(mono, 0))
            for mono in set(terms_a) | set(terms_b)
        }
    )


_ZERO_EXPR = SymExpr.const(0)


@dataclass(frozen=True)
class CostRange:
    """An interval ``[lo, hi]`` of symbolic costs; ``hi = None`` = unbounded."""

    lo: SymExpr = _ZERO_EXPR
    hi: SymExpr | None = _ZERO_EXPR

    @staticmethod
    def exact(value: "SymExpr | int") -> "CostRange":
        expr = SymExpr.const(value) if isinstance(value, int) else value
        return CostRange(expr, expr)

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.hi == self.lo

    @property
    def is_zero(self) -> bool:
        return self.lo.is_zero and self.hi is not None and self.hi.is_zero

    def __add__(self, other: "CostRange") -> "CostRange":
        hi = (
            None
            if self.hi is None or other.hi is None
            else self.hi + other.hi
        )
        return CostRange(self.lo + other.lo, hi)

    def times(self, other: "CostRange") -> "CostRange":
        """Interval product (e.g. trip count × per-iteration cost)."""
        lo = self.lo * other.lo
        if self.hi is not None and other.hi is not None:
            return CostRange(lo, self.hi * other.hi)
        # One side is unbounded: the product is too, unless the other side
        # is exactly zero (an unbounded loop around a free body costs 0).
        if (self.hi is not None and self.hi.is_zero) or (
            other.hi is not None and other.hi.is_zero
        ):
            return CostRange(lo, _ZERO_EXPR)
        return CostRange(lo, None)

    def join(self, other: "CostRange") -> "CostRange":
        """Interval hull: the range covering either alternative."""
        hi = (
            None
            if self.hi is None or other.hi is None
            else _termwise(self.hi, other.hi, max)
        )
        return CostRange(_termwise(self.lo, other.lo, min), hi)

    def substitute(self, mapping: Mapping[str, "CostRange"]) -> "CostRange":
        """Replace parameters by cost ranges (call-site inlining)."""
        lo = _substitute_bound(self.lo, mapping, upper=False)
        assert lo is not None
        hi = (
            None
            if self.hi is None
            else _substitute_bound(self.hi, mapping, upper=True)
        )
        return CostRange(lo, hi)

    def evaluate(self, bindings: Mapping[str, int]) -> tuple[int, int | None]:
        return (
            self.lo.evaluate(bindings),
            None if self.hi is None else self.hi.evaluate(bindings),
        )

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


def _substitute_bound(
    expr: SymExpr, mapping: Mapping[str, CostRange], upper: bool
) -> SymExpr | None:
    """One bound of ``expr`` after substituting parameter ranges.

    Monotonicity makes this simple: the lower bound substitutes every
    mapped parameter's ``lo``, the upper bound its ``hi`` (returning None —
    unbounded — as soon as an unbounded parameter appears with a nonzero
    coefficient).
    """
    total = _ZERO_EXPR
    for mono, coeff in expr.terms:
        term = SymExpr.const(coeff)
        for name in mono:
            replacement = mapping.get(name)
            if replacement is None:
                factor: SymExpr | None = SymExpr.param(name)
            elif upper:
                factor = replacement.hi
            else:
                factor = replacement.lo
            if factor is None:
                return None
            term = term * factor
        total = total + term
    return total


_ZERO_RANGE = CostRange()


# ---------------------------------------------------------------------------
# Cost vectors
# ---------------------------------------------------------------------------


def _merge(
    a: Mapping[K, CostRange],
    b: Mapping[K, CostRange],
    combine: Callable[[CostRange, CostRange], CostRange],
) -> dict[K, CostRange]:
    merged: dict[K, CostRange] = {}
    for key in set(a) | set(b):
        merged[key] = combine(
            a.get(key, _ZERO_RANGE), b.get(key, _ZERO_RANGE)
        )
    return {key: value for key, value in merged.items() if not value.is_zero}


def _iadd_map(
    target: dict[K, CostRange], source: Mapping[K, CostRange]
) -> None:
    """Pointwise-add ``source`` into ``target`` (see ``CostVector.iadd``)."""
    for key, value in source.items():
        current = target.get(key)
        target[key] = value if current is None else current + value


@dataclass
class CostVector:
    """Everything one program region is predicted to charge.

    ``instrs`` counts host instruction records per :data:`InstrKey`;
    ``config_bytes`` sums the configuration payload per accelerator;
    ``launches`` counts device launches; ``ops`` sums statically-known
    datapath operations per accelerator (``indeterminate_ops`` lists
    accelerators where some launch's op count is not statically known).
    ``unmodeled`` names ops the engine cannot cost — any entry voids the
    prediction (the oracle skips such programs).
    """

    instrs: dict[InstrKey, CostRange] = field(default_factory=dict)
    config_bytes: dict["str | None", CostRange] = field(default_factory=dict)
    launches: dict[str, CostRange] = field(default_factory=dict)
    ops: dict[str, CostRange] = field(default_factory=dict)
    indeterminate_ops: set[str] = field(default_factory=set)
    unmodeled: set[str] = field(default_factory=set)

    @staticmethod
    def zero() -> "CostVector":
        return CostVector()

    @staticmethod
    def for_instrs(instrs: Iterable[Instr]) -> "CostVector":
        """The cost of executing one instruction stream once."""
        tally = _Tally()
        tally.add(_price(instrs))
        return tally.vector()

    @staticmethod
    def unmodeled_op(name: str) -> "CostVector":
        vector = CostVector()
        vector.unmodeled.add(name)
        return vector

    def iadd(self, other: "CostVector") -> None:
        """In-place pointwise sum into a privately-owned accumulator.

        ``walk_block`` folds one vector per ranged op into its block's
        total; rebuilding the merged maps per op (as ``__add__`` must)
        makes that fold quadratic in block length.  The accumulator is
        freshly created by its caller and never shared, so mutating it is
        safe; ``other`` is only read.
        """
        _iadd_map(self.instrs, other.instrs)
        _iadd_map(self.config_bytes, other.config_bytes)
        _iadd_map(self.launches, other.launches)
        _iadd_map(self.ops, other.ops)
        self.indeterminate_ops |= other.indeterminate_ops
        self.unmodeled |= other.unmodeled

    def __add__(self, other: "CostVector") -> "CostVector":
        # Pointwise sum; unlike the interval-hull join, a missing key is a
        # true zero under addition, so the plain dict merge is sound (and
        # much cheaper than _merge on this, the accumulation hot path).
        def add_maps(
            a: Mapping[K, CostRange], b: Mapping[K, CostRange]
        ) -> dict[K, CostRange]:
            if not b:
                return dict(a)
            if not a:
                return dict(b)
            merged = dict(a)
            for key, value in b.items():
                current = merged.get(key)
                merged[key] = value if current is None else current + value
            return merged

        return CostVector(
            instrs=add_maps(self.instrs, other.instrs),
            config_bytes=add_maps(self.config_bytes, other.config_bytes),
            launches=add_maps(self.launches, other.launches),
            ops=add_maps(self.ops, other.ops),
            indeterminate_ops=self.indeterminate_ops | other.indeterminate_ops,
            unmodeled=self.unmodeled | other.unmodeled,
        )

    def scale(self, trips: CostRange) -> "CostVector":
        """The cost of executing this vector ``trips`` times."""

        def times(mapping: Mapping[K, CostRange]) -> dict[K, CostRange]:
            scaled = {k: trips.times(v) for k, v in mapping.items()}
            # A zero trip count must leave no entries behind (the loop
            # body never runs), matching what the accumulation fast path
            # relies on: recorded entries are nonzero.
            return {k: v for k, v in scaled.items() if not v.is_zero}

        return CostVector(
            instrs=times(self.instrs),
            config_bytes=times(self.config_bytes),
            launches=times(self.launches),
            ops=times(self.ops),
            indeterminate_ops=set(self.indeterminate_ops),
            unmodeled=set(self.unmodeled),
        )

    def join(self, other: "CostVector") -> "CostVector":
        hull = lambda a, b: a.join(b)  # noqa: E731
        return CostVector(
            instrs=_merge(self.instrs, other.instrs, hull),
            config_bytes=_merge(self.config_bytes, other.config_bytes, hull),
            launches=_merge(self.launches, other.launches, hull),
            ops=_merge(self.ops, other.ops, hull),
            indeterminate_ops=self.indeterminate_ops | other.indeterminate_ops,
            unmodeled=self.unmodeled | other.unmodeled,
        )

    def substitute(self, mapping: Mapping[str, CostRange]) -> "CostVector":
        subst = lambda value: value.substitute(mapping)  # noqa: E731
        return CostVector(
            instrs={k: subst(v) for k, v in self.instrs.items()},
            config_bytes={k: subst(v) for k, v in self.config_bytes.items()},
            launches={k: subst(v) for k, v in self.launches.items()},
            ops={k: subst(v) for k, v in self.ops.items()},
            indeterminate_ops=set(self.indeterminate_ops),
            unmodeled=set(self.unmodeled),
        )

    def category_total(self, *categories: InstrCategory) -> CostRange:
        total = _ZERO_RANGE
        for (_, category), count in self.instrs.items():
            if category in categories:
                total = total + count
        return total

    def config_bytes_total(self) -> CostRange:
        total = _ZERO_RANGE
        for count in self.config_bytes.values():
            total = total + count
        return total

    @property
    def is_exact(self) -> bool:
        values: list[CostRange] = [
            *self.instrs.values(),
            *self.config_bytes.values(),
            *self.launches.values(),
        ]
        return all(value.is_exact for value in values) and not self.unmodeled


#: An instruction stream tallied once per walk: its ``(key, count)`` pairs
#: and its ``(config-byte bucket, bytes)`` pairs, both in first-charge
#: order, and its total configuration bytes.
_Priced = tuple[
    tuple[tuple[InstrKey, int], ...], tuple[tuple["str | None", int], ...], int
]


def _price(instrs: Iterable[Instr]) -> _Priced:
    """Tally one instruction stream by key and by config-byte bucket."""
    counts: dict[InstrKey, int] = {}
    buckets: dict["str | None", int] = {}
    total_bytes = 0
    for instr in instrs:
        key = (instr.accelerator, instr.category)
        counts[key] = counts.get(key, 0) + 1
        if instr.config_bytes:
            total_bytes += instr.config_bytes
            bucket = instr.accelerator
            buckets[bucket] = buckets.get(bucket, 0) + instr.config_bytes
    return tuple(counts.items()), tuple(buckets.items()), total_bytes


class _Tally:
    """Exact integer ``[lo, hi]`` tallies of one region's charges.

    The walk adds straight-line ops, constant-trip loops and the join of
    two tallied ``scf.if`` arms here as plain ints.  It builds
    :class:`CostRange` values (:meth:`flush_into`) only when a region
    meets what a tally cannot hold (a symbolic trip count, a call, an
    unmodeled op) and when a summary's ``total`` is first read.  Each
    table maps a key to its lower bound; ``gaps`` holds ``hi - lo`` for
    the entries a join left inexact.  Tables keep first-charge order, and
    an entry that scales or joins to zero is dropped exactly where
    :meth:`CostVector.scale` and :meth:`CostVector.join` drop it, so keys
    reach the total in the order the :class:`CostVector` fold gives.
    """

    __slots__ = (
        "instrs", "config_bytes", "launches", "ops", "gaps", "indeterminate"
    )

    def __init__(self) -> None:
        self.instrs: dict[InstrKey, int] = {}
        self.config_bytes: dict["str | None", int] = {}
        self.launches: dict[str, int] = {}
        self.ops: dict[str, int] = {}
        #: per table, ``hi - lo`` of its inexact entries (None: all exact)
        self.gaps: tuple[dict[Any, int], ...] | None = None
        self.indeterminate: set[str] = set()

    def tables(self) -> tuple[dict[Any, int], ...]:
        return (self.instrs, self.config_bytes, self.launches, self.ops)

    def add(self, priced: _Priced) -> int:
        """Tally one priced stream; returns its configuration bytes."""
        instrs = self.instrs
        for key, count in priced[0]:
            instrs[key] = instrs.get(key, 0) + count
        if priced[1]:
            config_bytes = self.config_bytes
            for bucket, count in priced[1]:
                config_bytes[bucket] = config_bytes.get(bucket, 0) + count
        return priced[2]

    def add_launch(self, accelerator: str, static_ops: int | None) -> None:
        self.launches[accelerator] = self.launches.get(accelerator, 0) + 1
        if static_ops is None:
            self.indeterminate.add(accelerator)
        else:
            self.ops[accelerator] = self.ops.get(accelerator, 0) + static_ops

    def _widen(self, index: int, key: Any, gap: int) -> None:
        gaps = self.gaps
        if gaps is None:
            gaps = self.gaps = ({}, {}, {}, {})
        table = gaps[index]
        table[key] = table.get(key, 0) + gap

    def add_scaled(self, body: "_Tally", trips: int) -> None:
        """Add ``body`` executed ``trips`` times (a constant-trip loop)."""
        self.indeterminate |= body.indeterminate
        if not trips:
            return  # every entry scales to zero
        body_gaps = body.gaps
        for index, (target, source) in enumerate(
            zip(self.tables(), body.tables())
        ):
            gaps = body_gaps[index] if body_gaps is not None else None
            for key, lo in source.items():
                gap = gaps.get(key, 0) if gaps else 0
                if lo or gap:
                    target[key] = target.get(key, 0) + lo * trips
                    if gap:
                        self._widen(index, key, gap * trips)

    def add_join(self, first: "_Tally", second: "_Tally") -> None:
        """Add the hull of two branch arms: per key ``[min lo, max hi]``."""
        self.indeterminate |= first.indeterminate | second.indeterminate
        first_gaps, second_gaps = first.gaps, second.gaps
        for index, (target, a, b) in enumerate(
            zip(self.tables(), first.tables(), second.tables())
        ):
            if not a and not b:
                continue
            a_gaps = first_gaps[index] if first_gaps is not None else None
            b_gaps = second_gaps[index] if second_gaps is not None else None
            # The key order CostVector.join visits.
            for key in set(a) | set(b):
                a_lo = a.get(key, 0)
                b_lo = b.get(key, 0)
                a_hi = a_lo + a_gaps.get(key, 0) if a_gaps else a_lo
                b_hi = b_lo + b_gaps.get(key, 0) if b_gaps else b_lo
                hi = max(a_hi, b_hi)
                if not hi:
                    continue  # the hull of two zeros
                lo = min(a_lo, b_lo)
                target[key] = target.get(key, 0) + lo
                if hi > lo:
                    self._widen(index, key, hi - lo)

    def flush_into(self, total: CostVector) -> None:
        """Add the tallies to ``total`` as ranges, then reset them."""
        gaps = self.gaps
        targets: tuple[dict[Any, CostRange], ...] = (
            total.instrs, total.config_bytes, total.launches, total.ops
        )
        for index, (source, target) in enumerate(zip(self.tables(), targets)):
            if not source:
                continue
            source_gaps = gaps[index] if gaps is not None else None
            for key, lo in source.items():
                expr = SymExpr((((), lo),)) if lo > 0 else SymExpr.const(lo)
                gap = source_gaps.get(key) if source_gaps else None
                value = (
                    CostRange(expr, SymExpr((((), lo + gap),)))
                    if gap
                    else CostRange(expr, expr)
                )
                current = target.get(key)
                target[key] = value if current is None else current + value
            source.clear()
        self.gaps = None
        if self.indeterminate:
            total.indeterminate_ops |= self.indeterminate
            self.indeterminate.clear()

    def vector(self) -> CostVector:
        vector = CostVector()
        self.flush_into(vector)
        return vector

    def bounds(self) -> list[dict[Any, tuple[int, int | None]]]:
        """The instruction, config-byte and launch tables as ``(lo, hi)``
        pairs, in table order."""
        gaps = self.gaps
        result: list[dict[Any, tuple[int, int | None]]] = []
        for index, table in enumerate(
            (self.instrs, self.config_bytes, self.launches)
        ):
            table_gaps = gaps[index] if gaps is not None else None
            result.append(
                {
                    key: (lo, lo + table_gaps.get(key, 0))
                    for key, lo in table.items()
                }
                if table_gaps
                else {key: (lo, lo) for key, lo in table.items()}
            )
        return result


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostSite:
    """One accfg op's contribution to the cost, with provenance.

    ``instrs``/``config_bytes``/``ops`` are per *single execution* of the
    op; ``trip_count`` is the (symbolic) number of executions implied by the
    enclosing loops, and ``conditional`` records whether an ``scf.if``
    guards the op (making the trip count an upper bound).
    """

    op: Operation
    kind: str  # "setup" | "launch" | "await" | "reset"
    accelerator: str
    instrs: tuple[Instr, ...]
    config_bytes: int
    trip_count: CostRange
    loops: tuple[scf.ForOp, ...]  # outermost → innermost
    conditional: bool
    ops: int | None = None  # launch datapath ops when statically known

    @property
    def loop_depth(self) -> int:
        return len(self.loops)

    @property
    def innermost_loop(self) -> "scf.ForOp | None":
        return self.loops[-1] if self.loops else None


#: The loops around a site, outermost first, and the product of their trip
#: counts: a plain int while every one of them is constant.
_Level = tuple[tuple[scf.ForOp, ...], "int | CostRange"]
#: A site as the walk records it: op, kind, accelerator, instruction
#: stream, config bytes, loop level, conditional, launch datapath ops.
_SiteRecord = tuple[
    Operation, str, str, tuple[Instr, ...], int, _Level, bool, "int | None"
]


@dataclass
class FunctionCostSummary:
    """The cost analysis result for one function.

    The walk leaves a function whose cost is all exact ints (or their
    hulls) as a tally, and records each site as a plain tuple; ``total``
    and :attr:`sites` build the range and :class:`CostSite` objects on
    first read.  The static-cost oracle reads neither: it evaluates the
    counts (:meth:`evaluate`).  The lints, ``repro cost`` and the tuner
    read both.
    """

    function: func.FuncOp
    cost: "_Tally | CostVector" = field(repr=False, compare=False)
    site_records: list[_SiteRecord] = field(repr=False, compare=False)
    _sites: tuple[CostSite, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total(self) -> CostVector:
        cost = self.cost
        if isinstance(cost, _Tally):
            cost = self.cost = cost.vector()
        return cost

    def evaluate(
        self, bindings: Mapping[str, int]
    ) -> list[dict[Any, tuple[int, int | None]]]:
        """The predicted ``(lo, hi)`` of every instruction, config-byte and
        launch count under concrete parameter ``bindings``, in ``total``'s
        key order (``hi`` None = unbounded)."""
        cost = self.cost
        if isinstance(cost, _Tally):
            return cost.bounds()
        return [
            {key: count.evaluate(bindings) for key, count in table.items()}
            for table in (cost.instrs, cost.config_bytes, cost.launches)
        ]

    @property
    def sites(self) -> tuple[CostSite, ...]:
        if self._sites is None:
            self._sites = tuple(
                CostSite(
                    op=op,
                    kind=kind,
                    accelerator=accelerator,
                    instrs=instrs,
                    config_bytes=config_bytes,
                    trip_count=_as_range(trips),
                    loops=loops,
                    conditional=conditional,
                    ops=ops,
                )
                for (
                    op, kind, accelerator, instrs, config_bytes,
                    (loops, trips), conditional, ops,
                ) in self.site_records
            )
        return self._sites

    @property
    def name(self) -> str:
        return self.function.sym_name

    @property
    def is_modeled(self) -> bool:
        # Unmodeled ops end a tally, so only a vector can name one.
        return isinstance(self.cost, _Tally) or not self.cost.unmodeled

    def parameters(self) -> list[str]:
        names: set[str] = set()
        for count in self.total.instrs.values():
            names |= count.lo.parameters()
            if count.hi is not None:
                names |= count.hi.parameters()
        return sorted(names)

    def config_instrs(self) -> CostRange:
        """Configuration-stream instructions (register writes + launches)."""
        return self.total.category_total(
            InstrCategory.SETUP, InstrCategory.LAUNCH
        )

    def calc_instrs(self) -> CostRange:
        return self.total.category_total(InstrCategory.CALC)

    def config_cycles(
        self, cycles_per_category: Mapping[InstrCategory, float]
    ) -> tuple[float, float | None]:
        """Predicted config cycles (Eq. 4: setup + launch + calc) under
        concrete ``bindings``-free evaluation — exact only for parameterless
        functions; use :func:`compare_with_simulation` otherwise."""
        lo_total = 0.0
        hi_total: float | None = 0.0
        for (_, category), count in self.total.instrs.items():
            if category not in (
                InstrCategory.SETUP,
                InstrCategory.LAUNCH,
                InstrCategory.CALC,
            ):
                continue
            per = cycles_per_category[category]
            lo, hi = count.evaluate({})
            lo_total += lo * per
            if hi_total is not None:
                hi_total = None if hi is None else hi_total + hi * per
        return lo_total, hi_total


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class CostAnalysis:
    """Per-module static cost analysis.

    One instance is valid for one IR snapshot; the :class:`AnalysisManager`
    caches instances per module scope and drops them when a pass reports
    mutating the module.  Function summaries are computed on demand and
    memoized; calls inline the callee's summary with parameter
    substitution (recursion and declarations are unmodeled).
    """

    def __init__(self, module: Operation) -> None:
        self.module = module
        self._functions: dict[str, func.FuncOp] = {}
        # Functions are the module's top-level ops (func.func verifies
        # nowhere else), as the trace compiler collects them.
        for region in module.regions:
            for block in region.blocks:
                for op in block.ops:
                    if isinstance(op, func.FuncOp):
                        self._functions.setdefault(op.sym_name, op)
        self._feeding = accfg.config_feeding_ops(module)
        self._summaries: dict[str, FunctionCostSummary] = {}
        self._in_progress: set[str] = set()

    def functions(self) -> list[func.FuncOp]:
        return [fn for fn in self._functions.values() if not fn.is_declaration]

    def summary(self, fn: "func.FuncOp | str") -> FunctionCostSummary | None:
        """The cost summary for ``fn`` (None for unknown/declared names)."""
        if isinstance(fn, str):
            found = self._functions.get(fn)
            if found is None:
                return None
            fn = found
        if fn.is_declaration:
            return None
        name = fn.sym_name
        cached = self._summaries.get(name)
        if cached is not None and cached.function is fn:
            return cached
        self._in_progress.add(name)
        try:
            walker = _FunctionWalker(self, fn)
            cost = walker.walk_block(fn.body)
        finally:
            self._in_progress.discard(name)
        summary = FunctionCostSummary(fn, cost, walker.sites)
        self._summaries[name] = summary
        return summary

    def summaries(self) -> list[FunctionCostSummary]:
        result = []
        for fn in self.functions():
            summary = self.summary(fn)
            if summary is not None:
                result.append(summary)
        return result


def _as_range(trips: "int | CostRange") -> CostRange:
    return trips if isinstance(trips, CostRange) else CostRange.exact(trips)


def _as_vector(cost: "_Tally | CostVector") -> CostVector:
    return cost.vector() if isinstance(cost, _Tally) else cost


#: what one scalar op charges, by its record's category (charges are keyed
#: by accelerator and category, so the mnemonic does not matter here)
_SCALAR = {
    category: _price((Instr("alu", category),))
    for category in (InstrCategory.CALC, InstrCategory.COMPUTE)
}
_CTRL = _price(CTRL_STREAM)
_CTRL_PAIR = _price(CTRL_PAIR_STREAM)


class _Specs(dict[str, "AcceleratorSpec | None"]):
    """Accelerator specs by name (None when unknown), each looked up once."""

    def __missing__(self, name: str) -> "AcceleratorSpec | None":
        from ..backends.base import get_accelerator_or_none

        spec = self[name] = get_accelerator_or_none(name)
        return spec


class _FunctionWalker:
    """Structural walk of one function body, mirroring the interpreter's
    charging discipline op for op."""

    def __init__(self, analysis: CostAnalysis, fn: func.FuncOp) -> None:
        self.analysis = analysis
        self.fn = fn
        self.sites: list[_SiteRecord] = []
        self._feeding = analysis._feeding
        self._level: _Level = ((), 1)
        self._cond_depth = 0
        self._params: dict[SSAValue, str] = {
            arg: f"arg{i}" for i, arg in enumerate(fn.args)
        }
        # Memos for this walk only.  Streams are priced by identity; each
        # entry keeps its stream alive, so no id is reused within the walk.
        self._specs = _Specs()
        self._prices: dict[int, tuple[tuple[Instr, ...], _Priced]] = {}

    # -- helpers ---------------------------------------------------------

    def _priced(self, stream: tuple[Instr, ...]) -> _Priced:
        """``stream`` tallied by key, once per walk."""
        entry = self._prices.get(id(stream))
        if entry is None:
            entry = self._prices[id(stream)] = (stream, _price(stream))
        return entry[1]

    def _record_site(
        self,
        op: Operation,
        kind: str,
        accelerator: str,
        instrs: tuple[Instr, ...],
        tally: _Tally,
        ops: int | None = None,
    ) -> None:
        """Tally the op's instruction stream and record its site."""
        config_bytes = tally.add(self._priced(instrs))
        self.sites.append(
            (
                op, kind, accelerator, instrs, config_bytes,
                self._level, self._cond_depth > 0, ops,
            )
        )

    def trip_range(self, op: scf.ForOp) -> CostRange:
        """The symbolic iteration count of one ``scf.for``."""
        trips = scf.constant_trip_count(op)
        if trips is not None:
            return CostRange.exact(trips)
        if (
            arith.constant_value(op.lb) == 0
            and arith.constant_value(op.step) == 1
            and isinstance(op.ub, BlockArgument)
            and self._params.get(op.ub) is not None
        ):
            # `for i = 0 to %argN step 1` runs max(0, argN) times — exactly
            # the value the parameter binds to.
            return CostRange.exact(SymExpr.param(self._params[op.ub]))
        return CostRange(_ZERO_EXPR, None)

    # -- the walk --------------------------------------------------------

    def walk_block(self, block: "Block") -> "_Tally | CostVector":
        """The cost of ``block``: a tally while every op in it prices as
        ints, else a vector.

        Each op goes to the charging rule of its class.  An op that needs
        ranges (see :meth:`_nested_cost`) flushes the tally into the
        vector before its own cost is added, so keys enter the total in
        the same order as in the op-by-op fold.
        """
        tally = _Tally()
        total: CostVector | None = None
        rules = _CHARGE_RULES
        for op in block.ops:
            rule = rules[type(op)]
            if rule is not None and rule(self, op, tally):
                continue
            vector = self._nested_cost(op, tally)
            if vector is None:
                continue
            if total is None:
                total = CostVector()
            tally.flush_into(total)
            total.iadd(vector)
        if total is None:
            return tally
        tally.flush_into(total)
        return total

    # -- charging rules: one per straight-line op class ------------------
    #
    # Straight-line ops are scalar, setup, launch, await, reset and
    # host-side ops, plus the terminators, which charge nothing.  A rule
    # tallies the op's charges and records its site; it returns False,
    # tallying nothing, for an op on an unknown accelerator, which
    # :meth:`_nested_cost` prices with every other op.

    def _charge_scalar(self, op: arith.ScalarOp, tally: _Tally) -> bool:
        tally.add(_SCALAR[arith.charged_instr(op, self._feeding).category])
        return True

    def _charge_nothing(self, op: Operation, tally: _Tally) -> bool:
        return True

    def _charge_setup(self, op: accfg.SetupOp, tally: _Tally) -> bool:
        accelerator = op.accelerator
        spec = self._specs[accelerator]
        if spec is None:
            return False
        instrs = spec.setup_instrs_cached(op.field_names)
        self._record_site(op, "setup", accelerator, instrs, tally)
        return True

    def _charge_launch(self, op: accfg.LaunchOp, tally: _Tally) -> bool:
        accelerator = op.accelerator
        spec = self._specs[accelerator]
        if spec is None:
            return False
        instrs = spec.launch_instrs_cached()
        field_names = op.field_names
        if field_names:
            instrs = spec.launch_field_instrs_cached(field_names) + instrs
        from .roofline_lint import static_launch_config

        static_ops = spec.static_launch_ops(static_launch_config(op))
        self._record_site(op, "launch", accelerator, instrs, tally, static_ops)
        tally.add_launch(accelerator, static_ops)
        return True

    def _charge_await(self, op: accfg.AwaitOp, tally: _Tally) -> bool:
        accelerator = op.accelerator
        spec = self._specs[accelerator]
        if spec is None:
            return False
        instrs = spec.sync_instrs_cached()
        self._record_site(op, "await", accelerator, instrs, tally)
        return True

    def _charge_reset(self, op: accfg.ResetOp, tally: _Tally) -> bool:
        state_type = op.state.type
        accelerator = (
            state_type.accelerator
            if isinstance(state_type, accfg.StateType)
            else "?"
        )
        self._record_site(op, "reset", accelerator, CTRL_STREAM, tally)
        return True

    def _charge_host(self, op: Operation, tally: _Tally) -> bool:
        # Host-side ops charge the stream their declared effect names, the
        # same one both execution engines charge.
        effect = accfg.host_effect(op)
        if effect is None:
            return False
        tally.add(self._priced(effect.stream))
        return True

    def _nested_cost(self, op: Operation, tally: _Tally) -> CostVector | None:
        """Price an op no charging rule takes.  Adds the cost to
        ``tally`` and returns None when it is exact ints or their hull;
        returns it as a vector otherwise."""
        if isinstance(op, scf.ForOp):
            return self._loop_cost(op, tally)
        if isinstance(op, scf.IfOp):
            return self._branch_cost(op, tally)
        if isinstance(op, func.CallOp):
            return self._call_cost(op)
        if isinstance(op, (accfg.SetupOp, accfg.LaunchOp, accfg.AwaitOp)):
            verb = op.name.split(".")[-1]
            return CostVector.unmodeled_op(
                f"{verb} on unknown accelerator '{op.accelerator}'"
            )
        if isinstance(op, UnregisteredOp):
            return CostVector.unmodeled_op(f"'{op.op_name}'")
        return CostVector.unmodeled_op(f"'{op.name}'")

    def _loop_cost(self, op: scf.ForOp, tally: _Tally) -> CostVector | None:
        trips = scf.constant_trip_count(op)
        outer = self._level
        loops, outer_trips = outer
        site_trips: int | CostRange
        if trips is not None and isinstance(outer_trips, int):
            site_trips = outer_trips * trips
        else:
            site_trips = _as_range(outer_trips).times(self.trip_range(op))
        self._level = (loops + (op,), site_trips)
        try:
            body = self.walk_block(op.body)
        finally:
            self._level = outer
        # Each iteration pays the back-edge's increment + compare&branch.
        if isinstance(body, _Tally):
            body.add(_CTRL_PAIR)
            if trips is not None:
                tally.add_scaled(body, trips)
                return None
            per_iteration = body.vector()
        else:
            per_iteration = body + CostVector.for_instrs(CTRL_PAIR_STREAM)
        return per_iteration.scale(self.trip_range(op))

    def _branch_cost(self, op: scf.IfOp, tally: _Tally) -> CostVector | None:
        self._cond_depth += 1
        try:
            then_cost = self.walk_block(op.then_block)
            else_cost = (
                self.walk_block(op.else_block) if op.has_else else _Tally()
            )
        finally:
            self._cond_depth -= 1
        if isinstance(then_cost, _Tally) and isinstance(else_cost, _Tally):
            tally.add(_CTRL)
            tally.add_join(then_cost, else_cost)
            return None
        branch = _as_vector(then_cost).join(_as_vector(else_cost))
        return CostVector.for_instrs(CTRL_STREAM) + branch

    def _call_cost(self, op: func.CallOp) -> CostVector:
        overhead = CostVector.for_instrs(CTRL_PAIR_STREAM)
        callee = self.analysis._functions.get(op.callee)
        if callee is None or callee.is_declaration:
            return overhead + CostVector.unmodeled_op(
                f"call to unknown/declared '@{op.callee}'"
            )
        if op.callee in self.analysis._in_progress:
            return overhead + CostVector.unmodeled_op(
                f"recursive call to '@{op.callee}'"
            )
        summary = self.analysis.summary(callee)
        if summary is None:
            return overhead + CostVector.unmodeled_op(f"call '@{op.callee}'")
        mapping: dict[str, CostRange] = {}
        for index, operand in enumerate(op.operands):
            name = f"arg{index}"
            constant = arith.constant_value(operand)
            if constant is not None:
                # Callee parameters model trip counts, which clamp at zero.
                mapping[name] = CostRange.exact(max(0, constant))
            elif operand in self._params:
                mapping[name] = CostRange.exact(
                    SymExpr.param(self._params[operand])
                )
            else:
                mapping[name] = CostRange(_ZERO_EXPR, None)
        return overhead + summary.total.substitute(mapping)


_Rule = Callable[[_FunctionWalker, Any, _Tally], bool]


def _rule_for(kind: type) -> "_Rule | None":
    """The charging rule for ops of class ``kind`` (None: not a
    straight-line op)."""
    if issubclass(kind, arith.ScalarOp):
        return _FunctionWalker._charge_scalar
    if issubclass(kind, (scf.YieldOp, func.ReturnOp)):
        return _FunctionWalker._charge_nothing
    if issubclass(kind, accfg.SetupOp):
        return _FunctionWalker._charge_setup
    if issubclass(kind, accfg.LaunchOp):
        return _FunctionWalker._charge_launch
    if issubclass(kind, accfg.AwaitOp):
        return _FunctionWalker._charge_await
    if issubclass(kind, accfg.ResetOp):
        return _FunctionWalker._charge_reset
    if hasattr(kind, "host_effect") or issubclass(kind, UnregisteredOp):
        return _FunctionWalker._charge_host
    return None


class _ChargeRules(dict[type, "_Rule | None"]):
    """The charging rule of each op class, resolved on first sight."""

    def __missing__(self, kind: type) -> "_Rule | None":
        rule = self[kind] = _rule_for(kind)
        return rule


_CHARGE_RULES = _ChargeRules()


# ---------------------------------------------------------------------------
# The static-cost oracle
# ---------------------------------------------------------------------------


def parameter_bindings(args: Iterable[int]) -> dict[str, int]:
    """Concrete values for the ``argN`` parameters of a ``main`` summary.

    Parameters stand for trip counts of ``for i = 0 to %argN step 1``
    loops, which clamp at zero for negative bounds.
    """
    return {f"arg{i}": max(0, int(value)) for i, value in enumerate(args)}


def _mismatch(bounds: tuple[int, int | None], measured: int) -> str | None:
    """How ``measured`` falls outside the predicted ``[lo, hi]`` (None when
    it lies inside)."""
    lo, hi = bounds
    if measured < lo or (hi is not None and measured > hi):
        predicted = str(lo) if lo == hi else f"[{lo}, {'inf' if hi is None else hi}]"
        return f"simulator measured {measured}, static model predicts {predicted}"
    return None


def compare_with_simulation(
    module: Operation,
    sim: "CoSimulator",
    args: Iterable[int] = (),
    function: str = "main",
) -> list[str]:
    """Mismatches between the static prediction and a finished fault-free
    simulation of ``function`` (empty = the prediction holds).

    Checks instruction counts per ``(accelerator, category)``, configuration
    bytes per accelerator, launch counts per device, and the resulting
    configuration cycles.  Programs containing unmodeled ops are skipped
    (returns ``[]``): the model makes no claim about them.
    """
    analysis = CostAnalysis(module)
    summary = analysis.summary(function)
    if summary is None or not summary.is_modeled:
        return []
    bindings = parameter_bindings(args)
    instr_bounds, byte_bounds, launch_bounds = summary.evaluate(bindings)
    problems: list[str] = []

    measured_instrs: dict[InstrKey, int] = {}
    measured_bytes: dict["str | None", int] = {}
    for instr in sim.trace.instrs:
        key: InstrKey = (instr.accelerator, instr.category)
        measured_instrs[key] = measured_instrs.get(key, 0) + 1
        if instr.config_bytes:
            measured_bytes[instr.accelerator] = (
                measured_bytes.get(instr.accelerator, 0) + instr.config_bytes
            )

    for key in sorted(
        set(instr_bounds) | set(measured_instrs),
        key=lambda k: (k[0] or "", k[1].value),
    ):
        problem = _mismatch(
            instr_bounds.get(key, (0, 0)), measured_instrs.get(key, 0)
        )
        if problem:
            problems.append(
                f"instrs ({key[0] or 'host'}, {key[1].value}): {problem}"
            )
    for bucket in sorted(
        set(byte_bounds) | set(measured_bytes), key=lambda b: b or ""
    ):
        problem = _mismatch(
            byte_bounds.get(bucket, (0, 0)), measured_bytes.get(bucket, 0)
        )
        if problem:
            problems.append(f"config bytes on '{bucket or 'host'}': {problem}")
    measured_launches = {
        name: device.launch_count for name, device in sim.devices.items()
    }
    for name in sorted(set(launch_bounds) | set(measured_launches)):
        problem = _mismatch(
            launch_bounds.get(name, (0, 0)), measured_launches.get(name, 0)
        )
        if problem:
            problems.append(f"launches on '{name}': {problem}")

    # Config cycles (Eq. 4): implied by the per-category counts, checked
    # explicitly so the cycle-level guarantee is stated in cycle units.
    cycles_of = sim.cost_model.cycles_by_category
    config_categories = (
        InstrCategory.SETUP,
        InstrCategory.LAUNCH,
        InstrCategory.CALC,
    )
    lo_cycles, hi_cycles = 0.0, 0.0
    unbounded = False
    for (_, category), (lo, hi) in instr_bounds.items():
        if category not in config_categories:
            continue
        per = cycles_of[category]
        lo_cycles += lo * per
        if hi is None:
            unbounded = True
        else:
            hi_cycles += hi * per
    measured_cycles = sum(
        cycles_of[i.category]
        for i in sim.trace.instrs
        if i.category in config_categories
    )
    epsilon = 1e-6 * max(1.0, measured_cycles)
    if measured_cycles < lo_cycles - epsilon or (
        not unbounded and measured_cycles > hi_cycles + epsilon
    ):
        hi_text = "inf" if unbounded else f"{hi_cycles:.0f}"
        problems.append(
            f"config cycles: simulator measured {measured_cycles:.0f}, "
            f"static model predicts [{lo_cycles:.0f}, {hi_text}]"
        )
    return problems


# ---------------------------------------------------------------------------
# The `repro cost` report
# ---------------------------------------------------------------------------


def format_cost_table(analysis: CostAnalysis) -> str:
    """A per-function static roofline table for ``python -m repro cost``."""
    from ..backends.base import get_accelerator_or_none
    from ..core.analysis import roofline_for_spec
    from ..core.roofline import Boundness

    lines: list[str] = []
    for summary in analysis.summaries():
        params = summary.parameters()
        header = f"@{summary.name}"
        if params:
            header += f"  (parameters: {', '.join(params)})"
        lines.append(header)
        if not summary.is_modeled:
            for reason in sorted(summary.total.unmodeled):
                lines.append(f"  unmodeled: {reason}")
            lines.append("")
            continue
        lines.append(
            f"  host instrs : config {summary.config_instrs()}, "
            f"calc {summary.calc_instrs()}, "
            f"compute {summary.total.category_total(InstrCategory.COMPUTE)}, "
            f"control {summary.total.category_total(InstrCategory.CONTROL)}, "
            f"sync {summary.total.category_total(InstrCategory.SYNC)}"
        )
        lines.append(
            f"  config bytes: {summary.total.config_bytes_total()}"
        )
        accelerators = sorted(
            set(summary.total.launches)
            | (set(summary.total.config_bytes) - {None})
        )
        for name in accelerators:
            if name is None:
                continue
            launches = summary.total.launches.get(name, _ZERO_RANGE)
            bytes_range = summary.total.config_bytes.get(name, _ZERO_RANGE)
            line = (
                f"  {name:12s}: launches {launches}, config bytes {bytes_range}"
            )
            spec = get_accelerator_or_none(name)
            ops = summary.total.ops.get(name)
            if (
                spec is not None
                and ops is not None
                and name not in summary.total.indeterminate_ops
                and ops.is_exact
                and bytes_range.is_exact
            ):
                ops_value = ops.lo.constant_value()
                bytes_value = bytes_range.lo.constant_value()
                if ops_value and bytes_value:
                    i_oc = ops_value / bytes_value
                    roofline = roofline_for_spec(spec, spec.host_cost_model())
                    verdict = (
                        "CONFIG-BOUND"
                        if roofline.boundness(i_oc) is Boundness.CONFIG_BOUND
                        else "compute-bound"
                    )
                    line += (
                        f", ops {ops_value}, I_OC {i_oc:.2f} ops/B "
                        f"(ridge {roofline.knee_intensity:.2f}) -> {verdict}"
                    )
            elif name in summary.total.indeterminate_ops:
                line += ", ops indeterminate"
            lines.append(line)
        lines.append(f"  sites       : {len(summary.sites)}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
