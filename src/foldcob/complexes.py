"""Chain complexes with mixed Z / Z2 generators.

A generator tagged FREE contributes a Z summand to its chain group and a
generator tagged TWO_TORSION contributes a Z2 summand.  Homology is
computed by presenting each chain group as Z^n modulo the relations 2e
for the two-torsion generators and running Smith reduction on stacked
matrices.  A pure complex, whose generators all share one ring, gets its
groups from the invariant factors of its differentials and that
presentation only when a basis is read.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum
from itertools import compress

from .intmat import (IntMatrix, _axpy, _column_rows, _dense, _int_entry,
                     _int_row, _smith, cokernel_is_trivial, from_columns)


class RingTag(Enum):
    FREE = "Z"
    TWO_TORSION = "Z2"


class Direction(Enum):
    HOMOLOGICAL = "homological"
    COHOMOLOGICAL = "cohomological"


Generator = namedtuple("Generator", "name ring")


class ComplexError(ValueError):
    pass


class NotACycleError(ValueError):
    pass


class MixedComplex(namedtuple("MixedComplex",
                              "direction generators differentials")):
    """Finite complex in degrees 0..K.

    differentials[i] maps the generators of one degree to those of the
    next, as ``ends(i)`` says.  Entry [r][c] is the coefficient of target
    generator r in the image of source generator c.

    The complex is checked once, on first use, by ``_complex_violations``
    and the result kept in ``_violations``: ``validate_complex`` lists
    it, and ``homology`` (so ``express_class`` and ``induced_map``) and
    ``hom_dual`` raise ``ComplexError("not a complex: <first
    violation>")`` on a complex that has one.  ``hom_dual`` returns its
    dual with the check kept already, as it cannot fail.

    ``make_complex`` and ``hom_dual`` build each differential from its
    nonzeros, with its ``sparse_columns`` kept; the check, homology and
    ``express_class`` read only those, and the dense rows are there for
    printing and for callers that read entries.
    """

    # no __slots__: the instance dict holds the cached hash, check and
    # slots

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # str hashes are salted per process: pickle the fields, not the hash
        return MixedComplex, tuple(self)

    @functools.cached_property
    def _hash(self) -> int:
        # by value, as a tuple hashes, but computed once
        return tuple.__hash__(self)

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """What keeps this from being a complex, checked on first use.
        The complex is immutable, so the check never goes stale."""
        return tuple(_complex_violations(self))

    def ends(self, i: int) -> tuple[int, int]:
        """(source degree, target degree) of differentials[i]: i+1 -> i
        for HOMOLOGICAL, i -> i+1 for COHOMOLOGICAL."""
        if self.direction is Direction.HOMOLOGICAL:
            return i + 1, i
        return i, i + 1

    def _diffs(self):
        """(matrix, source degree, target degree) of each differential."""
        return [(m, *self.ends(i)) for i, m in enumerate(self.differentials)]

    @property
    def top_degree(self) -> int:
        return len(self.generators) - 1

    def n(self, deg: int) -> int:
        return len(self.generators[deg])

    def names(self, deg: int):
        return [g.name for g in self.generators[deg]]

    def index(self, deg: int, name: str) -> int:
        for i, g in enumerate(self.generators[deg]):
            if g.name == name:
                return i
        raise KeyError(name)

    def torsion_indices(self, deg: int):
        return [i for i, g in enumerate(self.generators[deg])
                if g.ring is RingTag.TWO_TORSION]

    def out_diff(self, deg: int):
        """(matrix, target degree) for the differential leaving deg, or None."""
        return next(((m, t) for m, s, t in self._diffs() if s == deg), None)

    def in_diff(self, deg: int):
        """(matrix, source degree) for the differential entering deg, or None."""
        return next(((m, s) for m, s, t in self._diffs() if t == deg), None)

    @functools.cached_property
    def _out_slots(self):
        """Per degree, None at the end of the complex, else the
        differential leaving it and, for each torsion generator of its
        target, the column of [d_out | relations] holding its relation."""
        out = [None] * (self.top_degree + 1)
        for d_out, src, tgt in self._diffs():
            n = self.n(src)
            out[src] = d_out, {r: n + k for k, r
                               in enumerate(self.torsion_indices(tgt))}
        return tuple(out)

    @functools.cached_property
    def _ring(self):
        """The ring of every generator, FREE for a complex with none, or
        None for a mixed complex: which path ``homology`` takes."""
        rings = {g.ring for gens in self.generators for g in gens}
        if len(rings) > 1:
            return None
        return rings.pop() if rings else RingTag.FREE

    @functools.cached_property
    def _factors(self):
        """{source degree: the nonzero invariant factors d1 | d2 | ... of
        the differential leaving it}, one diagonal-only Smith reduction
        per differential, shared by the two degrees it joins."""
        return {src: tuple(filter(None, _smith(_column_rows(d),
                                               d.cols).diagonal()))
                for d, src, _ in self._diffs()}

    def formula(self, i: int) -> dict:
        """differentials[i] by generator names, as ``make_complex`` reads
        it: {source name: {target name: nonzero}}, with every source and
        the targets in generator order."""
        src, tgt = self.ends(i)
        names = self.names(tgt)
        return {s: {names[r]: x for r, x in col} for s, col in
                zip(self.names(src), self.differentials[i].sparse_columns)}

    def chain(self, deg: int, coeffs: dict[str, int]):
        """Integer vector for a formal sum given as {generator name: coeff}."""
        vec = [0] * self.n(deg)
        for name, c in coeffs.items():
            vec[self.index(deg, name)] += c
        return tuple(vec)


def make_complex(direction, degrees, diffs) -> MixedComplex:
    """Assemble a complex from generator lists and formula dictionaries.

    degrees: list (per degree) of (name, RingTag) pairs.
    diffs: list of dicts, one per differential, mapping a source
    generator name to {target name: coefficient}; diffs[i] connects the
    degrees ``MixedComplex.ends(i)``.

    Each differential is built from its nonzeros, a column per source
    generator (``IntMatrix._of_columns``), and equals the matrix of the
    dense rows: a repeated generator name keeps its first index, an
    unknown name or a coefficient that is no number raises
    ``ComplexError``, and one such as 1.5 raises the ValueError of
    ``IntMatrix.from_rows`` naming the entry, while 2.0, True or
    Fraction(3) read as ints and a zero coefficient gives no entry.
    """
    gens = tuple(tuple(Generator(n, r) for n, r in deg) for deg in degrees)
    shell = MixedComplex(direction, gens, ())
    # name -> index; reversed so that a repeated name keeps its first index
    index = [{g.name: i for i, g in reversed(list(enumerate(deg)))}
             for deg in gens]
    mats = []
    for i, formula in enumerate(diffs):
        src, tgt = shell.ends(i)
        nrows, cols = len(gens[tgt]), [{} for _ in gens[src]]
        odd = []    # (row, col) of each entry that is not an exact int
        for sname, image in formula.items():
            c = index[src].get(sname)
            if c is None and not image:
                raise ComplexError(f"differential {i}: unknown generator "
                                   f"{sname!r}")
            for tname, coeff in image.items():
                r = index[tgt].get(tname)
                try:    # as m[r][c] += coeff on dense rows of zeros did
                    if r is None or c is None:    # an unknown name
                        raise TypeError
                    x = cols[c][r] = 0 + coeff
                except TypeError:
                    raise ComplexError(
                        f"differential {i}, {sname!r} -> {tname!r}: " +
                        ("unknown generator" if None in (r, c) else
                         f"coefficient {coeff!r} is not an integer")) from None
                if type(x) is not int:
                    odd.append((r, c))
        for r, c in sorted(odd):    # the first bad entry by row, then column
            cols[c][r] = _int_entry(cols[c][r], r, c)
        mats.append(IntMatrix._of_columns(nrows, tuple(
            tuple(sorted([(r, x) for r, x in col.items() if x]))
            for col in cols)))
    return MixedComplex(direction, gens, tuple(mats))


class Violation(namedtuple("Violation", "kind degree detail")):
    __slots__ = ()

    def __str__(self):
        return f"{self.kind} at degree {self.degree}: {self.detail}"


def _torsion_to_free(m: IntMatrix, src_gens, tgt_gens):
    """(row, col) of each nonzero entry of m from a Z2 generator into a Z
    generator; Hom(Z2, Z) = 0, so every such entry must be 0."""
    return [(r, c) for c, (g, col) in enumerate(zip(src_gens,
                                                    m.sparse_columns))
            if g.ring is RingTag.TWO_TORSION
            for r, _ in col if tgt_gens[r].ring is RingTag.FREE]


def _nonzero_in_target(entries, tgt_gens):
    """The (row, col, entry) triples of entries whose entry is not zero in
    the group of its target generator, exactly on Z rows and mod 2 on Z2
    rows, by row, then column."""
    return sorted((r, c, x) for r, c, x in entries
                  if (x % 2 if tgt_gens[r].ring is RingTag.TWO_TORSION
                      else x) != 0)


def _composite(second, first, c, acc, sign=1):
    """acc[r] += sign * (second∘first)[r][c] for every row r, read off the
    sparse columns of both; returns acc."""
    cols = second.sparse_columns
    for m, a in first.sparse_columns[c]:
        for r, b in cols[m]:
            acc[r] = acc.get(r, 0) + sign * a * b
    return acc


def _shape_violations(cx: MixedComplex) -> list[Violation]:
    """A differential with no target degree, or else the differentials
    whose shape does not fit the degrees they join."""
    if len(cx.differentials) > max(cx.top_degree, 0):
        return [Violation("shape", 0, f"{len(cx.differentials)} "
                          f"differentials for {len(cx.generators)} degrees")]
    return [Violation("shape", src, f"differential is {d.rows}x{d.cols}, "
                      f"expected {cx.n(tgt)}x{cx.n(src)}")
            for d, src, tgt in cx._diffs()
            if d.rows != cx.n(tgt) or d.cols != cx.n(src)]


def _complex_violations(cx: MixedComplex) -> list[Violation]:
    """Shape first, reported alone; then each Z2 -> Z entry; then d∘d,
    by lifting each column of each differential with ``_lift`` through
    the next one, the rule ``homology`` lifts boundaries by.  A column
    that does not lift names each target where its image is not zero."""
    shape = _shape_violations(cx)
    if shape:
        return shape
    gens = cx.generators
    out = [Violation("two-torsion source maps to free target", src,
                     f"generator {gens[src][c].name} -> {gens[tgt][r].name}")
           for d, src, tgt in cx._diffs()
           for r, c in _torsion_to_free(d, gens[src], gens[tgt])]
    for d, src, mid in cx._diffs():
        for c, col in enumerate(d.sparse_columns):
            if _lift(cx, mid, col) is None:
                second, tgt = cx.out_diff(mid)
                image = _composite(second, d, c, {})
                out += [Violation(
                    "nonzero composite", src, f"d∘d sends {gens[src][c].name}"
                    f" to {x}*{gens[tgt][r].name}")
                    for r, _, x in _nonzero_in_target(
                        ((r, c, x) for r, x in image.items()), gens[tgt])]
    return out


def validate_complex(cx: MixedComplex) -> list[Violation]:
    """All violations of the mixed-complex invariants, as checked once
    per complex by ``_complex_violations``: shape violations alone, or
    else each Z2 -> Z entry, then each entry of d∘d that is not zero in
    its target group."""
    return list(cx._violations)


_Presentation = namedtuple("AbelianGroupPresentation",
                           "free_rank torsion basis_cycles coord_rows")


class AbelianGroupPresentation(_Presentation):
    """Z^free_rank + Z/t1 + Z/t2 + ..., with one basis cycle per summand
    and the coordinate rows ``express_class`` reads: rank sparse rows,
    fixed when the basis is built, so that a class costs one pass over
    the cycle to lift it and one sparse dot product per coordinate.
    Hashable, with a deterministic repr.

    ``coord_rows`` holds one (modulus, row) per coordinate, free ones
    (modulus 0) first: a coordinate of a cycle is the dot product of the
    row, a sorted tuple of (column, nonzero coefficient), with the cycle's
    lift into the kernel of [d_out | relations], the cycle's entries
    followed by the relation part _lift gives, taken mod the modulus;
    torsion rows are already reduced mod theirs.

    ``homology`` of a pure complex gives the group first and builds the
    basis on demand: ``basis_cycles`` and ``coord_rows`` are computed on
    their first read and kept.  Reading ``free_rank``, ``torsion`` or
    ``rank`` never builds them; ``==``, ``hash``, ``repr``, pickling,
    iteration and indexing read all four fields and so do.  Either way the
    record is the value of its four fields.
    """

    # no __slots__: the instance dict holds the basis builder and the
    # fields once built

    @classmethod
    def _lazy(cls, free_rank, torsion, build):
        """The group now; the whole presentation, as build() returns it,
        on first read of the basis."""
        pres = tuple.__new__(cls, (free_rank, torsion, None, None))
        pres._build = build
        return pres

    @functools.cached_property
    def _values(self) -> tuple:
        """The four fields as a plain tuple, built once.  The builder is
        kept, so two threads that race here both store the same fields."""
        build = self.__dict__.get("_build")
        if build is None:
            return tuple.__getitem__(self, slice(None))
        values = build()
        if values[:2] != (self.free_rank, self.torsion):
            raise ComplexError("the basis does not present the group")
        return values

    basis_cycles = property(lambda self: self._values[2])
    coord_rows = property(lambda self: self._values[3])

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, i):
        return self._values[i]

    def __eq__(self, other):
        if isinstance(other, AbelianGroupPresentation):
            other = other._values
        return self._values == other

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return repr(_Presentation(*self._values))

    def __reduce__(self):
        return AbelianGroupPresentation, self._values

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)


def _require_complex(cx: MixedComplex):
    if cx._violations:
        raise ComplexError(f"not a complex: {cx._violations[0]}")


def _check_degree(cx: MixedComplex, deg: int):
    if not 0 <= deg <= cx.top_degree:
        raise ComplexError(f"degree {deg} out of range 0..{cx.top_degree}")


def _lift(cx: MixedComplex, deg: int, x):
    """The relation part y of the lift of x, or None if x is not a cycle.

    x is a chain given by its nonzero (index, entry) pairs, read once.
    x followed by y is the unique preimage of x in the kernel of
    [d_out | relations]: y, as {column of its relation: nonzero}, solves
    d_out x + 2y = 0 on the torsion targets.  d_out x is summed into a
    list by target row, whose nonzero rows decide: x is no cycle when one
    is a free row or holds an odd entry.
    """
    out = cx._out_slots[deg]
    if out is None:
        return {}
    d_out, slot = out
    image = [0] * d_out.rows
    cols = d_out.sparse_columns
    for j, c in x:
        for i, a in cols[j]:
            image[i] += c * a
    y = {}
    for i in compress(range(d_out.rows), image):
        e = image[i]
        if i not in slot or e % 2:
            return None
        y[slot[i]] = -e // 2
    return y


def _boundary_lifts(cx: MixedComplex, deg: int) -> list:
    """Each boundary of the degree, a sparse column of the differential
    entering it or a torsion relation 2e, lifted by ``_lift`` from its
    few nonzeros with its relation part appended, so the lifts stay
    sparse (pairs of column and nonzero).  Every lift exists on a checked
    complex: the columns by the d∘d check, and 2e because e maps into Z2
    generators only."""
    inn = cx.in_diff(deg)
    b = list(inn[0].sparse_columns) if inn is not None else []
    b += [((i, 2),) for i in cx.torsion_indices(deg)]
    return [(*col, *_lift(cx, deg, col).items()) for col in b]


@functools.lru_cache(maxsize=64)
def homology(cx: MixedComplex, deg: int) -> AbelianGroupPresentation:
    """Homology (or cohomology, per direction) at the given degree.

    A pure complex, one whose generators are all FREE (or that has none)
    or all TWO_TORSION, gets its group from ranks: one diagonal-only
    Smith reduction per differential, kept on the complex
    (``MixedComplex._factors``).  Over Z the free rank is
    n - rank(d_out) - rank(d_in) and the torsion is the invariant
    factors >= 2 of d_in; over Z2 the group is (Z2)^k with
    k = n - rank2(d_out) - rank2(d_in), where rank2 counts the odd
    invariant factors.  The basis cycles and coordinate rows are built
    on their first read by ``_presentation``, the two reductions that a
    mixed complex (V32 and its truncation) runs at once, on the same
    inputs, so every basis is the same either way.

    The complex is checked first, once per complex object (see
    ``MixedComplex``): on either path, in every degree, a complex with a
    violation raises ``ComplexError("not a complex: <violation>")``, and
    a degree outside 0..K raises ``ComplexError`` too.

    The 64 most recently used (complex, degree) pairs are memoized; keys
    compare complexes by value, and the bound keeps a long run over many
    distinct complexes from holding every presentation.
    """
    _require_complex(cx)
    _check_degree(cx, deg)
    ring = cx._ring
    if ring is None:
        return AbelianGroupPresentation(*_presentation(cx, deg))
    inn = cx.in_diff(deg)
    out = cx._factors.get(deg, ())
    into = cx._factors[inn[1]] if inn is not None else ()
    if ring is RingTag.FREE:
        free_rank = cx.n(deg) - len(out) - len(into)
        torsion = tuple(d for d in into if d >= 2)
    else:
        free_rank = 0
        torsion = (2,) * (cx.n(deg) - sum(d % 2 for d in out + into))
    return AbelianGroupPresentation._lazy(
        free_rank, torsion, functools.partial(_presentation, cx, deg))


def _presentation(cx: MixedComplex, deg: int) -> tuple:
    """The four fields of the full presentation at the degree.

    Two sparse Smith reductions: one of [d_out | relations], tracking only
    v^-1 and the rows of v in the n coordinates of the degree, whose
    kernel columns of v are then the cycle lattice (a kernel vector is
    fixed by those coordinates) and whose matching rows of v^-1 give the
    coordinates of any cycle in it, and one of the boundaries in those
    coordinates, tracking only u and u^-1.
    Both inputs are built as sparse rows: the nonzeros of d_out with a 2
    in each relation slot of ``_out_slots``, and the lifted boundaries
    of ``_boundary_lifts`` in cycle coordinates.
    Column i of u^-1 gives basis cycle i, and row i of u composed with
    the kernel rows of v^-1 the coordinate row i; both are formed only
    for the rank positions the group keeps, and stay sparse.
    """
    n = cx.n(deg)
    out = cx._out_slots[deg]
    stacked, cols = [], n
    if out is not None:
        d_out, slot = out
        stacked = _column_rows(d_out)
        for r, c in slot.items():
            stacked[r][c] = 2
        cols += len(slot)
    # v only in its rows < n: the relation rows are dropped below anyway
    w = _smith(stacked, cols, v=n)
    diag = w.diagonal()
    ker = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    # u*m*v = s makes every other coordinate of a kernel vector vanish, and
    # dropping the relation rows is injective on the kernel
    k_basis = [w.v[j] for j in ker]
    to_cycle = [w.vinv[j] for j in ker]
    lifts = _boundary_lifts(cx, deg)
    # y = to_cycle * lifts, reading to_cycle by the columns it is nonzero in
    by_col = {}
    for r, row in enumerate(to_cycle):
        for m, x in row.items():
            by_col.setdefault(m, []).append((r, x))
    y = [{} for _ in ker]
    for c, lift in enumerate(lifts):
        for m, a in lift:
            for r, x in by_col.get(m, ()):
                y[r][c] = y[r].get(c, 0) + a * x
    w2 = _smith([{c: x for c, x in row.items() if x} for row in y],
                len(lifts), u=True)
    diag = w2.diagonal()
    free_pos, tors_pos = [], []
    for i in range(len(ker)):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            free_pos.append((i, 0))
        elif d >= 2:
            tors_pos.append((i, d))
    # for kept i only: basis cycle i is k_basis times column i of u^-1,
    # coordinate row i is row i of u times to_cycle
    cycles, rows = [], []
    for i, d in free_pos + tors_pos:
        cyc, row = {}, {}
        for m, x in w2.uinv[i].items():
            _axpy(cyc, k_basis[m], x)
        for m, x in w2.u[i].items():
            _axpy(row, to_cycle[m], x)
        if d:
            row = {j: x % d for j, x in row.items() if x % d}
        cycles.append(cyc)
        rows.append((d, tuple(sorted(row.items()))))
    return (len(free_pos), tuple(d for _, d in tors_pos),
            _dense(cycles, n), tuple(rows))


def express_class(cx: MixedComplex, deg: int, cycle) -> tuple[int, ...]:
    """Coordinates of a cycle's class in the homology basis.

    The dense cycle is read once: its nonzero (index, entry) pairs go to
    _lift, and its entries followed by the relation part _lift returns
    form the lift into the kernel of [d_out | relations], a dense list.
    Each coordinate is the dot product of one coordinate row of the
    presentation with the lift, indexed by the row's columns, so a query
    costs one pass over the cycle, one over d_out's columns at its
    nonzeros and rank sparse dot products, and no reduction.  Free
    coordinates are exact integers; torsion coordinates are reduced
    modulo their coefficient.  Raises ComplexError if the vector does not
    have one entry per generator of the degree or holds an entry that
    int() would change, naming it, and NotACycleError if it is not a
    cycle of the complex.
    """
    pres = homology(cx, deg)
    n = cx.n(deg)
    if len(cycle) != n:
        raise ComplexError(f"vector has {len(cycle)} entries, degree {deg} "
                           f"has {n} generators")
    try:
        cycle = _int_row(cycle)
    except ValueError as exc:
        raise ComplexError(f"vector {exc}") from None
    y = _lift(cx, deg, zip(compress(range(n), cycle), filter(None, cycle)))
    if y is None:
        raise NotACycleError("vector is not a cycle at this degree")
    lift = list(cycle)
    out = cx._out_slots[deg]
    if out is not None:
        lift += [0] * len(out[1])
    for j, e in y.items():
        lift[j] = e
    coords = []
    for d, row in pres.coord_rows:
        x = sum([c * lift[j] for j, c in row])
        coords.append(x % d if d else x)
    return tuple(coords)


class ChainMap(namedtuple("ChainMap", "source target matrices")):
    """Degreewise map between complexes of the same direction.

    matrices[d] maps source generators of degree d to target generators
    of degree d; degrees beyond either complex are treated as zero.
    """

    # no __slots__: the instance dict holds the cached check

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """What keeps the map from being a chain map, checked on first
        use.  The map is immutable, so the check never goes stale."""
        return tuple(_chain_map_violations(self))


def validate_chain_map(f: ChainMap) -> list[Violation]:
    return list(f._violations)


def _chain_map_violations(f: ChainMap) -> list[Violation]:
    out = []
    if f.source.direction is not f.target.direction:
        return [Violation("direction mismatch", 0, "source vs target")]
    if len(f.matrices) != min(f.source.top_degree, f.target.top_degree) + 1:
        return [Violation("shape", 0, "wrong number of degree matrices")]
    for d, m in enumerate(f.matrices):
        if m.rows != f.target.n(d) or m.cols != f.source.n(d):
            return [Violation("shape", d, "matrix shape mismatch")]
    # the squares below multiply the differentials of both ends
    shapes = _shape_violations(f.source) + _shape_violations(f.target)
    if shapes:
        return shapes
    for d, m in enumerate(f.matrices):
        for _, c in _torsion_to_free(m, f.source.generators[d],
                                     f.target.generators[d]):
            out.append(Violation("two-torsion source maps to free target",
                                 d, f.source.generators[d][c].name))
    # commuting squares, checked in the target groups a column at a time
    for mat, d, tgt_deg in f.source._diffs():
        if max(d, tgt_deg) >= len(f.matrices):
            continue
        td = f.target.out_diff(d)
        diff = []
        for c in range(mat.cols):    # column c of f∘d - d'∘f
            acc = _composite(f.matrices[tgt_deg], mat, c, {})
            if td is not None:
                _composite(td[0], f.matrices[d], c, acc, -1)
            diff += [(r, c, x) for r, x in acc.items()]
        for _, c, _ in _nonzero_in_target(diff, f.target.generators[tgt_deg]):
            out.append(Violation(
                "chain-map square fails", d,
                f"source generator {f.source.generators[d][c].name}"))
    return out


def _require_chain_map(f: ChainMap):
    if f._violations:
        raise ComplexError(f"not a chain map: {f._violations[0]}")


def induced_map(f: ChainMap, deg: int) -> IntMatrix:
    """Matrix of the induced map on homology in the computed bases."""
    _require_chain_map(f)
    cols = []
    for cyc in homology(f.source, deg).basis_cycles:
        image = f.matrices[deg].apply(cyc)
        cols.append(list(express_class(f.target, deg, image)))
    return from_columns(cols, homology(f.target, deg).rank)


def induced_is_isomorphism(f: ChainMap, deg: int) -> bool:
    """True iff the induced map on degree-deg homology is bijective.

    Equal invariant factors plus surjectivity suffice: a surjective
    endo-type map between isomorphic finitely generated groups is
    injective (such groups are Hopfian).  The groups are compared first,
    which on pure complexes builds no basis; the induced map, which
    reads the bases of both ends, is computed only when the groups can be
    isomorphic.  A map that is not a chain map raises ``ComplexError("not
    a chain map: <first violation>")`` first, as ``induced_map`` does.
    """
    _require_chain_map(f)
    src, tgt = homology(f.source, deg), homology(f.target, deg)
    if (src.free_rank, src.torsion) != (tgt.free_rank, tgt.torsion):
        return False
    rel_cols = []
    for i, d in enumerate(tgt.torsion):
        col = [0] * tgt.rank
        col[tgt.free_rank + i] = d
        rel_cols.append(col)
    m = induced_map(f, deg).hstack(from_columns(rel_cols, tgt.rank))
    return cokernel_is_trivial(m)


def hom_dual(cx: MixedComplex, g: RingTag) -> MixedComplex:
    """The cochain complex Hom(cx, Z) or Hom(cx, Z2).

    Hom(Z2, Z) = 0, so two-torsion generators disappear over Z; over Z2
    every generator survives with Z2 coefficients.  Each differential
    becomes its transpose on the kept generators, mod 2 over Z2, built
    from its nonzeros: the pairs of each column of cx's differential,
    kept and renumbered, are regrouped by row, and over Z2 reduced mod 2,
    dropping the ones that vanish.  The complex is checked first: one
    with a violation raises ``ComplexError("not a complex:
    <violation>")``, since the transpose of the kept generators alone may
    hide it.

    The dual of a checked complex is a complex, so it is returned
    checked, with no violation.  Its shapes fit, and it has no Z2 -> Z
    entry, its generators sharing one ring.  Over Z, (d∘d)^T on free
    generators sums only over free middle generators, as a Z2 middle
    generator meets a free target only through a zero entry, so it is
    the zero of cx's composite on Z rows.  Over Z2, cx's composite is
    even on every row, and stays so after reducing each entry mod 2.
    """
    _require_complex(cx)
    if cx.direction is not Direction.HOMOLOGICAL:
        raise ComplexError("hom_dual expects a homological complex")
    kept = [[i for i, gen in enumerate(degree)
             if g is RingTag.TWO_TORSION or gen.ring is RingTag.FREE]
            for degree in cx.generators]
    gens = tuple(tuple(Generator(degree[i].name, g) for i in keep)
                 for degree, keep in zip(cx.generators, kept))
    # per degree, {old index: new index} of the kept generators
    new = [{i: k for k, i in enumerate(keep)} for keep in kept]
    mats = []
    for m, src, tgt in cx._diffs():
        # the dual's columns, one per kept row of m, filled in row order
        dual_cols = [[] for _ in kept[tgt]]
        for c, col in enumerate(m.sparse_columns):
            k = new[src].get(c)
            if k is None:
                continue
            for r, x in col:
                if g is RingTag.TWO_TORSION:
                    x %= 2
                if x and r in new[tgt]:
                    dual_cols[new[tgt][r]].append((k, x))
        mats.append(IntMatrix._of_columns(len(kept[src]),
                                          tuple(map(tuple, dual_cols))))
    dual = MixedComplex(Direction.COHOMOLOGICAL, gens, tuple(mats))
    dual.__dict__["_violations"] = ()
    return dual


def zero_complex(direction=Direction.HOMOLOGICAL) -> MixedComplex:
    return MixedComplex(direction, ((),), ())
