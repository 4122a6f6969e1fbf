"""Dense references for the complexes layer: the former check of the
mixed-complex invariants and the former builders.

``validate_complex`` below is the library's former check, kept as it
was: the shapes of the differentials, then each entry from a Z2
generator into a Z generator, read off the dense rows, then every entry
of the dense product d∘d through each middle degree that is not zero in
the group of its target generator.  The library now lifts each column
of each differential through the next one, the rule its homology lifts
boundaries by; the differential tests require the same violations,
kind and degree, entry for entry.  Like the former check, this one
expects no more differentials than degrees less one.

``chain_map_violations`` is the library's former check of a chain map,
kept as it was: its squares multiply dense matrices.  The library
composes them a column at a time from the sparse columns; the tests
require the same violations, in the same order.

``make_complex`` and ``hom_dual`` below are the library's former
builders, kept as they were: each fills dense rows (``hom_dual`` through
``submatrix``, ``transpose`` and ``mod2``) and converts them.  The
library builds each differential from its nonzeros; the builder tests
require the same matrices, or the same exception and text.
"""

from __future__ import annotations

from foldcob.complexes import (ChainMap, ComplexError, Direction, Generator,
                               MixedComplex, RingTag, Violation,
                               _require_complex)
from foldcob.intmat import IntMatrix


def _torsion_to_free(m: IntMatrix, src_gens, tgt_gens):
    """(row, col) of each nonzero entry of m from a Z2 generator into a Z
    generator; Hom(Z2, Z) = 0, so every such entry must be 0."""
    return [(r, c) for c, g in enumerate(src_gens)
            if g.ring is RingTag.TWO_TORSION
            for r, h in enumerate(tgt_gens)
            if h.ring is RingTag.FREE and m.entries[r][c] != 0]


def _nonzero_in_target(rows, tgt_gens):
    """(row, col, entry) of each matrix entry that is not zero in the group
    of its target generator: exactly on Z rows, mod 2 on Z2 rows."""
    return [(r, c, x) for r, (row, g) in enumerate(zip(rows, tgt_gens))
            for c, x in enumerate(row)
            if (x % 2 if g.ring is RingTag.TWO_TORSION else x) != 0]


def _shape_violations(cx: MixedComplex) -> list[Violation]:
    """The differentials whose shape does not fit the degrees they join."""
    return [Violation("shape", src, f"differential is {d.rows}x{d.cols}, "
                      f"expected {cx.n(tgt)}x{cx.n(src)}")
            for d, src, tgt in cx._diffs()
            if d.rows != cx.n(tgt) or d.cols != cx.n(src)]


def validate_complex(cx: MixedComplex) -> list[Violation]:
    """All structural violations of the mixed-complex invariants; shape
    violations are reported alone."""
    out = _shape_violations(cx)
    if out:
        return out
    for d, src, tgt in cx._diffs():
        for r, c in _torsion_to_free(d, cx.generators[src],
                                     cx.generators[tgt]):
            out.append(Violation(
                "two-torsion source maps to free target", src,
                f"generator {cx.generators[src][c].name} -> "
                f"{cx.generators[tgt][r].name}"))
    # the composite through each middle degree must vanish in the targets
    for mid in range(1, len(cx.differentials)):
        first, src = cx.in_diff(mid)
        second, tgt = cx.out_diff(mid)
        for r, c, x in _nonzero_in_target(second.mul(first).entries,
                                          cx.generators[tgt]):
            out.append(Violation(
                "nonzero composite", src,
                f"d∘d sends {cx.generators[src][c].name} to "
                f"{x}*{cx.generators[tgt][r].name}"))
    return out


def chain_map_violations(f: ChainMap) -> list[Violation]:
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
    # commuting squares, checked in the target groups
    for mat, d, tgt_deg in f.source._diffs():
        if max(d, tgt_deg) >= len(f.matrices):
            continue
        td = f.target.out_diff(d)
        lhs = f.matrices[tgt_deg].mul(mat)
        rhs = (td[0].mul(f.matrices[d]) if td is not None
               else IntMatrix.zero(lhs.rows, lhs.cols))
        diff = ([x - y for x, y in zip(lrow, rrow)]
                for lrow, rrow in zip(lhs.entries, rhs.entries))
        for _, c, _ in _nonzero_in_target(diff, f.target.generators[tgt_deg]):
            out.append(Violation(
                "chain-map square fails", d,
                f"source generator {f.source.generators[d][c].name}"))
    return out


def make_complex(direction, degrees, diffs) -> MixedComplex:
    """Assemble a complex from generator lists and formula dictionaries.

    degrees: list (per degree) of (name, RingTag) pairs.
    diffs: list of dicts, one per differential, mapping a source
    generator name to {target name: coefficient}; diffs[i] connects the
    degrees ``MixedComplex.ends(i)``.
    """
    gens = tuple(tuple(Generator(n, r) for n, r in deg) for deg in degrees)
    shell = MixedComplex(direction, gens, ())
    # name -> index; reversed so that a repeated name keeps its first index
    index = [{g.name: i for i, g in reversed(list(enumerate(deg)))}
             for deg in gens]
    mats = []
    for i, formula in enumerate(diffs):
        src, tgt = shell.ends(i)
        m = [[0] * len(gens[src]) for _ in range(len(gens[tgt]))]
        for sname, image in formula.items():
            c = index[src].get(sname)
            if c is None and not image:
                raise ComplexError(f"differential {i}: unknown generator "
                                   f"{sname!r}")
            for tname, coeff in image.items():
                r = index[tgt].get(tname)
                try:    # an unknown name indexes with None
                    m[r][c] += coeff
                except TypeError:
                    raise ComplexError(
                        f"differential {i}, {sname!r} -> {tname!r}: " +
                        ("unknown generator" if None in (r, c) else
                         f"coefficient {coeff!r} is not an integer")) from None
        mats.append(IntMatrix.from_rows(m, len(gens[src])))
    return MixedComplex(direction, gens, tuple(mats))


def hom_dual(cx: MixedComplex, g: RingTag) -> MixedComplex:
    """The cochain complex Hom(cx, Z) or Hom(cx, Z2).

    Hom(Z2, Z) = 0, so two-torsion generators disappear over Z; over Z2
    every generator survives with Z2 coefficients.  Each differential
    becomes its transpose on the kept generators, mod 2 over Z2.  The
    complex is checked first: one with a violation raises
    ``ComplexError("not a complex: <violation>")``, since the transpose
    of the kept generators alone may hide it.
    """
    _require_complex(cx)
    if cx.direction is not Direction.HOMOLOGICAL:
        raise ComplexError("hom_dual expects a homological complex")
    kept = [[i for i, gen in enumerate(degree)
             if g is RingTag.TWO_TORSION or gen.ring is RingTag.FREE]
            for degree in cx.generators]
    gens = tuple(tuple(Generator(degree[i].name, g) for i in keep)
                 for degree, keep in zip(cx.generators, kept))
    mats = tuple(m.submatrix(kept[tgt], kept[src]).transpose()
                 for m, src, tgt in cx._diffs())
    if g is RingTag.TWO_TORSION:
        mats = tuple(m.mod2() for m in mats)
    return MixedComplex(Direction.COHOMOLOGICAL, gens, mats)
