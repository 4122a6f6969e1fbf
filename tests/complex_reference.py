"""Reference check of the mixed-complex invariants on dense matrices.

``validate_complex`` below is the library's former check, kept as it
was: the shapes of the differentials, then each entry from a Z2
generator into a Z generator, read off the dense rows, then every entry
of the dense product d∘d through each middle degree that is not zero in
the group of its target generator.  The library now lifts each column
of each differential through the next one, the rule its homology lifts
boundaries by; the differential tests require the same violations,
kind and degree, entry for entry.  Like the former check, this one
expects no more differentials than degrees less one.
"""

from __future__ import annotations

from foldcob.complexes import MixedComplex, RingTag, Violation
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
