"""What the layers share without importing one another: the two named
sets a user chooses from, the catalog ids and the cobordism categories,
and the two cusp-counting cochains.

A leaf module: the CLI offers the ids and categories as choices without
importing ``catalog`` or ``reeb``, which re-export them.  The surface
layer evaluates the cochains on signed fiber counts and ``catalog``
checks them on the boundary catalog BCUSP32, so both read one copy.
"""

from __future__ import annotations

from enum import Enum


class CatalogId(Enum):
    CO32 = "CO32"
    CO32_ORI = "CO32_ORI"
    SCO32 = "SCO32"
    SCO32_ORI = "SCO32_ORI"
    CO21 = "CO21"
    C32_Z2 = "C32_Z2"
    C32_Z2_SIMPLE = "C32_Z2_SIMPLE"
    C21_Z2 = "C21_Z2"
    V32 = "V32"
    F32 = "F32"
    CUSP32 = "CUSP32"
    BCUSP32 = "BCUSP32"


class Category(Enum):
    ORIENTED = "oriented"
    UNORIENTED = "unoriented"
    SIMPLE_ORIENTED = "simple_oriented"
    SIMPLE_UNORIENTED = "simple_unoriented"

    @property
    def oriented(self) -> bool:
        return self in (Category.ORIENTED, Category.SIMPLE_ORIENTED)


# The cusp cochains on the codimension-1 fiber classes, as (label,
# coefficient) pairs: c2 = -I0_o + I0_e counts the cusps, and c1 + c2 is a
# cocycle of BCUSP32, so the counts of a realizable diagram give c2 = -c1.
CUSP_C1 = (("Ia_o", 1), ("Ia_e", -1), ("I1_o", 1), ("I1_e", -1))
CUSP_C2 = (("I0_o", -1), ("I0_e", 1))
