"""The two named sets a user chooses from: the catalog ids and the
cobordism categories.

A leaf module: the CLI offers these values as choices without importing
``catalog`` or ``reeb``, which re-export them.
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
