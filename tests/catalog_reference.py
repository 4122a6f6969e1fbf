"""The closed cochain catalogs CO32, C32_Z2 and C32_Z2_SIMPLE, typed out.

``foldcob.catalog`` builds these three as duals of V32 (CO32 = Hom(V32, Z),
C32_Z2 = Hom(V32, Z2), C32_Z2_SIMPLE the Z2 dual of V32 without II6).
The tables here are typed by hand and take nothing from ``foldcob`` but
``make_complex`` and its tags, so a wrong sign or a missing term in V32's
table shows as a difference from them.  Generators are ordered as in the
catalog: by class name, ``o`` before ``e``.
"""

from foldcob.complexes import Direction, RingTag, make_complex

Z, Z2 = RingTag.FREE, RingTag.TWO_TORSION

_FOLDS = ["I0_o", "I0_e", "I1_o", "I1_e"]
_DEG2 = ["II00_o", "II00_e", "II01_o", "II01_e", "II02_o", "II02_e",
         "II11_o", "II11_e", "II12_o", "II12_e", "II22_o", "II22_e",
         "II3_o", "II3_e", "II4_o", "II4_e", "II5_o", "II5_e",
         "II6_o", "II6_e", "II7_o", "II7_e"]


def co32():
    """Hom(V32, Z): only the co-orientable classes 0, I0, I1 and II01."""
    return make_complex(
        Direction.COHOMOLOGICAL,
        [[("0_o", Z), ("0_e", Z)],
         [(g, Z) for g in _FOLDS],
         [("II01_o", Z), ("II01_e", Z)]],
        [{"0_o": {"I0_o": 1, "I0_e": 1, "I1_o": 1, "I1_e": 1},
          "0_e": {"I0_o": -1, "I0_e": -1, "I1_o": -1, "I1_e": -1}},
         {"I0_o": {"II01_o": 1, "II01_e": -1},
          "I0_e": {"II01_o": 1, "II01_e": -1},
          "I1_o": {"II01_o": -1, "II01_e": 1},
          "I1_e": {"II01_o": -1, "II01_e": 1}}])


def c32_z2(simple=False):
    """Hom(V32, Z2); with simple=True without the class II6."""
    deg2 = [g for g in _DEG2 if not (simple and g.startswith("II6_"))]
    i2_image = {"II02_o": 1, "II02_e": 1, "II12_o": 1, "II12_e": 1}
    if not simple:
        i2_image.update({"II6_o": 1, "II6_e": 1})
    folds = {"I0_o": 1, "I0_e": 1, "I1_o": 1, "I1_e": 1}
    return make_complex(
        Direction.COHOMOLOGICAL,
        [[("0_o", Z2), ("0_e", Z2)],
         [(g, Z2) for g in _FOLDS + ["I2_o", "I2_e"]],
         [(g, Z2) for g in deg2]],
        [{"0_o": folds, "0_e": folds},
         {"I0_o": {"II01_o": 1, "II01_e": 1},
          "I0_e": {"II01_o": 1, "II01_e": 1},
          "I1_o": {"II01_o": 1, "II01_e": 1},
          "I1_e": {"II01_o": 1, "II01_e": 1},
          "I2_o": i2_image,
          "I2_e": i2_image}])
