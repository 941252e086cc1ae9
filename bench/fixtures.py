"""Build a workload's fixed library objects from a literal spec.

This module imports nothing, so the set-up probe can load it before it
starts the clock on `import misr`.  A spec item is a tuple:

    ("builtin", name)        misr.builtin(name)
    ("lplus1", k)            misr.lplus1(misr.boolean_lattice(k))
    ("product", item, item)  misr.direct_product of two built items
    ("identity", text)       misr.parse_identity(text)
    ("load", path)           misr.load_algebra(path)
"""


def build(misr, spec):
    """Return {item: object} for every item of spec (and nested items)."""
    objs = {}

    def make(item):
        if item in objs:
            return objs[item]
        kind = item[0]
        if kind == "builtin":
            obj = misr.builtin(item[1])
        elif kind == "lplus1":
            obj = misr.lplus1(misr.boolean_lattice(item[1]))
        elif kind == "product":
            obj = misr.direct_product(make(item[1]), make(item[2]))
        elif kind == "identity":
            obj = misr.parse_identity(item[1])
        elif kind == "load":
            obj = misr.load_algebra(item[1])
        else:
            raise ValueError(f"unknown fixture kind {kind!r}")
        objs[item] = obj
        return obj

    for item in spec:
        make(item)
    return objs
