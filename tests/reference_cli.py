"""The stage generators of `eps0 enum run` as they were written, three
closures behind one dispatch, kept verbatim (the one import made absolute)
as the reference for the plain generator `epsilon0.cli._builtin_generator`."""


def _builtin_generator(style: str, b: int, d: int, seed: int):
    """Deterministic stage generators for `enum run`."""
    from epsilon0.generate import SplitMix64

    if style == "full":
        # Complete d-ary tree grown one level per stage.
        def gen():
            level = [()]
            for _ in range(b):
                nxt = []
                for node in level:
                    nxt.extend(node + (i,) for i in range(d))
                yield nxt
                level = nxt
        return gen()
    if style == "chain":
        def gen():
            node = ()
            for _ in range(b):
                node = node + (0,)
                yield [node]
        return gen()
    if style == "random":
        rng = SplitMix64(seed)
        def gen():
            leaves = [()]
            while leaves:
                stage = []
                new_leaves = []
                for leaf in leaves:
                    if len(leaf) >= b:
                        continue
                    kids = rng.below(d + 1)
                    if kids == 0 and rng.bit():
                        new_leaves.append(leaf)
                        continue
                    for i in range(kids):
                        child = leaf + (i,)
                        stage.append(child)
                        new_leaves.append(child)
                if not stage:
                    return
                yield stage
                leaves = new_leaves
        return gen()
    raise ValueError(f"unknown style {style!r}")
