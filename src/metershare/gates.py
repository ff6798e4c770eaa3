"""Boolean-flavoured circuits over arithmetic sharings.

Everything here reduces to affine combinations plus interactive products
on an Engine, so the cost meter sees exactly the multiplication pattern
a real run would produce.
"""

from functools import lru_cache
from itertools import chain, compress
from operator import not_

from .abb import Engine, Handle
from .errors import LengthMismatch

# A shared ID is its bits, most significant first, each bit a handle.
BitSharedId = list


def equals_public_batch(engine: Engine, queries: list[tuple[BitSharedId, int]],
                        width: int) -> list[Handle]:
    """Run many equality tests level-synchronously.

    Per query: XOR each secret bit with the public bit (affine, since one
    operand is public), then OR-fold the differences starting from a zero
    accumulator, exactly width interactive products deep in a tree of
    ceil(log2(width+1)) rounds.  The fold yields 1 on any difference; the
    final negation back to "equal" is affine.

    Each query's nodes are its zero and its width bits, and the fold works
    on node columns, width+1 of them, column k holding every query's node
    k.  A flipped bit is its complement 1 - x, registered once per
    distinct bit handle however many queries flip it (naa's queries for
    one meter all reuse its bit handles).  One number per flip is still
    issued: the complements take the first ones, in query order, and
    ``Engine.skip_handles`` issues the rest unstored, so every later
    number is the one a row per flip would give.

    Each level pairs columns 2j and 2j+1 query by query in one fused
    ``product_batch(..., as_or=True)`` round, whose products are never
    stored, and carries an odd level's last column.  After it the gate
    releases by one rule: the spent columns that the fold made, and every
    gate-owned leaf (the zero and the complements) that no column left
    holds.  So at most one level's intermediates, and the complements of
    a leaf column still carried, are live at a time.
    """
    for bits, public_id in queries:
        if len(bits) != width:
            raise LengthMismatch(f"expected {width} bits, got {len(bits)}")
        if public_id < 0 or public_id >> width:
            raise LengthMismatch(f"{public_id} does not fit {width} bits")

    # affine XOR with the public bit: x + y - 2xy collapses to x or 1-x;
    # the complements are numbered from zero + 1 in first-flip order
    zero = engine.constant(0)
    flipped = {}     # public id -> positions of its set bits in a node row
    complement = {}  # flipped bit handle -> handle of its complement
    nodes = []
    flips = 0
    for bits, public_id in queries:
        at = flipped.get(public_id)
        if at is None:
            at = flipped[public_id] = [
                k + 1 for k in range(width) if public_id >> (width - 1 - k) & 1
            ]
        row = [zero, *bits]
        for k in at:
            c = complement.get(row[k])
            if c is None:
                c = complement[row[k]] = zero + 1 + len(complement)
            row[k] = c
        nodes += row
        flips += len(at)
    engine.lincomb_batch([([(-1, bh)], 1) for bh in complement])
    engine.skip_handles(flips - len(complement))

    # levelled OR fold: a OR b = a + b - ab, merged inside the product round
    cols = [nodes[k::width + 1] for k in range(width + 1)]
    made = [False] * (width + 1)          # per column: holds fold products
    leaves = {zero, *complement.values()}  # gate-owned leaves still live
    while len(cols) > 1:
        half = len(cols) // 2
        # pair columns 2j and 2j+1, then take the pairs query by query
        by_query = zip(*map(zip, cols[0:2 * half:2], cols[1:2 * half:2]))
        merged = engine.product_batch(list(chain.from_iterable(by_query)),
                                      as_or=True)
        engine.release(chain.from_iterable(compress(cols[:2 * half], made)))
        cols = [merged[j::half] for j in range(half)] + cols[2 * half:]
        made = [True] * half + made[2 * half:]
        held = leaves.intersection(
            chain.from_iterable(compress(cols, map(not_, made))))
        engine.release(leaves - held)
        leaves = held

    (roots,) = cols
    out = engine.lincomb_batch([([(-1, root)], 1) for root in roots])
    # the fold roots; at width 0 every root is the shared zero
    engine.release(roots if width else [zero])
    return out


def compose_bits_batch(engine: Engine, rows: list[BitSharedId]) -> list[Handle]:
    """Pack shared bits (MSB first) into one shared field element per row.

    The packed elements are registered in list order.
    """
    return engine.lincomb_batch([
        ([(1 << (len(bits) - 1 - k), bh) for k, bh in enumerate(bits)], 0)
        for bits in rows
    ])


@lru_cache(maxsize=64)
def exchange_layers(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Comparator layers of the odd-even merge network, pruned to m wires.

    The construction is for the next power of two; comparators touching a
    wire >= m are dropped, which preserves sortedness on the remaining
    wires (they would only ever push padding maxima downward).  Gates
    within a layer touch disjoint wires and so share a round.  The network
    depends on m alone, so it is built once per m and shared as tuples.
    """
    if m < 2:
        return ()
    size = 1 << (m - 1).bit_length()
    layers = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            layer = []
            for j in range(k % p, size - k, 2 * k):
                for i in range(0, min(k, size - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        if i + j + k < m:
                            layer.append((i + j, i + j + k))
            if layer:
                layers.append(tuple(layer))
            k //= 2
        p *= 2
    return tuple(layers)


def oblivious_permute(engine: Engine, rows: list[tuple],
                      setup_phase: str) -> list[tuple]:
    """Permute tuple rows under secret, uniformly random control bits.

    Every comparator of the exchange network becomes an exchange gate
    driven by a fresh shared bit, so no single party learns anything
    about the applied permutation: per stream, m = c*(b - a) is one
    product, then a' = a + m and b' = b - m.  Layers are applied in
    network order, each as one batch of deltas, one product round and one
    batch of updates.  The control bits are drawn once up front by one
    ``engine.random_bits_batch``, from the engine's own rng, under the
    phase ``setup_phase``: bit generation opens blinded squares, and that
    phase keeps those opens apart from the caller's.  Precondition: every
    row handle has the same holder mask (true for region rows, which are
    admitted only on the full live set); otherwise b' would be held more
    widely than a + b - a' was.  Each layer releases its deltas, products
    and control bits and the gate-owned rows it replaced; the caller's
    rows are never released.
    """
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise LengthMismatch("rows carry different stream counts")
    layers = exchange_layers(len(rows))
    n_gates = sum(len(layer) for layer in layers)
    if n_gates == 0:
        return list(rows)
    with engine.phase(setup_phase):
        bits = engine.random_bits_batch(n_gates)
    # every handle the gate still holds was registered after the caller's
    # rows; the bit generator has already released its own scratch
    mark = min(bits)
    pc = engine.meter.bucket(engine.current_phase)
    pc.exchange_gates += n_gates
    rows = list(rows)
    used = 0
    streams = len(rows[0])
    for layer in layers:
        ctrls = bits[used:used + len(layer)]
        used += len(layer)
        deltas = engine.lincomb_batch([
            ([(1, rows[b][s]), (-1, rows[a][s])], 0)
            for a, b in layer for s in range(streams)
        ])
        moved = engine.product_batch([
            (c, d) for gi, c in enumerate(ctrls)
            for d in deltas[gi * streams:(gi + 1) * streams]
        ])
        # a' = a + m and b' = b - m, interleaved per stream
        updated = engine.lincomb_batch([
            combo
            for gi, (a, b) in enumerate(layer)
            for s, m in enumerate(moved[gi * streams:(gi + 1) * streams])
            for combo in (([(1, rows[a][s]), (1, m)], 0),
                          ([(1, rows[b][s]), (-1, m)], 0))
        ])
        replaced = []
        for gi, (a, b) in enumerate(layer):
            replaced += rows[a] + rows[b]
            pair = updated[2 * gi * streams:2 * (gi + 1) * streams]
            rows[a] = tuple(pair[0::2])
            rows[b] = tuple(pair[1::2])
        engine.release(deltas)
        engine.release(moved)
        engine.release(ctrls)
        engine.release(h for h in replaced if h >= mark)
    return rows
