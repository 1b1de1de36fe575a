"""The benchmark's workloads: what each one runs, what it sets up, and how
its outputs are checked.

A workload never imports klspecht itself.  The worker imports the package
(that import is part of the measured set-up) and passes klspecht's
modules in as `ks`, a namespace (`ks.hecke`, `ks.qrkit`, ...).  Every
call into the program goes through a module attribute
(`ks.qrkit.verify_thm1`, never a name bound at import time), so the
traced run's wrappers see it.

An item is one `CheckReport` or one query.  The body runs each item as
`timed(key, fn, *args)`, where key is (group, index in the CLI's order)
and the group is the item's shape or query kind.  Work the CLI does
between items (such as drawing the next random basis order) runs in the
body but outside any item.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

__all__ = ['PINNED_SEED', 'WORKLOADS', 'by_group', 'digest', 'output_record']

# the kl-queries answers are recorded for this seed only
PINNED_SEED = 0


def digest(obj) -> str:
    """Short stable digest of a JSON-ready object."""
    text = json.dumps(obj, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _shape_key(shape) -> str:
    return ','.join(map(str, shape))


def output_record(out):
    """JSON-ready form of an item output, for digests."""
    return out.record() if hasattr(out, 'record') else out


def _shapes(ks, max_n: int) -> list[tuple[int, ...]]:
    """Every shape of n = 2..max_n, in the order the CLI sweeps them."""
    return [shape for n in range(2, max_n + 1)
            for shape in ks.tableaux.partitions(n)]


def _run_order(seed: int, sizes: list[int]) -> list[int]:
    """The seeded order in which the items run: n ascending as in the CLI,
    so what one n leaves in the caches for the next is as warm as there,
    and the items of each n shuffled.  Items of one latency class (one
    shape) are then spread over their n's part of the run, so a burst of
    noise on the shared machine cannot move a whole class at once.
    `sizes` counts the items of each n, in the CLI's item order."""
    rng = Random(f'{seed}:order')
    order: list[int] = []
    for size in sizes:
        block = list(range(len(order), len(order) + size))
        rng.shuffle(block)
        order.extend(block)
    return order


def _sizes_by_n(shapes, per_shape) -> list[int]:
    """Items per n, for shapes listed by ascending n."""
    sizes: dict[int, int] = {}
    for shape in shapes:
        sizes[sum(shape)] = sizes.get(sum(shape), 0) + per_shape(shape)
    return list(sizes.values())


def by_group(keys, outputs) -> dict[str, list]:
    """Output records per key group, in the CLI's order within a group."""
    groups: dict[str, list] = {}
    for (group, index), out in sorted(zip(keys, outputs), key=lambda p: p[0][1]):
        groups.setdefault(group, []).append(output_record(out))
    return groups


class Thm1:
    """The checks of `klspecht verify thm1 --max-n N --seed S`: per shape
    the canonical order plus 10 seeded index-monotone shuffles, drawn in
    the body exactly as `qrkit.thm1_shape_reports` draws them."""

    shuffles = 10

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.table_ns = tuple(range(2, max_n + 1))

    def prepare(self, ks, seed: int):
        shapes = _shapes(ks, self.max_n)
        sizes = _sizes_by_n(shapes, lambda shape: self.shuffles + 1)
        return {'shapes': shapes, 'seed': seed, 'order': _run_order(seed, sizes)}

    def body(self, ks, state, timed) -> None:
        qrkit = ks.qrkit
        items = []
        for shape in state['shapes']:
            items.append((shape,))
            rng = Random(f'{state["seed"]}:thm1:{"-".join(map(str, shape))}')
            for _ in range(self.shuffles):
                items.append((shape, qrkit.random_index_monotone_order(shape, rng)))
        for i in state['order']:
            timed((_shape_key(items[i][0]), i), qrkit.verify_thm1, *items[i])

    def fingerprints(self, ks, state, keys, outputs) -> dict[str, str]:
        return {}


class Thm4:
    """The checks of `klspecht verify thm4 --max-n N`: every connected
    chain on every shape.  The sweep takes no seed, so its outputs are
    recorded once for all seeds; the seed only sets the run order."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.table_ns = tuple(range(2, max_n + 1))

    def prepare(self, ks, seed: int):
        shapes = _shapes(ks, self.max_n)
        chains = {n: ks.qrkit.all_connected_chains(n) for n in range(2, self.max_n + 1)}
        items = [(shape, chain) for shape in shapes for chain in chains[sum(shape)]]
        sizes = _sizes_by_n(shapes, lambda shape: len(chains[sum(shape)]))
        return {'items': items, 'order': _run_order(seed, sizes)}

    def body(self, ks, state, timed) -> None:
        qrkit = ks.qrkit
        items = state['items']
        for i in state['order']:
            shape, chain = items[i]
            timed((_shape_key(shape), i), qrkit.verify_thm4_chain, shape, chain)

    def fingerprints(self, ks, state, keys, outputs) -> dict[str, str]:
        """Per shape, the digest of its reports in chain order (timing is
        already null in `CheckReport.record`)."""
        return {f'thm4/{group}': digest(records)
                for group, records in by_group(keys, outputs).items()}


class Branching:
    """The checks of `klspecht verify branching --max-n N`: the filtration
    and the branching check on every shape.  Seedless like thm4; the seed
    only sets the run order within each n, which also moves the KL memo
    fill between the items of that n."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.table_ns = tuple(range(2, max_n + 1))

    def prepare(self, ks, seed: int):
        shapes = _shapes(ks, self.max_n)
        return {'shapes': shapes,
                'order': _run_order(seed, _sizes_by_n(shapes, lambda shape: 2))}

    def body(self, ks, state, timed) -> None:
        specht = ks.specht
        checks = (specht.check_filtration_invariance, specht.check_branching)
        shapes = state['shapes']
        for i in state['order']:
            shape = shapes[i // 2]
            timed((_shape_key(shape), i), checks[i % 2], shape)

    def fingerprints(self, ks, state, keys, outputs) -> dict[str, str]:
        """Per shape, the digest of the generator matrices s_1..s_{n-2}
        that the checks compare (read after the run, from warm caches)."""
        out = {}
        for shape in state['shapes']:
            mats = [ks.specht.generator_matrix(shape, j)
                    for j in range(1, sum(shape) - 1)]
            out[f'branching/{_shape_key(shape)}'] = digest(mats)
        return out


class KLQueries:
    """Seeded `kl_polynomial(v, w)` and `mu(v, w)` queries in S_n, in one
    process with a cold memo, as the klpoly/mu commands issue them.

    Each query draws w uniformly with l(w) >= 3 and a gap k uniformly
    from 3..min(10, l(w)), then walks k random right descents down from w
    to v.  So v < w in Bruhat order with l(w) - l(v) = k.  Uniformly drawn
    comparable pairs have mostly large gaps and a tail so heavy that the
    slowest few queries change from seed to seed; the bounded gap keeps
    the memo fill spread over many queries.
    """

    min_gap = 3
    max_gap = 10

    def __init__(self, n: int, count: int, oracle_sample: int):
        self.n = n
        self.count = count
        self.oracle_sample = oracle_sample
        self.table_ns = (n,)

    def prepare(self, ks, seed: int):
        # drawn with the independent symgroup code, never with hecke
        symgroup = ks.symgroup
        rng = Random(f'{seed}:kl-queries:{self.n}')
        letters = list(range(1, self.n + 1))
        queries = []
        while len(queries) < self.count:
            w = tuple(rng.sample(letters, self.n))
            top = symgroup.length(w)
            if top < self.min_gap:
                continue
            v = w
            for _ in range(rng.randint(self.min_gap, min(self.max_gap, top))):
                v = symgroup.right_mult_s(v, rng.choice(sorted(symgroup.right_descents(v))))
            queries.append((rng.choice(('klpoly', 'mu')), v, w))
        return {'queries': queries, 'seed': seed}

    def body(self, ks, state, timed) -> None:
        hecke = ks.hecke
        for i, (kind, v, w) in enumerate(state['queries']):
            fn = hecke.kl_polynomial if kind == 'klpoly' else hecke.mu
            timed((kind, i), fn, v, w)

    def oracle_failures(self, ks, state, outputs) -> list[int]:
        """Indices of a seeded subsample whose answers disagree with the
        independent R-polynomial oracle `kl_oracle`."""
        queries = state['queries']
        rng = Random(f'{state["seed"]}:kl-oracle:{self.n}')
        sample = rng.sample(range(len(queries)),
                            min(self.oracle_sample, len(queries)))
        bad = []
        for i in sorted(sample):
            kind, v, w = queries[i]
            poly = ks.hecke.kl_oracle(v, w)
            if kind == 'klpoly':
                expect = poly
            else:
                gap = ks.symgroup.length(w) - ks.symgroup.length(v)
                top = (gap - 1) // 2
                expect = poly[top] if gap % 2 and top < len(poly) else 0
            if outputs[i] != expect:
                bad.append(i)
        return bad

    def fingerprints(self, ks, state, keys, outputs) -> dict[str, str]:
        answers = [output_record(out) for out in outputs]
        return {f'kl-queries-s{self.n}/seed{state["seed"]}': digest(answers)}


# The four benchmark workloads, then the self-test sizes (n <= 4).
WORKLOADS = {
    'thm1-n7': Thm1(7),
    'thm4-n6': Thm4(6),
    'branching-n8': Branching(8),
    'kl-queries-s7': KLQueries(7, count=3000, oracle_sample=20),
    'thm1-n4': Thm1(4),
    'thm4-n4': Thm4(4),
    'branching-n4': Branching(4),
    'kl-queries-s4': KLQueries(4, count=200, oracle_sample=200),
}
