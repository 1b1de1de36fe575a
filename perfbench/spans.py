"""Spans and counters around the public boundaries of klspecht's modules.

Each wrapper is installed on the name that the caller resolves at call
time: `qrkit` imports `matrix_of`, `promote` and `partial_evacuate` by
name, `hecke` imports `column_word`, and `jdt` and `rsk` import
`check_standard`, so those names are patched in the importing module as
well as in the defining one.  In `hecke` only the entry points are
wrapped, never the recursive `_Tables.kl`.

A span records a name, a start, an end and its parent span.  Spans live
in flat arrays in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children; a name's inclusive time counts only its outermost spans, so a
function reached again inside itself is not counted twice.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

__all__ = ['PER_LAYER', 'Tracer']

# span name -> (module, attribute) pairs that the callers resolve
SPANS = {
    'qrkit.verify_thm1': (('qrkit', 'verify_thm1'),),
    'qrkit.verify_thm4_chain': (('qrkit', 'verify_thm4_chain'),),
    'qrkit.phi_connected': (('qrkit', 'phi_connected'),),
    'qrkit.preorder_connected': (('qrkit', 'preorder_connected'),),
    'jdt.partial_evacuate': (('jdt', 'partial_evacuate'),
                             ('qrkit', 'partial_evacuate')),
    'jdt.promote': (('jdt', 'promote'), ('qrkit', 'promote')),
    'specht.matrix_of': (('specht', 'matrix_of'), ('qrkit', 'matrix_of')),
    'specht.generator_matrix': (('specht', 'generator_matrix'),),
    'specht.mat_mul': (('specht', 'mat_mul'), ('qrkit', 'mat_mul')),
    'hecke.kl_polynomial': (('hecke', 'kl_polynomial'),),
    'hecke.mu': (('hecke', 'mu'),),
    'hecke.mu_tableaux': (('hecke', 'mu_tableaux'),),
    'rsk.column_word': (('rsk', 'column_word'), ('hecke', 'column_word')),
    'symgroup.reduced_word': (('symgroup', 'reduced_word'),
                              ('specht', 'reduced_word')),
}

# count-only: far too many calls for a span each
COUNTERS = {
    'tableaux.check_standard': (('tableaux', 'check_standard'),
                                ('jdt', 'check_standard'),
                                ('rsk', 'check_standard')),
}

# time spent measuring inside a span; subtracted from its parent's self
# time and never reported
_BOOKKEEPING = 'trace.bookkeeping'

# per-layer metric -> unit, in the order they are printed
PER_LAYER = {
    'qrkit.exact_qr.calls': 'count',
    'qrkit.exact_qr.s': 's',
    'qrkit.exact_qr.d3_sum': 'count',
    'qrkit.exact_qr.max_bits': 'bits',
    'qrkit.verify_thm1.self_s': 's',
    'qrkit.verify_thm4_chain.self_s': 's',
    'qrkit.phi_connected.calls': 'count',
    'qrkit.phi_connected.s': 's',
    'qrkit.preorder_connected.calls': 'count',
    'qrkit.preorder_connected.s': 's',
    'jdt.partial_evacuate.calls': 'count',
    'jdt.partial_evacuate.s': 's',
    'jdt.promote.calls': 'count',
    'jdt.promote.s': 's',
    'specht.matrix_of.calls': 'count',
    'specht.matrix_of.self_s': 's',
    'specht.generator_matrix.calls': 'count',
    'specht.generator_matrix.self_s': 's',
    'specht.mat_mul.calls': 'count',
    'specht.mat_mul.s': 's',
    'hecke.tables.s': 's',
    'hecke.tables.bytes': 'bytes',
    'hecke.mu_tableaux.calls': 'count',
    'hecke.mu_tableaux.s': 's',
    'rsk.column_word.calls': 'count',
    'rsk.column_word.s': 's',
    'hecke.kl_polynomial.calls': 'count',
    'hecke.kl_polynomial.s': 's',
    'hecke.mu.calls': 'count',
    'hecke.mu.s': 's',
    'hecke.kl_memo.entries': 'count',
    'hecke.mu_memo.entries': 'count',
    'tableaux.check_standard.calls': 'count',
    'symgroup.reduced_word.calls': 'count',
    'symgroup.reduced_word.s': 's',
    'trace.overhead_frac': 'frac',
}


def _max_bits(fact) -> int:
    """Largest numerator or denominator bit length in Q and R."""
    best = 0
    for mat in (fact.q, fact.r):
        for row in mat:
            for x in row:
                best = max(best, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return best


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name = array('H')
        self.parent = array('i')
        self.start = array('d')
        self.end = array('d')
        self.outer = array('b')
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.qr_d3 = 0
        self.qr_bits = 0
        self.built_tables: list[int] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, outer = (
            self.name, self.parent, self.start, self.end, self.outer)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[nid] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, mods, targets, name: str, make) -> None:
        made: dict[int, object] = {}
        for mod_name, attr in targets:
            mod = mods[mod_name]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f'{mod_name}.{attr}')
                continue
            if id(orig) not in made:
                made[id(orig)] = make(name, orig)
            setattr(mod, attr, made[id(orig)])

    def install(self, mods) -> None:
        """Patch the wrappers into `mods`, a dict of klspecht modules."""
        for name, targets in SPANS.items():
            self._patch(mods, targets, name, self.span)
        for name, targets in COUNTERS.items():
            self._patch(mods, targets, name, self.counter)
        self._patch(mods, (('qrkit', 'exact_qr'),), 'qrkit.exact_qr',
                    self._measured_qr)
        self._patch(mods, (('hecke', 'tables'),), 'hecke.tables',
                    self._first_build)

    def _measured_qr(self, name: str, fn):
        qr = self.span(name, fn)
        bits = self.span(_BOOKKEEPING, _max_bits)

        def wrapper(m):
            self.qr_d3 += len(m) ** 3
            fact = qr(m)
            self.qr_bits = max(self.qr_bits, bits(fact))
            return fact

        wrapper.__wrapped__ = fn
        return wrapper

    def _first_build(self, name: str, fn):
        """Span only the call that builds tables(n); later calls are
        cache hits and would only add wrapper cost to every query."""
        build = self.span(name, fn)
        built = self.built_tables

        def wrapper(n):
            if n in built:
                return fn(n)
            out = build(n)
            built.append(n)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def layers(self, hecke) -> dict[str, float]:
        """Per-layer metrics, without `trace.overhead_frac`."""
        count = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
            if self.outer[i]:
                incl[nid] += dur[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f'{name}.calls'] = calls[nid]
            out[f'{name}.s'] = incl[nid]
            out[f'{name}.self_s'] = own[nid]
        for name, cell in self.counts.items():
            out[f'{name}.calls'] = cell[0]
        out['qrkit.exact_qr.d3_sum'] = self.qr_d3
        out['qrkit.exact_qr.max_bits'] = self.qr_bits
        kl = mu = size = 0
        for n in self.built_tables:
            tab = hecke.tables(n)
            kl += len(getattr(tab, 'kl_memo', ()))
            mu += len(getattr(tab, 'mu_memo', ()))
            size += sum((b.bit_length() + 7) // 8
                        for b in getattr(tab, 'down', ()))
        out['hecke.kl_memo.entries'] = kl
        out['hecke.mu_memo.entries'] = mu
        out['hecke.tables.bytes'] = size
        return {name: out.get(name, 0) for name in PER_LAYER
                if name != 'trace.overhead_frac'}

    def write(self, path: Path) -> None:
        """One JSON header line, then the name (u16), parent (i32), start
        and end (f64, perf_counter seconds) arrays, in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {'names': self.names, 'count': len(self.start),
                  'arrays': ['name:H', 'parent:i', 'start:d', 'end:d']}
        with open(path, 'wb') as fh:
            fh.write(json.dumps(header).encode() + b'\n')
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
