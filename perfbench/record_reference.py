"""Record the digests that the correctness gate compares against.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted (the reference in
reference.json was recorded at the commit that added this benchmark).
It runs thm4-n6, branching-n8 and kl-queries-s7 with the pinned seed,
refuses to record if any check fails, and rewrites reference.json.
"""

from __future__ import annotations

import json
import sys
import types

import worker
import workloads

RECORDED = ('thm4-n6', 'branching-n8', 'kl-queries-s7')


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / 'src'))
    ks = types.SimpleNamespace(**worker.modules())
    reference: dict[str, str] = {}
    for name in RECORDED:
        workload = workloads.WORKLOADS[name]
        state = workload.prepare(ks, workloads.PINNED_SEED)
        keys: list[tuple] = []
        outputs: list = []

        def timed(key, fn, *args):
            keys.append(key)
            outputs.append(fn(*args))

        workload.body(ks, state, timed)
        failed, reasons = worker.gate(workload, ks, state, keys, outputs, {})
        if failed:
            print(f'{name}: {len(failed)} items fail; not recording', *reasons,
                  sep='\n', file=sys.stderr)
            return 1
        prints = workload.fingerprints(ks, state, keys, outputs)
        reference.update(prints)
        print(f'{name}: {len(outputs)} items, {len(prints)} digests')
    path = worker.REFERENCE
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + '\n')
    print(f'wrote {path.name}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
