"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only] [--trace] [--gate] [--spans PATH]

Set-up runs from before `import klspecht` to the point where
`hecke.tables(n)` exists for every n the workload touches; the body then
runs every item once, timing each.  Speed probes (a fixed stdlib loop)
run after set-up, between items every PROBE_EVERY_S, and after the body;
run_s leaves their time out.  The worker prints one JSON object of raw
wall times and the mean probe time on stdout.  `run.py` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / 'reference.json'

_FAILURE_SAMPLE = 5


# the body pauses for a speed probe at the first item boundary after
# every PROBE_EVERY_S; set-up is followed by PROBES_AFTER probes
PROBE_EVERY_S = 0.5
PROBES_AFTER = 5


def probe() -> float:
    """Seconds for a fixed stdlib loop of Fraction, big-int and dict work
    (about 20 ms) that never touches klspecht.  Timed between the items
    of the body, it samples how fast the shared machine runs the
    interpreter while the body runs."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 700):
            acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
            table[i] = acc.numerator.bit_length()
    return time.perf_counter() - start


def modules() -> dict:
    """klspecht's modules by name; the first call pays the package import."""
    from klspecht import hecke, jdt, qrkit, rsk, specht, symgroup, tableaux
    return {'hecke': hecke, 'jdt': jdt, 'qrkit': qrkit, 'rsk': rsk,
            'specht': specht, 'symgroup': symgroup, 'tableaux': tableaux}


def gate(workload, ks, state, keys, outputs, reference) -> tuple[set[int], list[str]]:
    """Failed item indices and a few reasons.

    An item fails when it raised or its check did not pass.  With a
    `reference` (the digests recorded at the parent commit) it also fails
    when an output it contributed to differs from the reference or from
    the independent oracle.
    """
    failed: set[int] = set()
    reasons: list[str] = []
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failed.add(i)
            reasons.append(f'item {i} ({keys[i]}) raised {out!r}')
        elif getattr(out, 'passed', True) is not True:
            failed.add(i)
            reasons.append(f'item {i} ({keys[i]}) failed its check')
    if reference is None:
        return failed, reasons[:_FAILURE_SAMPLE]
    try:
        prints = workload.fingerprints(ks, state, keys, outputs)
    except Exception as err:  # the program broke after its own run
        failed.update(range(len(outputs)))
        reasons.append(f'fingerprints raised {err!r}')
        prints = {}
    for ref_key, value in prints.items():
        expect = reference.get(ref_key)
        if expect is not None and value != expect:
            # a per-shape digest fails that shape's items; the kl answers
            # digest covers no single group and fails every item
            group = ref_key.split('/', 1)[1]
            hit = [i for i, k in enumerate(keys) if k[0] == group]
            failed.update(hit or range(len(outputs)))
            reasons.append(f'{ref_key}: digest {value} != recorded {expect}')
    if hasattr(workload, 'oracle_failures'):
        bad = workload.oracle_failures(ks, state, outputs)
        failed.update(bad)
        reasons.extend(f'item {i} ({keys[i]}) disagrees with kl_oracle' for i in bad)
    return failed, reasons[:_FAILURE_SAMPLE]


def run_rep(name: str, seed: int, *, setup_only: bool = False,
            trace: bool = False, do_gate: bool = False,
            spans_path: Path | None = None, corrupt=None) -> dict:
    """One repetition.  `corrupt(ks, outputs)`, a self-test hook, may
    damage the outputs or the program's caches before the gate runs."""
    workload = workloads.WORKLOADS[name]
    sys.path.insert(0, str(ROOT / 'src'))
    t0 = time.perf_counter()
    mods = modules()
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install(mods)
    for n in workload.table_ns:
        mods['hecke'].tables(n)
    setup_s = time.perf_counter() - t0
    probes = [probe() for _ in range(PROBES_AFTER)]
    result = {'workload': name, 'seed': seed, 'setup_s': setup_s,
              'probe_s': sum(probes) / len(probes)}
    if setup_only:
        return result

    ks = types.SimpleNamespace(**mods)
    state = workload.prepare(ks, seed)
    keys: list[tuple] = []
    outputs: list = []
    latencies: list[float] = []
    clock = time.perf_counter
    paused = 0.0
    next_probe = clock() + PROBE_EVERY_S

    def timed(key, fn, *args):
        nonlocal paused, next_probe
        start = clock()
        if start >= next_probe:
            probes.append(probe())
            next_probe = clock() + PROBE_EVERY_S
            paused += next_probe - PROBE_EVERY_S - start
            start = clock()
        try:
            out = fn(*args)
        except Exception as err:  # an item that raises is a failed item
            out = err
        latencies.append(clock() - start)
        keys.append(key)
        outputs.append(out)

    start = clock()
    workload.body(ks, state, timed)
    result['run_s'] = clock() - start - paused
    result['peak_rss_mb'] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result['latencies'] = latencies
    probes.extend(probe() for _ in range(PROBES_AFTER))
    result['probe_s'] = sum(probes) / len(probes)
    result['probes'] = len(probes)

    if tracer is not None:
        result['layers'] = tracer.layers(mods['hecke'])
        result['missing_wrappers'] = tracer.missing
        if spans_path is not None:
            tracer.write(spans_path)

    if corrupt is not None:
        corrupt(ks, outputs)
    records = [repr(o) if isinstance(o, Exception) else workloads.output_record(o)
               for o in outputs]
    result['outputs_digest'] = workloads.digest(records)
    reference = json.loads(REFERENCE.read_text()) if do_gate else None
    failed, reasons = gate(workload, ks, state, keys, outputs, reference)
    result.update(attempted=len(outputs), failed=len(failed), reasons=reasons)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--setup-only', action='store_true')
    parser.add_argument('--trace', action='store_true')
    parser.add_argument('--gate', action='store_true')
    parser.add_argument('--spans', type=Path, default=None)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print('error: the program checks its invariants with assert; '
              'run without -O / PYTHONOPTIMIZE', file=sys.stderr)
        return 2
    result = run_rep(args.workload, args.seed, setup_only=args.setup_only,
                     trace=args.trace, do_gate=args.gate, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
