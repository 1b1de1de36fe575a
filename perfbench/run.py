"""klspecht benchmark: time verify sweeps and KL queries end to end, or
trace them per module.

    python3 perfbench/run.py --workload thm1-n7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each repetition of a workload runs in a fresh interpreter (worker.py), so
`hecke.tables` and the `specht` cell caches start cold, as they do for a
user's command.  Repetitions fill about --seconds (at least one);
end-to-end metrics are medians over repetitions, and set-up is sampled
at least MIN_SETUP_SAMPLES times.  Times are scaled to a reference
machine speed (see REFERENCE_PROBE_S); the unscaled wall times are
printed too.  With --trace 1 the run alternates untraced and traced
repetitions and reports per-layer metrics instead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable summary with provenance.  A copy of the full result goes to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / '.perfbench-out'
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# the workloads BENCHMARK.json gates on; `--workload all` also runs the
# two that were too unsteady on a shared 2-core machine to gate on
BENCHMARK_WORKLOADS = ('thm1-n7', 'thm4-n6')
ALL_WORKLOADS = BENCHMARK_WORKLOADS + ('branching-n8', 'kl-queries-s7')

END_TO_END = {
    'setup_s': 's',
    'run_s': 's',
    'item_p50_ms': 'ms',
    'item_tail_ms': 'ms',
    'peak_rss_mb': 'MB',
}

MIN_SETUP_SAMPLES = 5
# What worker.probe() takes on the machine the benchmark was defined on
# (2 shared cores, Intel Xeon, Python 3.11.7) at its usual speed.  Every
# time metric of a repetition is scaled by REFERENCE_PROBE_S / (its mean
# probe time), i.e. reported in seconds at that reference speed.
REFERENCE_PROBE_S = 0.02
# a run must end within 180 s; stop starting repetitions well before
BUDGET_S = 150.0


def latency_summary(latencies: list[float]) -> dict:
    """Median item latency and the tail: the highest percentile that
    still has ten items beyond it, i.e. the eleventh-slowest item."""
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        'items': count,
        'item_p50_ms': statistics.median(ordered) * 1e3,
        'item_tail_ms': ordered[max(count - 11, 0)] * 1e3,
        'tail_pct': 100 * max(count - 10, 1) / count,
    }


class BenchError(RuntimeError):
    pass


def provenance(workload: str, seed: int, latency: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    cpu = line.split(':', 1)[1].strip()
                    break
    except OSError:
        pass
    return {'nproc': os.cpu_count(), 'cpu': cpu,
            'python': platform.python_version(),
            'workload': workload, 'seed': seed, 'items': latency['items'],
            'tail_percentile': round(latency['tail_pct'], 4)}


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / 'worker.py'),
           '--workload', workload, '--seed', str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED='0')
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError('out of time before a repetition could start')
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f'{workload} repetition overran the time budget') from None
    if proc.returncode != 0:
        raise BenchError(f'worker exited {proc.returncode}:\n{proc.stderr.strip()}')
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: float, trace: bool,
                deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced (and with trace, traced) repetitions for about `seconds`.

    Another repetition starts only if it would end less than half a
    repetition past `seconds`, so a workload whose repetition is longer
    than `seconds` runs once.  The first untraced repetition also runs the
    correctness gate; later ones must reproduce its outputs exactly.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    spans_path = OUT / f'spans-{workload}.bin'
    while True:
        began = time.monotonic()
        flags = ['--gate'] if not plain else []
        plain.append(spawn(workload, seed, deadline, *flags))
        if trace:
            traced.append(spawn(workload, seed, deadline, '--trace',
                                '--spans', str(spans_path)))
        now = time.monotonic()
        last = now - began
        if now + last / 2 >= start + seconds or now + last > start + BUDGET_S:
            break
    return plain, traced


def scale(rep: dict) -> float:
    """Factor that turns a repetition's wall seconds into seconds at the
    reference speed, from the speed probes timed in that process."""
    return REFERENCE_PROBE_S / rep['probe_s']


def end_to_end(plain: list[dict], setup_reps: list[dict], scaled: bool) -> tuple[dict, dict]:
    """End-to-end metrics, scaled to the reference speed or as wall time.

    Item latencies are first reduced to each item's median over the
    repetitions, so that one disturbed repetition does not move an item
    across a percentile.
    """
    def f(rep):
        return scale(rep) if scaled else 1.0

    per_item = [statistics.median(lat * f(r) for lat, r in zip(item, plain))
                for item in zip(*(r['latencies'] for r in plain))]
    latency = latency_summary(per_item)
    return {
        'setup_s': statistics.median(r['setup_s'] * f(r) for r in setup_reps),
        'run_s': statistics.median(r['run_s'] * f(r) for r in plain),
        'item_p50_ms': latency['item_p50_ms'],
        'item_tail_ms': latency['item_tail_ms'],
        'peak_rss_mb': statistics.median(r['peak_rss_mb'] for r in plain),
    }, latency


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions, times scaled."""
    layers = {}
    for name, unit in spans.PER_LAYER.items():
        if name != 'trace.overhead_frac':
            layers[name] = statistics.median(
                r['layers'][name] * (scale(r) if unit == 's' else 1) for r in traced)
    layers['trace.overhead_frac'] = (
        statistics.median(r['run_s'] * scale(r) for r in traced)
        / statistics.median(r['run_s'] * scale(r) for r in plain) - 1)
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S + 20
    plain, traced = repetitions(workload, seed, seconds, trace, deadline)
    reps = plain + traced
    attempted = sum(r['attempted'] for r in reps)
    failed = sum(r['failed'] for r in reps)
    reasons = [why for r in reps for why in r['reasons']]
    for r in reps[1:]:
        if r['outputs_digest'] != plain[0]['outputs_digest']:
            failed += r['attempted']
            reasons.append('a repetition produced different outputs')
    failed = min(failed, attempted)

    setup_reps = list(plain)
    if not trace:
        while len(setup_reps) < MIN_SETUP_SAMPLES:
            setup_reps.append(spawn(workload, seed, deadline, '--setup-only'))
    metrics, latency = end_to_end(plain, setup_reps, scaled=True)
    wall, _ = end_to_end(plain, setup_reps, scaled=False)
    if trace:
        metrics, units = per_layer(plain, traced), spans.PER_LAYER
    else:
        units = END_TO_END
    return {
        'provenance': provenance(workload, seed, latency),
        'repetitions': len(plain),
        'attempted': attempted,
        'failed': failed,
        'failed_frac': failed / attempted,
        'reasons': reasons[:10],
        'metrics': {k: {'value': metrics[k], 'unit': u} for k, u in units.items()},
        'wall': wall,
        'probe_s': statistics.median(r['probe_s'] for r in plain),
        'missing_wrappers': sorted({m for r in traced for m in r['missing_wrappers']}),
        'repetition_results': reps,
        'setup_only_results': setup_reps[len(plain):],
    }


def summary_lines(result: dict) -> list[str]:
    prov = result['provenance']
    lines = [
        f"# {prov['workload']} seed={prov['seed']} "
        f"repetitions={result['repetitions']} items/repetition={prov['items']} "
        f"item_tail_ms=p{prov['tail_percentile']:.4g}",
        '# provenance ' + json.dumps(prov, sort_keys=True),
    ]
    for name, m in result['metrics'].items():
        lines.append(f"{name:32s} {m['value']:.6g} {m['unit']}")
    lines.append('# unscaled wall: ' + ' '.join(
        f'{k}={v:.6g}' for k, v in result['wall'].items() if k != 'peak_rss_mb'))
    lines.append(f"# speed probe: {result['probe_s']:.4g} s "
                 f"(reference {REFERENCE_PROBE_S} s)")
    lines.append(f"{'failed_frac':32s} {result['failed_frac']:.6g} "
                 f"({result['failed']}/{result['attempted']})")
    for why in result['reasons']:
        lines.append(f'# gate: {why}')
    if result.get('missing_wrappers'):
        lines.append('# not wrapped (gone from the program): '
                     + ', '.join(result['missing_wrappers']))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description='klspecht benchmark')
    parser.add_argument('--workload', required=True,
                        choices=sorted(workloads.WORKLOADS) + ['all'])
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=40.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print('error: the program checks its invariants with assert, which '
              '-O removes; run without -O / PYTHONOPTIMIZE', file=sys.stderr)
        return 2
    if not (ROOT / 'src' / 'klspecht' / '__init__.py').is_file():
        print(f'error: no klspecht sources under {ROOT / "src"}', file=sys.stderr)
        return 2

    names = ALL_WORKLOADS if args.workload == 'all' else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            OUT.mkdir(exist_ok=True)
            path = OUT / f'result-{name}-seed{args.seed}-trace{args.trace}.json'
            path.write_text(json.dumps(result, indent=1, sort_keys=True) + '\n')
            print('\n'.join(summary_lines(result)), flush=True)
            results.append(result)
    except BenchError as err:
        print(f'error: {err}', file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]['metrics']
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": m
                   for r in results for k, m in r['metrics'].items()}
    failed = sum(r['failed'] for r in results)
    print(json.dumps({
        'correct': failed == 0,
        'attempted': sum(r['attempted'] for r in results),
        'failed': failed,
        'metrics': metrics,
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
