"""Self-test of the benchmark at tiny sizes (n <= 4); about 15 s.

    python3 perfbench/selftest.py

It checks that the workloads run the checks the CLI sweeps run, that
run.py prints every metric of BENCHMARK.json with its unit, that the
correctness gate fires on corrupted outputs, and that run.py refuses
`python -O` and a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

import run
import worker
import workloads

ROOT = run.ROOT
TINY = ('thm1-n4', 'thm4-n4', 'branching-n4', 'kl-queries-s4')
SEED = 3


def _program():
    sys.path.insert(0, str(ROOT / 'src'))
    from klspecht import cli
    return cli, types.SimpleNamespace(**worker.modules())


def _run_bench(*args: str, cwd: Path = ROOT, python=(sys.executable,)):
    return subprocess.run([*python, 'perfbench/run.py', *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class ItemsMatchCli(unittest.TestCase):
    """The benchmark's items are the reports the CLI's sweep jobs make."""

    def _records(self, name: str) -> dict[str, list]:
        cli, ks = _program()
        workload = workloads.WORKLOADS[name]
        state = workload.prepare(ks, SEED)
        keys, outputs = [], []

        def timed(key, fn, *args):
            keys.append(key)
            outputs.append(fn(*args))

        workload.body(ks, state, timed)
        return cli, workloads.by_group(keys, outputs)

    def _cli_records(self, job, shapes):
        return {','.join(map(str, s)): [r.record() for r in job(s)] for s in shapes}

    def test_thm1(self):
        cli, got = self._records('thm1-n4')
        shapes = [s for n in range(2, 5) for s in cli.tableaux.partitions(n)]
        want = self._cli_records(lambda s: cli._thm1_job((s, SEED)), shapes)
        self.assertEqual(got, want)

    def test_thm4(self):
        cli, got = self._records('thm4-n4')
        shapes = [s for n in range(2, 5) for s in cli.tableaux.partitions(n)]
        self.assertEqual(got, self._cli_records(cli._thm4_job, shapes))

    def test_branching(self):
        cli, got = self._records('branching-n4')
        shapes = [s for n in range(2, 5) for s in cli.tableaux.partitions(n)]
        self.assertEqual(got, self._cli_records(cli._branching_job, shapes))


class MetricsPrinted(unittest.TestCase):
    """Every metric of BENCHMARK.json prints by name with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / 'BENCHMARK.json').read_text())

    def _check(self, trace: int, section: str):
        want = {m['name']: m['unit'] for m in self.spec[section]}
        for name in TINY:
            proc = _run_bench('--workload', name, '--seed', str(SEED),
                              '--seconds', '0', '--trace', str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result), ['attempted', 'correct', 'failed', 'metrics'])
            self.assertTrue(result['correct'])
            self.assertEqual(result['failed'], 0)
            self.assertGreaterEqual(result['attempted'], 1)
            got = {k: m['unit'] for k, m in result['metrics'].items()}
            self.assertEqual(got, want)
            for k, m in result['metrics'].items():
                self.assertIsInstance(m['value'], (int, float), k)
                self.assertTrue(any(line.startswith(k + ' ') and line.endswith(m['unit'])
                                    for line in lines), k)
            self.assertTrue(any(line.startswith('failed_frac ') for line in lines))
            self.assertTrue(any(line.startswith('# provenance ') for line in lines))

    def test_end_to_end(self):
        self._check(0, 'end_to_end')
        self.assertEqual(set(run.END_TO_END) | {'setup_s'},
                         {m['name'] for m in self.spec['end_to_end']})

    def test_per_layer(self):
        self._check(1, 'per_layer')

    def test_workloads_listed(self):
        self.assertEqual([w['name'] for w in self.spec['workloads']],
                         list(run.BENCHMARK_WORKLOADS))


class GateFires(unittest.TestCase):
    """A deliberately corrupted result gives failed_frac > 0."""

    def _failed_frac(self, name: str, corrupt) -> float:
        result = worker.run_rep(name, SEED, do_gate=True, corrupt=corrupt)
        return result['failed'] / result['attempted']

    def test_clean_runs_pass(self):
        for name in TINY:
            self.assertEqual(self._failed_frac(name, None), 0, name)

    def test_check_not_passing(self):
        def corrupt(ks, outputs):
            outputs[5].passed = False
        self.assertGreater(self._failed_frac('thm1-n4', corrupt), 0)

    def test_item_raising(self):
        def corrupt(ks, outputs):
            outputs[1] = RuntimeError('corrupted')
        self.assertGreater(self._failed_frac('thm1-n4', corrupt), 0)

    def test_thm4_record_digest(self):
        def corrupt(ks, outputs):
            outputs[-1].witness['w'] = list(reversed(outputs[-1].witness['w']))
        self.assertGreater(self._failed_frac('thm4-n4', corrupt), 0)

    def test_branching_matrix_digest(self):
        changed = []

        def corrupt(ks, outputs):
            cell = ks.specht.cell((3, 1))
            key = next(k for k, v in cell._mu.items() if v)
            changed.append((cell, key, cell._mu[key]))
            cell._mu[key] += 1

        try:
            self.assertGreater(self._failed_frac('branching-n4', corrupt), 0)
        finally:
            for cell, key, value in changed:
                cell._mu[key] = value

    def test_kl_answer_against_oracle(self):
        def corrupt(ks, outputs):
            outputs[0] = (1, 1) if outputs[0] == (1,) else (1,)
        self.assertGreater(self._failed_frac('kl-queries-s4', corrupt), 0)

    def test_kl_pinned_digest(self):
        reference = json.loads(worker.REFERENCE.read_text())
        self.assertIn(f'kl-queries-s7/seed{workloads.PINNED_SEED}', reference)


class TailPercentile(unittest.TestCase):
    def test_ten_items_beyond(self):
        for count in (20, 130, 473, 3000, 3122):
            summary = run.latency_summary([i / 1e3 for i in range(count)])
            self.assertEqual(summary['item_tail_ms'], count - 11)
            self.assertAlmostEqual(summary['tail_pct'], 100 * (count - 10) / count)


class Refusals(unittest.TestCase):
    def test_optimize_refused(self):
        proc = _run_bench('--workload', 'thm1-n4', '--seed', '0', '--seconds', '0',
                          '--trace', '0', python=(sys.executable, '-O'))
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, '')

    def test_without_program(self):
        bare = run.OUT / 'selftest-bare'
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / 'perfbench',
                            ignore=shutil.ignore_patterns('__pycache__'))
            shutil.copy(ROOT / 'BENCHMARK.json', bare)
            proc = _run_bench('--workload', 'thm1-n7', '--seed', '0', '--seconds', '10',
                              '--trace', '0', cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, '')
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == '__main__':
    if sys.flags.optimize:
        sys.exit('run the self-test without -O')
    unittest.main()
