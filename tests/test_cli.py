import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from klspecht import cli, hecke, specht, symgroup, tableaux
from klspecht.cli import run
from klspecht.tableaux import partitions


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_syt_listing(capsys):
    code, out, _ = invoke(capsys, 'syt', '2,1')
    assert code == 0
    assert out.splitlines() == ['1,3/2', '1,2/3']


def test_promotion_commands(capsys):
    code, out, _ = invoke(capsys, 'pr', '1,3,4/2,5')
    assert code == 0
    assert out.strip() == '1,2,5/3,4'
    code, out, _ = invoke(capsys, 'ev', '1,3,4/2,5')
    assert code == 0
    assert out.strip() == '1,3,4/2,5'
    code, out, _ = invoke(capsys, 'evk', '1,3,4/2,5', '4')
    assert code == 0
    assert out.strip() == '1,2,3/4,5'


def test_rsk_commands(capsys):
    code, out, _ = invoke(capsys, 'rsk', '85162734')
    assert code == 0
    assert out.splitlines() == [
        'P: 1,2,3,4/5,6,7/8',
        'Q: 1,4,6,8/2,5,7/3',
    ]
    code, out, _ = invoke(
        capsys, 'rsk-inv', '1,2,3,4/5,6,7/8', '1,4,6,8/2,5,7/3'
    )
    assert code == 0
    assert out.strip() == '8,5,1,6,2,7,3,4'


def test_css_commands(capsys):
    code, out, _ = invoke(capsys, 'css', '4,3,1')
    assert code == 0
    assert out.strip() == '1,4,6,8/2,5,7/3'
    code, out, _ = invoke(capsys, 'css', '4,3,1', '2')
    assert code == 0
    assert out.strip() == '1,4,6,7/2,5,8/3'


def test_polynomial_commands(capsys):
    code, out, _ = invoke(capsys, 'klpoly', '1324', '3412')
    assert code == 0
    assert out.strip() == '1+q'
    code, out, _ = invoke(capsys, 'mu', '1324', '3412')
    assert code == 0
    assert out.strip() == '1'
    code, out, _ = invoke(capsys, 'mu-tab', '2,1', '1,2/3', '1,3/2')
    assert code == 0
    assert out.strip() == '1'


def test_matrix_command_with_long_cycle_literal(capsys):
    code, out, _ = invoke(capsys, 'matrix', '2,1', 'c')
    assert code == 0
    assert out.splitlines() == ['0 -1', '1 -1']
    code, out, _ = invoke(capsys, 'matrix', '2,1', '321')
    assert code == 0
    assert out.splitlines() == ['0 -1', '-1 0']


# The whole output of `qr`, Q and R blocks included, pinned byte for byte.
_QR_M = ['0 0 0 1 0 0', '0 0 0 0 1 0', '1 0 0 -1 1 0',
         '0 0 0 0 0 1', '0 1 0 -1 0 1', '0 0 1 0 -1 1']
_QR_Q = ['0 0 0 1 0 0', '0 0 0 0 1 0', '1 0 0 0 0 0',
         '0 0 0 0 0 1', '0 1 0 0 0 0', '0 0 1 0 0 0']
_QR_R = ['1 0 0 -1 1 0', '0 1 0 -1 0 1', '0 0 1 0 -1 1',
         '0 0 0 1 0 0', '0 0 0 0 1 0', '0 0 0 0 0 1']


def test_qr_command_prints_all_three_matrices(capsys):
    code, out, _ = invoke(capsys, 'qr', '3,1,1', 'c')
    assert code == 0
    assert out == '\n'.join(['M', *_QR_M, 'Q', *_QR_Q, 'R', *_QR_R, ''])
    code, out, _ = invoke(capsys, '--format', 'structured', 'qr', '3,1,1', 'c')
    assert code == 0
    assert out == (
        '{"command": "qr", "result": {'
        '"m": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [1, 0, 0, -1, 1, 0], '
        '[0, 0, 0, 0, 0, 1], [0, 1, 0, -1, 0, 1], [0, 0, 1, 0, -1, 1]], '
        '"q": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0], '
        '[0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], '
        '"r": [[1, 0, 0, -1, 1, 0], [0, 1, 0, -1, 0, 1], [0, 0, 1, 0, -1, 1], '
        '[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]}, '
        '"shape": [3, 1, 1], "w": [2, 3, 4, 5, 1]}\n')


def test_qr_failure_exits_one(capsys):
    error = 'column 0: squared norm 2 is not a rational square'
    for w in ('2,4,1,3', '2413'):
        code, out, err = invoke(capsys, 'qr', '3,1', w)
        assert (code, out, err) == (1, f'no rational QR: {error}\n', '')
    code, out, _ = invoke(capsys, '--format', 'structured', 'qr', '3,1', '2413')
    assert code == 1
    assert out == (f'{{"command": "qr", "error": "{error}", "result": null, '
                   '"shape": [3, 1], "w": [2, 4, 1, 3]}\n')


def test_matrix_and_qr_of_c_and_w0_are_pinned(capsys):
    """One sha256 over the exit code and structured output of `matrix` and
    `qr` for every shape of 2 <= n <= 7, at the long cycle and at w0."""
    digest = hashlib.sha256()
    for n in range(2, 8):
        w0 = ''.join(map(str, range(n, 0, -1)))
        for shape in partitions(n):
            for w in ('c', w0):
                for command in ('matrix', 'qr'):
                    code, out, err = invoke(capsys, '--format', 'structured',
                                            command, ','.join(map(str, shape)), w)
                    assert err == ''
                    digest.update(f'{code}\n{out}'.encode())
    assert digest.hexdigest() == (
        'c350183e499d54408d9e45af7e1dd803741a238a9b9d43f8aaad7ac0d7f985e7')


# Each compute command's whole output in text and structured mode, pinned
# byte for byte: (argv, text stdout, structured stdout); each exits 0 and
# writes nothing to stderr.
_PINNED = [
    (('syt', '3,1'), '1,3,4/2\n1,2,4/3\n1,2,3/4\n',
     '{"command": "syt", "result": ["1,3,4/2", "1,2,4/3", "1,2,3/4"], '
     '"shape": [3, 1]}\n'),
    (('pr', '1,3,4/2,5'), '1,2,5/3,4\n',
     '{"command": "pr", "result": "1,2,5/3,4", "tableau": "1,3,4/2,5"}\n'),
    (('ev', '1,3,4/2,5'), '1,3,4/2,5\n',
     '{"command": "ev", "result": "1,3,4/2,5", "tableau": "1,3,4/2,5"}\n'),
    (('evk', '1,3,4/2,5', '4'), '1,2,3/4,5\n',
     '{"command": "evk", "k": 4, "result": "1,2,3/4,5", '
     '"tableau": "1,3,4/2,5"}\n'),
    (('rsk', '85162734'), 'P: 1,2,3,4/5,6,7/8\nQ: 1,4,6,8/2,5,7/3\n',
     '{"command": "rsk", "result": {"p": "1,2,3,4/5,6,7/8", '
     '"q": "1,4,6,8/2,5,7/3"}, "word": [8, 5, 1, 6, 2, 7, 3, 4]}\n'),
    (('rsk-inv', '1,2,3,4/5,6,7/8', '1,4,6,8/2,5,7/3'), '8,5,1,6,2,7,3,4\n',
     '{"command": "rsk-inv", "result": [8, 5, 1, 6, 2, 7, 3, 4]}\n'),
    (('css', '4,3,1'), '1,4,6,8/2,5,7/3\n',
     '{"command": "css", "i": null, "result": "1,4,6,8/2,5,7/3", '
     '"shape": [4, 3, 1]}\n'),
    (('css', '4,3,1', '2'), '1,4,6,7/2,5,8/3\n',
     '{"command": "css", "i": 2, "result": "1,4,6,7/2,5,8/3", '
     '"shape": [4, 3, 1]}\n'),
    (('klpoly', 'c', '3412'), '0\n',
     '{"coefficients": [], "command": "klpoly", "result": "0", '
     '"v": [2, 3, 4, 1], "w": [3, 4, 1, 2]}\n'),
    (('mu', '1324', '3412'), '1\n',
     '{"command": "mu", "result": 1, "v": [1, 3, 2, 4], '
     '"w": [3, 4, 1, 2]}\n'),
    (('mu-tab', '2,1', '1,2/3', '1,3/2'), '1\n',
     '{"command": "mu-tab", "r": "1,3/2", "result": 1, "shape": [2, 1], '
     '"t": "1,2/3"}\n'),
    (('matrix', '2,1', 'c'), '0 -1\n1 -1\n',
     '{"command": "matrix", "result": [[0, -1], [1, -1]], "shape": [2, 1], '
     '"w": [2, 3, 1]}\n'),
]


@pytest.mark.parametrize('argv, text, structured', _PINNED,
                         ids=[' '.join(case[0]) for case in _PINNED])
def test_compute_command_output_is_pinned(capsys, argv, text, structured):
    assert invoke(capsys, *argv) == (0, text, '')
    assert invoke(capsys, '--format', 'structured', *argv) == (0, structured, '')


def test_unknown_command_lists_the_commands_in_parser_order(capsys, monkeypatch):
    monkeypatch.setenv('COLUMNS', '80')
    assert invoke(capsys, 'no-such-command') == (2, '', (
        'usage: klspecht [-h] [--format {text,structured}] [--seed SEED] '
        '[--jobs JOBS]\n'
        '                {syt,pr,ev,evk,rsk,rsk-inv,css,klpoly,mu,mu-tab,'
        'matrix,qr,verify}\n'
        '                ...\n'
        "klspecht: error: argument command: invalid choice: 'no-such-command' "
        "(choose from 'syt', 'pr', 'ev', 'evk', 'rsk', 'rsk-inv', 'css', "
        "'klpoly', 'mu', 'mu-tab', 'matrix', 'qr', 'verify')\n"))


def test_verify_counterexample(capsys):
    code, out, _ = invoke(capsys, 'verify', 'counterexample')
    assert code == 0
    assert 'PASS counterexample' in out


def test_verify_thm1_smallest(capsys):
    code, out, _ = invoke(capsys, 'verify', 'thm1', '--max-n', '2')
    assert code == 0
    assert 'checks passed' in out
    assert 'FAIL' not in out


def test_verify_families_run_small(capsys):
    for family in ('branching', 'prop-dmu', 'lemma-pr', 'thm4', 'sep-desc'):
        code, out, _ = invoke(capsys, 'verify', family, '--max-n', '3')
        assert code == 0, (family, out)
        assert 'FAIL' not in out


def test_structured_output_is_json_with_sorted_keys(capsys):
    code, out, _ = invoke(
        capsys, '--format', 'structured', 'klpoly', '1324', '3412'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc['command'] == 'klpoly'
    assert doc['result'] == '1+q'
    assert doc['coefficients'] == [1, 1]
    assert list(doc) == sorted(doc)


def test_structured_runs_are_byte_identical(capsys):
    args = (
        '--format', 'structured', '--seed', '5',
        'verify', 'thm1', '--max-n', '3',
    )
    code_a, out_a, _ = invoke(capsys, *args)
    code_b, out_b, _ = invoke(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc['passed'] is True
    assert all(r['timing'] is None for r in doc['reports'])


def test_jobs_do_not_change_structured_output(capsys):
    base = ('--format', 'structured', '--seed', '9', 'verify', 'thm4')
    code_a, out_a, _ = invoke(capsys, *base, '--max-n', '4')
    code_b, out_b, _ = invoke(
        capsys, '--jobs', '2', *base, '--max-n', '4'
    )
    assert code_a == code_b == 0
    assert out_a == out_b


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for and maps in this process."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_serial_verify_leaves_concurrent_futures_unloaded():
    """Only a sweep with more than one worker imports the process pool,
    so a serial `verify` does not pay for `concurrent.futures` at
    start-up."""
    script = '''
import contextlib, io, sys
from klspecht.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(['verify', 'thm1', '--max-n', '4'])
print(code, 'concurrent.futures' in sys.modules)
'''
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '0 False'


def test_jobs_start_no_more_workers_than_jobs(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, 'ProcessPoolExecutor', _SerialPool)
    monkeypatch.setattr(_SerialPool, 'requested', [])
    base = ('--format', 'structured', 'verify', 'thm1', '--max-n', '3')
    code_one, out_one, _ = invoke(capsys, '--jobs', '1', *base)
    assert _SerialPool.requested == []
    code_many, out_many, _ = invoke(capsys, '--jobs', '64', *base)
    # the shapes of n = 2 and 3 are five jobs
    assert _SerialPool.requested == [5]
    assert code_one == code_many == 0
    assert out_many == out_one


@pytest.mark.parametrize('jobs', ['0', '-3', 'abc'])
def test_jobs_below_one_exit_two(capsys, no_tables_no_sweeps, jobs):
    code, out, err = invoke(capsys, '--jobs', jobs, 'verify', 'thm1')
    assert (code, out) == (2, '')
    assert 'argument --jobs' in err


def test_seed_changes_sampled_orderings(capsys):
    args_a = ('--format', 'structured', '--seed', '1',
              'verify', 'thm1', '--max-n', '4')
    args_b = ('--format', 'structured', '--seed', '2',
              'verify', 'thm1', '--max-n', '4')
    _, out_a, _ = invoke(capsys, *args_a)
    _, out_b, _ = invoke(capsys, *args_b)
    assert json.loads(out_a)['passed'] and json.loads(out_b)['passed']
    assert out_a != out_b


def test_usage_errors_exit_two(capsys):
    code, _, err = invoke(capsys, 'klpoly', '13', '24')
    assert code == 2
    assert err.strip().count('\n') == 0  # one-line diagnostic
    code, _, err = invoke(capsys, 'syt', '2,3')
    assert code == 2
    code, _, err = invoke(capsys, 'pr', '1,1/2')
    assert code == 2
    code, _, _ = invoke(capsys, 'no-such-command')
    assert code == 2
    code, _, _ = invoke(capsys, 'matrix', '2,1')
    assert code == 2


def test_long_cycle_literal_requires_a_size(capsys):
    code, _, err = invoke(capsys, 'rsk', 'c')
    assert code == 2


def test_env_var_overrides_default_bound(capsys, monkeypatch):
    monkeypatch.setenv('KLSPECHT_MAX_N', '2')
    code, out, _ = invoke(capsys, 'verify', 'branching')
    assert code == 0
    assert 'shape=3' not in out
    monkeypatch.delenv('KLSPECHT_MAX_N')


def test_console_script_entry_point():
    for module in ('klspecht', 'klspecht.cli'):
        proc = subprocess.run(
            [sys.executable, '-m', module, 'klpoly', '1324', '3412'],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == '1+q'
        assert proc.stderr == ''


def test_max_n_rejected_for_fixed_scope_families(capsys):
    for family in ('rhoades', 'counterexample'):
        code, out, err = invoke(capsys, 'verify', family, '--max-n', '3')
        assert code == 2
        assert out == ''
        assert '--max-n does not apply' in err


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first write, as under `| head -1`
    # once head has exited; the sweep still writes about 25 KB
    proc = subprocess.Popen(
        [sys.executable, '-m', 'klspecht', 'verify', 'thm4', '--max-n', '5'],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b''


def _refuse(*args):
    raise AssertionError('work started before the n bound was checked')


@pytest.fixture
def no_tables_no_sweeps(monkeypatch):
    """Fail the test if a KL table is built or a sweep job starts.  The
    refusing worker is module level, so a --jobs pool can pickle it."""
    monkeypatch.setattr(hecke, '_Tables', _refuse)
    for family, (build, _, default, kl) in list(cli._SWEEPS.items()):
        monkeypatch.setitem(cli._SWEEPS, family, (build, _refuse, default, kl))


@pytest.mark.parametrize('argv', [
    ('klpoly', '123456789', '987654321'),
    ('mu', '123456789', 'c'),
    ('mu-tab', '4,3,2', '1,2,3,4/5,6,7/8,9', '1,2,3,4/5,6,7/8,9'),
    ('matrix', '8,1', 'c'),
    ('qr', '8,1', 'c'),
])
def test_commands_refuse_n_above_the_table_bound(capsys, no_tables_no_sweeps, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ''
    assert 'too large' in err


def test_one_dimensional_modules_build_no_kl_tables(capsys, monkeypatch):
    """The trivial and sign modules have no pair of tableaux, so their
    matrices need no mu and no KL table is built or even asked for."""
    def refuse(*args):
        raise AssertionError('KL tables asked for by a one-dimensional module')

    monkeypatch.setattr(hecke, '_Tables', refuse)
    monkeypatch.setattr(hecke, 'tables', refuse)
    monkeypatch.setattr(specht, 'cell', lru_cache(maxsize=None)(specht._Cell))
    for j in range(1, 8):
        assert specht.generator_matrix((8,), j) == [[1]]
    assert specht.matrix_of((1,) * 8, symgroup.long_cycle(8)) == [[-1]]
    code, out, err = invoke(capsys, 'matrix', '8', 'c')
    assert (code, out, err) == (0, '1\n', '')


@pytest.mark.parametrize('family', ['thm1', 'branching', 'prop-dmu', 'thm4'])
def test_kl_sweeps_refuse_n_above_the_table_bound(capsys, monkeypatch,
                                                  no_tables_no_sweeps, family):
    too_big = str(hecke.MAX_N + 1)
    for flags in (('--jobs', '1'), ('--jobs', '2')):
        code, out, err = invoke(capsys, *flags, 'verify', family, '--max-n', too_big)
        assert (code, out) == (2, '')
        assert 'too large' in err
    monkeypatch.setenv('KLSPECHT_MAX_N', too_big)
    code, out, err = invoke(capsys, 'verify', family)
    assert (code, out) == (2, '')
    assert 'too large' in err


@pytest.mark.parametrize('family, bound', [('sep-desc', 9), ('lemma-pr', 13)])
def test_costly_sweeps_refuse_n_above_their_bound(capsys, monkeypatch,
                                                  no_tables_no_sweeps, family,
                                                  bound):
    """sep-desc and lemma-pr compute no mu but grow fourfold or more per n:
    above their own bound they exit 2 with a message naming it, before any
    job starts, and at the bound the first job starts."""
    refusal = f'n = {bound + 1} is too large: verify {family} stops at n = {bound}'
    for flags in (('--jobs', '1'), ('--jobs', '2')):
        code, out, err = invoke(capsys, *flags, 'verify', family,
                                '--max-n', str(bound + 1))
        assert (code, out) == (2, '')
        assert refusal in err
    monkeypatch.setenv('KLSPECHT_MAX_N', str(bound + 1))
    code, out, err = invoke(capsys, 'verify', family)
    assert (code, out) == (2, '')
    assert refusal in err
    with pytest.raises(AssertionError, match='work started'):
        invoke(capsys, 'verify', family, '--max-n', str(bound))


def test_syt_refuses_shapes_with_too_many_tableaux(capsys, monkeypatch):
    """syt counts a shape's tableaux by hook lengths and exits 2, naming
    the count, before it lists any; every shape up to n = 15 still lists."""
    assert max(tableaux.count_syt(shape) for n in range(1, 16)
               for shape in partitions(n)) <= cli._MAX_SYT
    monkeypatch.setattr(tableaux, 'enumerate_syt', _refuse)
    for text, count in (('6,4,3,2,1', 1153152), ('6,6,6,6,6', 396499770810)):
        code, out, err = invoke(capsys, 'syt', text)
        assert (code, out) == (2, '')
        assert f'shape {text} has {count} standard tableaux' in err


def dmu_reference(shape):
    """prop-dmu by the public, validated tableau functions, as the sweep
    computed it before it read mu through the cells."""
    from klspecht import tableaux
    from klspecht.reports import CheckReport

    by_index = {}
    for t in tableaux.enumerate_syt(shape):
        by_index.setdefault(tableaux.tableau_index(t), []).append(t)
    failures = []
    pairs = 0
    for i, members in sorted(by_index.items()):
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                t, r = members[a], members[b]
                pairs += 1
                before = hecke.mu_tableaux(t, r)
                after = hecke.mu_tableaux(tableaux.delete_largest(t)[0],
                                          tableaux.delete_largest(r)[0])
                if before != after:
                    failures.append(
                        f'mu changes under deletion for '
                        f'{tableaux.format_tableau(t)}, {tableaux.format_tableau(r)}'
                        f' (index {i}): {before} vs {after}'
                    )
    return [CheckReport(theorem='prop-dmu', passed=not failures, shape=shape,
                        witness={'same_index_pairs': pairs},
                        failures=failures)]


@pytest.mark.parametrize('n', range(2, 7))
def test_dmu_sweep_matches_the_tableau_route(n):
    from klspecht.tableaux import partitions

    for shape in partitions(n):
        got = [r.record() for r in cli._dmu_job(shape)]
        assert got == [r.record() for r in dmu_reference(shape)]


def test_every_verify_family_is_dispatched():
    """Each family the parser offers is either swept or fixed-scope, and
    a name in neither table is refused."""
    import argparse

    verify = cli._build_parser()._subparsers._group_actions[0].choices['verify']
    offered = {name for action in verify._actions if action.dest == 'what'
               for name in action.choices}
    assert offered == set(cli._SWEEPS) | set(cli._FIXED)
    assert not set(cli._SWEEPS) & set(cli._FIXED)
    args = argparse.Namespace(max_n=2, seed=0, jobs=1)
    with pytest.raises(ValueError, match='unknown verify family'):
        cli._sweep(args, 'thm7')


@pytest.mark.parametrize('argv', [
    ('verify', 'thm1', '--max-n', '0'),
    ('verify', 'thm1', '--max-n', '-3'),
    ('verify', 'thm1', '--max-n', '1'),
    ('verify', 'lemma-pr', '--max-n', '1'),
    ('verify', 'sep-desc', '--max-n', '0'),
    ('--format', 'structured', '--jobs', '2', 'verify', 'thm4', '--max-n', '1'),
])
def test_empty_sweeps_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, '')
    assert 'no checks' in err


def test_empty_sweep_from_the_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv('KLSPECHT_MAX_N', '0')
    for family in ('thm4', 'sep-desc'):
        code, out, err = invoke(capsys, 'verify', family)
        assert (code, out) == (2, '')
        assert 'no checks' in err


def test_fixed_scope_families_ignore_the_bound_variable(capsys, monkeypatch):
    monkeypatch.setenv('KLSPECHT_MAX_N', 'abc')
    for family in ('rhoades', 'counterexample'):
        code, out, _ = invoke(capsys, 'verify', family)
        assert code == 0
        assert 'checks passed' in out
    code, _, err = invoke(capsys, 'verify', 'thm1')
    assert code == 2
    assert 'abc' in err


def test_non_integer_bound_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv('KLSPECHT_MAX_N', 'abc')
    for argv in (('verify', 'thm1'),
                 ('--format', 'structured', '--jobs', '2', 'verify', 'thm4')):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, '')
        assert err == "error: KLSPECHT_MAX_N must be an integer, got 'abc'\n"


def _whole_document(family, seed, reports):
    """The verify document encoded in one piece, as the CLI printed it
    before it encoded each report as its batch arrived."""
    return json.dumps({'command': 'verify', 'family': family, 'seed': seed,
                       'passed': all(r.passed for r in reports),
                       'reports': [r.record() for r in reports]},
                      sort_keys=True) + '\n'


@pytest.mark.parametrize('jobs', ['1', '2'])
def test_structured_verify_matches_the_whole_document(capsys, jobs):
    from klspecht.qrkit import all_connected_chains, verify_thm4_chain
    from klspecht.tableaux import partitions

    code, out, _ = invoke(capsys, '--format', 'structured', '--jobs', jobs,
                          '--seed', '4', 'verify', 'thm4', '--max-n', '4')
    reports = [verify_thm4_chain(shape, chain) for n in range(2, 5)
               for shape in partitions(n) for chain in all_connected_chains(n)]
    assert code == 0
    assert out == _whole_document('thm4', 4, reports)
    code, out, _ = invoke(capsys, '--format', 'structured', 'verify', 'rhoades')
    assert code == 0
    assert out == _whole_document('rhoades', 0, cli._rhoades_reports(0))


def test_structured_verify_with_a_failing_check(capsys, monkeypatch):
    from klspecht.reports import CheckReport

    def worker(n):
        return [CheckReport(theorem='sep-desc', passed=n != 2,
                            witness={'n': n}, failures=['x'] * (n == 2))]

    build, _, default, kl = cli._SWEEPS['sep-desc']
    monkeypatch.setitem(cli._SWEEPS, 'sep-desc', (build, worker, default, kl))
    code, out, _ = invoke(capsys, '--format', 'structured',
                          'verify', 'sep-desc', '--max-n', '3')
    assert code == 1
    assert out == _whole_document('sep-desc', 0, [r for n in (1, 2, 3)
                                                  for r in worker(n)])
    assert json.loads(out)['passed'] is False


def _sep_desc_failing_at_two(n):
    """sep-desc's reports, with the one of n = 2 made to fail.  Module
    level, so a --jobs pool can pickle it."""
    reports = cli._sep_desc_job(n)
    if n == 2:
        reports[0].passed = False
        reports[0].failures = ['first planted failure', 'second planted failure']
    return reports


def _masked(out):
    """Text-mode stdout with its timings masked."""
    out = re.sub(r'\(\d+\.\d{3}s\)', '(x.xxxs)', out)
    return re.sub(r' in \d+\.\d{2}s\n', ' in x.xxs\n', out)


def test_verify_output_of_every_family_is_pinned(capsys, monkeypatch):
    """One sha256 over the exit code and stdout of every verify family in
    text and structured mode, serial and with --jobs 2: swept families at
    --max-n 4, fixed-scope ones at their own scope, then sep-desc with a
    failing check.  Text-mode timings are masked."""
    runs = [('verify', family, '--max-n', '4') for family in cli._SWEEPS]
    runs += [('verify', family) for family in cli._FIXED]
    digest = hashlib.sha256()

    def pin(argv):
        for fmt in ('text', 'structured'):
            for jobs in ('1', '2'):
                code, out, err = invoke(capsys, '--format', fmt, '--jobs', jobs,
                                        *argv)
                assert err == ''
                if fmt == 'text':
                    out = _masked(out)
                digest.update(f'{code}\n{out}'.encode())

    for argv in runs:
        pin(argv)
    build, _, default, kl = cli._SWEEPS['sep-desc']
    monkeypatch.setitem(cli._SWEEPS, 'sep-desc',
                        (build, _sep_desc_failing_at_two, default, kl))
    pin(('verify', 'sep-desc', '--max-n', '4'))
    assert digest.hexdigest() == (
        '6557d98a83a55cac2131a8e6375cf875d0af0896ae4d223e09ed4ffa149c34cc')


@pytest.mark.parametrize('jobs', ['1', '2'])
def test_structured_thm1_and_thm4_to_six_are_pinned(capsys, jobs):
    """The sha256 of structured `verify thm4 --max-n 6` and `verify thm1
    --max-n 6`, whose reports render their labels from positions, as
    they were when every report built its labels at once."""
    want = {
        'thm4': '4c421e7569a641904a9e051b4696b9a5c37ec09a3306d6c86bf95396631c9196',
        'thm1': 'eb39d261cf878d9d1b1010b3c5fbf47f4aef883b5ad682f0df6b644042a9cc36',
    }
    for family, digest in want.items():
        code, out, err = invoke(capsys, '--format', 'structured', '--jobs', jobs,
                                'verify', family, '--max-n', '6')
        assert (code, err) == (0, '')
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_mode_renders_no_labels(capsys, monkeypatch):
    """A text line reads only what a report keeps at once: text-mode
    thm4 and thm1 sweeps never call the functions that render ordering,
    signs and the label-bearing witness entries."""
    from klspecht import qrkit

    def refuse(*args):
        raise AssertionError('a text-mode report rendered its labels')

    monkeypatch.setattr(qrkit, '_thm4_fields', refuse)
    monkeypatch.setattr(qrkit, '_thm1_fields', refuse)
    for family, checks in (('thm4', 581), ('thm1', 187)):
        code, out, err = invoke(capsys, 'verify', family, '--max-n', '5')
        assert (code, err) == (0, '')
        assert out.splitlines()[-1].startswith(f'{checks}/{checks} checks passed')
        with pytest.raises(AssertionError):
            invoke(capsys, '--format', 'structured', 'verify', family,
                   '--max-n', '3')


def test_healthy_text_sweeps_decide_nothing(capsys, monkeypatch, cold_caches):
    """On a healthy module every check passes on a cached verdict: text
    thm1 and thm4 sweeps to n = 6, on cold caches, never reach `_decide`
    and build no thm4 chain state."""
    from klspecht import qrkit

    def refuse(*args):
        raise AssertionError('a passing check was decided or built a state')

    monkeypatch.setattr(qrkit, '_decide', refuse)
    monkeypatch.setattr(qrkit, '_ChainState', refuse)
    for family, checks in (('thm4', 3122), ('thm1', 308)):
        code, out, err = invoke(capsys, 'verify', family, '--max-n', '6')
        assert (code, err) == (0, '')
        assert out.splitlines()[-1].startswith(f'{checks}/{checks} checks passed')


class _SpyPool(_SerialPool):
    """A _SerialPool that keeps what the mapped function returns."""

    returned: list = []

    def map(self, fn, jobs):
        for job in jobs:
            self.returned.append(fn(job))
            yield self.returned[-1]


@pytest.mark.parametrize('fmt', ['text', 'structured'])
def test_sweep_workers_send_text(capsys, monkeypatch, fmt):
    monkeypatch.setattr(concurrent.futures, 'ProcessPoolExecutor', _SpyPool)
    monkeypatch.setattr(_SpyPool, 'returned', [])
    code, _, _ = invoke(capsys, '--format', fmt, '--jobs', '2',
                        'verify', 'thm4', '--max-n', '3')
    assert code == 0
    # the shapes of n = 2 and 3 are five jobs
    assert len(_SpyPool.returned) == 5
    for passes, texts in _SpyPool.returned:
        assert type(passes) is int
        assert type(texts) is list and texts
        assert all(type(text) is str for text in texts)
