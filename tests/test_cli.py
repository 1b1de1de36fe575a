import json
import subprocess
import sys
from functools import lru_cache

import pytest

from klspecht import cli, hecke, specht, symgroup
from klspecht.cli import run


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


def test_qr_command_prints_all_three_matrices(capsys):
    code, out, _ = invoke(capsys, 'qr', '3,1,1', 'c')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'M'
    assert 'Q' in lines
    assert 'R' in lines
    q_at = lines.index('Q')
    assert lines[1:q_at] == [
        '0 0 0 1 0 0',
        '0 0 0 0 1 0',
        '1 0 0 -1 1 0',
        '0 0 0 0 0 1',
        '0 1 0 -1 0 1',
        '0 0 1 0 -1 1',
    ]


def test_qr_failure_exits_one(capsys):
    code, out, err = invoke(capsys, 'qr', '3,1', '2,4,1,3')
    assert code == 1
    assert 'not a rational square' in out + err


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


def test_jobs_start_no_more_workers_than_jobs(capsys, monkeypatch):
    monkeypatch.setattr(cli, 'ProcessPoolExecutor', _SerialPool)
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


@pytest.fixture
def no_tables_no_sweeps(monkeypatch):
    """Fail the test if a KL table is built or a sweep job starts."""
    def refuse(*args):
        raise AssertionError('work started before the n bound was checked')

    monkeypatch.setattr(hecke, '_Tables', refuse)
    for job in ('_thm1_job', '_branching_job', '_dmu_job', '_thm4_job'):
        monkeypatch.setattr(cli, job, refuse)


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
