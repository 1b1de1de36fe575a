"""
Command line front end.

Compute commands (syt, pr, ev, evk, rsk, rsk-inv, css, klpoly, mu,
mu-tab, matrix, qr) print their result and exit 0.  The verify command
runs a theorem sweep and exits 0 when every check passes, 1 otherwise;
unparseable input, a --jobs below 1 and a sweep bound that leaves no
checks exit 2, and a reader closing stdout early exits 141 without a
traceback.  Commands and sweeps that compute KL polynomials exit 2 up
front for an n above `hecke.MAX_N`, before any table is built.

Literals: partitions "3,1,1"; tableaux "1,4,5/2/3" (rows split by "/");
permutations "8,5,1,6,2,7,3,4" or digit shorthand "85162734" (n <= 9);
the letter "c" for the long cycle (2, ..., n, 1) where the ambient n is
known from a partition or a sibling permutation.

--format structured emits a single JSON document that is byte-identical
across runs with the same inputs and seed (timings are nulled there;
text mode prints them).  --jobs parallelizes verify sweeps across shapes
in separate processes, starting no more of them than the sweep has
jobs; output order does not depend on scheduling.
Either way a sweep's reports are printed, or encoded, as each job's
batch arrives, so no run holds all of its reports at once.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from random import Random
from typing import Iterator, Sequence

from . import hecke, jdt, rsk, specht, symgroup, tableaux
from .qrkit import (
    all_connected_chains,
    exact_qr,
    IrrationalNormError,
    thm1_shape_reports,
    verify_counterexample,
    verify_thm4_chain,
)
from .reports import CheckReport
from .specht import matrix_entries

__all__ = ['main', 'run']

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='klspecht',
        description='Specht modules in the Kazhdan-Lusztig basis: '
                    'combinatorics, exact matrices, and theorem checks.',
    )
    parser.add_argument('--format', choices=('text', 'structured'),
                        default='text', help='output style')
    parser.add_argument('--seed', type=int, default=0,
                        help='seed for randomized sweeps')
    parser.add_argument('--jobs', type=int, default=1,
                        help='worker processes for verify sweeps')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('syt', help='list the tableaux of a shape in total index order')
    p.add_argument('shape')

    for name, text in (('pr', 'jeu de taquin promotion'),
                       ('ev', 'evacuation')):
        p = sub.add_parser(name, help=text)
        p.add_argument('tableau')

    p = sub.add_parser('evk', help='partial evacuation of the top k entries')
    p.add_argument('tableau')
    p.add_argument('k', type=int)

    p = sub.add_parser('rsk', help='insertion and recording tableaux of a word')
    p.add_argument('word')

    p = sub.add_parser('rsk-inv', help='permutation with given insertion and recording tableaux')
    p.add_argument('p')
    p.add_argument('q')

    p = sub.add_parser('css', help='column superstandard tableau (optionally of index i)')
    p.add_argument('shape')
    p.add_argument('i', type=int, nargs='?')

    p = sub.add_parser('klpoly', help='Kazhdan-Lusztig polynomial P_{v,w}')
    p.add_argument('v')
    p.add_argument('w')

    p = sub.add_parser('mu', help='top KL coefficient mu(v, w)')
    p.add_argument('v')
    p.add_argument('w')

    p = sub.add_parser('mu-tab', help='mu between column-word preimages of two tableaux')
    p.add_argument('shape')
    p.add_argument('t')
    p.add_argument('r')

    p = sub.add_parser('matrix', help='matrix of w on the Specht module of a shape')
    p.add_argument('shape')
    p.add_argument('w')

    p = sub.add_parser('qr', help='matrix of w with its exact QR factorization')
    p.add_argument('shape')
    p.add_argument('w')

    p = sub.add_parser('verify', help='run a theorem check or sweep')
    p.add_argument('what', choices=(*_SWEEPS, *_FIXED))
    p.add_argument('--max-n', type=int, default=None,
                   help='largest n to sweep (default per family; '
                        'KLSPECHT_MAX_N overrides the default)')
    return parser


def _perm_pair(vtext: str, wtext: str) -> tuple[symgroup.Perm, symgroup.Perm]:
    """Parse two permutations, letting one of them be the literal c."""
    if vtext == 'c' and wtext == 'c':
        raise ValueError('cannot infer n with both arguments equal to "c"')
    if vtext == 'c':
        w = symgroup.parse_perm(wtext)
        return symgroup.long_cycle(len(w)), w
    v = symgroup.parse_perm(vtext)
    return v, symgroup.parse_perm(wtext, len(v))


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == 'structured':
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matrix_lines(mat) -> list[str]:
    return [' '.join(str(tok) for tok in row) for row in matrix_entries(mat)]


# ---------------------------------------------------------------------------
# verify sweeps (worker functions are top level so --jobs can pickle them)

def _thm1_job(job: tuple[tuple[int, ...], int]) -> list[CheckReport]:
    shape, seed = job
    return thm1_shape_reports(shape, seed)


def _branching_job(shape: tuple[int, ...]) -> list[CheckReport]:
    return [specht.check_filtration_invariance(shape),
            specht.check_branching(shape)]


def _dmu_job(shape: tuple[int, ...]) -> list[CheckReport]:
    cl = specht.cell(shape)
    failures = []
    pairs = 0
    for i, members in cl.classes.items():
        if len(members) < 2:
            continue
        smaller = [tableaux._delete_largest(cl.tableaux[k])[0] for k in members]
        small = specht.cell(tableaux.shape_of(smaller[0]))
        below = [small.position[t] for t in smaller]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs += 1
                before = cl.mu(members[a], members[b])
                after = small.mu(below[a], below[b])
                if before != after:
                    failures.append(
                        f'mu changes under deletion for '
                        f'{cl.labels[members[a]]}, {cl.labels[members[b]]}'
                        f' (index {i}): {before} vs {after}'
                    )
    return [CheckReport(theorem='prop-dmu', passed=not failures, shape=shape,
                        witness={'same_index_pairs': pairs},
                        failures=failures)]


def _lemma_pr_job(shape: tuple[int, ...]) -> list[CheckReport]:
    n = sum(shape)
    failures = []
    tabs = tableaux.enumerate_syt(shape)
    for t in tabs:
        expected = jdt._partial_evacuate(jdt._partial_evacuate(t, n - 1), n)
        if jdt._promote(t) != expected:
            failures.append(
                f'promotion differs from double evacuation on '
                f'{tableaux.format_tableau(t)}'
            )
    return [CheckReport(theorem='lemma-pr', passed=not failures, shape=shape,
                        witness={'tableaux': len(tabs)},
                        failures=failures)]


def _thm4_job(shape: tuple[int, ...]) -> list[CheckReport]:
    n = sum(shape)
    return [verify_thm4_chain(shape, chain)
            for chain in all_connected_chains(n)]


def _sep_desc_job(n: int) -> list[CheckReport]:
    failures = []
    separable = {w for w in symgroup.all_perms(n) if symgroup.is_separable(w)}
    descending = set(symgroup.descending_table(n)) | {symgroup.identity(n)}
    if separable != descending:
        extra = separable - descending
        missing = descending - separable
        if extra:
            failures.append(
                f'separable but not descending: {sorted(extra)[:3]}'
            )
        if missing:
            failures.append(
                f'descending but not separable: {sorted(missing)[:3]}'
            )
    expected = symgroup.schroeder_number(n - 1)
    if len(separable) != expected:
        failures.append(
            f'{len(separable)} separable permutations in S_{n}, '
            f'Schroeder number says {expected}'
        )
    for w in sorted(separable):
        tree = symgroup.separable_tree(w)
        if tree is None or symgroup.tree_to_perm(tree) != w:
            failures.append(f'decomposition tree fails for {w}')
            break
    return [CheckReport(theorem='sep-desc', passed=not failures,
                        shape=None,
                        witness={'n': n, 'count': len(separable),
                                 'schroeder': expected},
                        failures=failures)]


def _rhoades_report(scope: str,
                    cases: list[tuple[symgroup.Perm, symgroup.Perm, int]]) -> CheckReport:
    """One report over (u, v, slot) cases of the insertion theorem."""
    failures = [f'mu not preserved for {u}, {v}, slot {k}'
                for u, v, k in cases if not hecke.check_rhoades_insertion(u, v, k)]
    return CheckReport(theorem='rhoades', passed=not failures,
                       witness={'scope': scope, 'checked': len(cases)},
                       failures=failures)


def _rhoades_reports(seed: int) -> list[CheckReport]:
    s3 = symgroup.all_perms(3)
    rng = Random(f'{seed}:rhoades')
    samples = []
    for _ in range(1000):
        u = list(range(1, 5))
        v = list(range(1, 5))
        rng.shuffle(u)
        rng.shuffle(v)
        samples.append((tuple(u), tuple(v), rng.randint(0, 4)))
    return [
        _rhoades_report('exhaustive S_3',
                        [(u, v, k) for u in s3 for v in s3 for k in range(4)]),
        _rhoades_report('seeded S_4 samples', samples),
    ]


def _shape_jobs(args, max_n: int) -> list[tuple[int, ...]]:
    return [shape
            for n in range(2, max_n + 1)
            for shape in tableaux.partitions(n)]


def _thm1_jobs(args, max_n: int) -> list[tuple[tuple[int, ...], int]]:
    return [(shape, args.seed) for shape in _shape_jobs(args, max_n)]


def _sep_desc_jobs(args, max_n: int) -> list[int]:
    return list(range(1, max_n + 1))


# swept families, which take --max-n: name -> (jobs builder, worker run
# on each job, default --max-n, whether the checks compute mu, which
# bounds --max-n by hecke.MAX_N)
_SWEEPS = {
    'thm1': (_thm1_jobs, _thm1_job, 6, True),
    'branching': (_shape_jobs, _branching_job, 6, True),
    'prop-dmu': (_shape_jobs, _dmu_job, 6, True),
    'lemma-pr': (_shape_jobs, _lemma_pr_job, 8, False),
    'thm4': (_shape_jobs, _thm4_job, 5, True),
    'sep-desc': (_sep_desc_jobs, _sep_desc_job, 6, False),
}

# families with a fixed scope, which take no --max-n
_FIXED = {
    'counterexample': lambda args: [verify_counterexample()],
    'rhoades': lambda args: _rhoades_reports(args.seed),
}


def _sweep(args, family: str) -> Iterator[list[CheckReport]]:
    """The reports of a verify family, one batch per job in job order.
    The family, the bound and the job list are checked here, before any
    check runs; the checks run as the batches are drawn."""
    if family in _FIXED:
        if args.max_n is not None:
            raise ValueError(f'verify {family} has a fixed scope; '
                             f'--max-n does not apply')
        return iter([_FIXED[family](args)])
    if family not in _SWEEPS:
        raise ValueError(f'unknown verify family: {family}')
    build, worker, default_max_n, kl = _SWEEPS[family]
    max_n = args.max_n
    if max_n is None:
        env = os.environ.get('KLSPECHT_MAX_N')
        try:
            max_n = int(env) if env else default_max_n
        except ValueError:
            raise ValueError(f'KLSPECHT_MAX_N must be an integer, '
                             f'got {env!r}') from None
    if kl:
        hecke.check_affordable(max_n)
    jobs = build(args, max_n)
    if not jobs:
        raise ValueError(f'verify {family} has no checks up to n = {max_n}')
    return _run_jobs(worker, jobs, args.jobs)


def _run_jobs(worker, jobs: list, workers: int) -> Iterator[list[CheckReport]]:
    # a fork-started pool forks all of its workers at the first submit
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, jobs)
    else:
        for job in jobs:
            yield worker(job)


def _report_label(report: CheckReport) -> str:
    bits = [report.theorem]
    if report.shape is not None:
        bits.append(f'shape={tableaux.format_partition(report.shape)}')
    if 'chain' in report.witness:
        bits.append('chain=' + '<'.join(
            symgroup.format_subset(j) for j in report.witness['chain']))
    if 'n' in report.witness:
        bits.append(f'n={report.witness["n"]}')
    if 'scope' in report.witness:
        bits.append(report.witness['scope'])
    return ' '.join(bits)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            parser.error(f'argument --jobs: must be at least 1, got {args.jobs}')
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return _dispatch(args)
    except ValueError as err:
        print(f'error: {err}', file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == 'syt':
        shape = tableaux.parse_partition(args.shape)
        tabs = tableaux.enumerate_syt(shape)
        _emit(args,
              {'command': 'syt', 'shape': list(shape),
               'result': [tableaux.format_tableau(t) for t in tabs]},
              [tableaux.format_tableau(t) for t in tabs])
        return 0
    if cmd in ('pr', 'ev'):
        t = tableaux.parse_tableau(args.tableau)
        out = jdt.promote(t) if cmd == 'pr' else jdt.evacuate(t)
        _emit(args,
              {'command': cmd, 'tableau': tableaux.format_tableau(t),
               'result': tableaux.format_tableau(out)},
              [tableaux.format_tableau(out)])
        return 0
    if cmd == 'evk':
        t = tableaux.parse_tableau(args.tableau)
        out = jdt.partial_evacuate(t, args.k)
        _emit(args,
              {'command': cmd, 'tableau': tableaux.format_tableau(t),
               'k': args.k, 'result': tableaux.format_tableau(out)},
              [tableaux.format_tableau(out)])
        return 0
    if cmd == 'rsk':
        w = symgroup.parse_perm(args.word)
        p, q = rsk.rsk(w)
        _emit(args,
              {'command': 'rsk', 'word': list(w),
               'result': {'p': tableaux.format_tableau(p),
                          'q': tableaux.format_tableau(q)}},
              [f'P: {tableaux.format_tableau(p)}',
               f'Q: {tableaux.format_tableau(q)}'])
        return 0
    if cmd == 'rsk-inv':
        p = tableaux.parse_tableau(args.p)
        q = tableaux.parse_tableau(args.q)
        w = rsk.inverse_rsk(p, q)
        _emit(args,
              {'command': 'rsk-inv', 'result': list(w)},
              [symgroup.format_perm(w)])
        return 0
    if cmd == 'css':
        shape = tableaux.parse_partition(args.shape)
        out = rsk.css(shape) if args.i is None else rsk.css_i(shape, args.i)
        _emit(args,
              {'command': 'css', 'shape': list(shape), 'i': args.i,
               'result': tableaux.format_tableau(out)},
              [tableaux.format_tableau(out)])
        return 0
    if cmd == 'klpoly':
        v, w = _perm_pair(args.v, args.w)
        hecke.check_affordable(len(v))
        poly = hecke.kl_polynomial(v, w)
        _emit(args,
              {'command': 'klpoly', 'v': list(v), 'w': list(w),
               'result': hecke.format_qpoly(poly),
               'coefficients': list(poly)},
              [hecke.format_qpoly(poly)])
        return 0
    if cmd == 'mu':
        v, w = _perm_pair(args.v, args.w)
        hecke.check_affordable(len(v))
        value = hecke.mu(v, w)
        _emit(args,
              {'command': 'mu', 'v': list(v), 'w': list(w), 'result': value},
              [str(value)])
        return 0
    if cmd == 'mu-tab':
        shape = tableaux.parse_partition(args.shape)
        hecke.check_affordable(sum(shape))
        t = tableaux.parse_tableau(args.t)
        r = tableaux.parse_tableau(args.r)
        if tableaux.shape_of(t) != shape or tableaux.shape_of(r) != shape:
            raise ValueError('tableaux do not have the stated shape')
        value = hecke.mu_tableaux(t, r)
        _emit(args,
              {'command': 'mu-tab', 'shape': list(shape),
               't': tableaux.format_tableau(t), 'r': tableaux.format_tableau(r),
               'result': value},
              [str(value)])
        return 0
    if cmd == 'matrix':
        shape = tableaux.parse_partition(args.shape)
        hecke.check_affordable(sum(shape))
        w = symgroup.parse_perm(args.w, sum(shape))
        mat = specht.matrix_of(shape, w)
        _emit(args,
              {'command': 'matrix', 'shape': list(shape), 'w': list(w),
               'result': matrix_entries(mat)},
              _matrix_lines(mat))
        return 0
    if cmd == 'qr':
        shape = tableaux.parse_partition(args.shape)
        hecke.check_affordable(sum(shape))
        w = symgroup.parse_perm(args.w, sum(shape))
        mat = specht.matrix_of(shape, w)
        try:
            fact = exact_qr(mat)
        except IrrationalNormError as err:
            _emit(args,
                  {'command': 'qr', 'shape': list(shape), 'w': list(w),
                   'result': None, 'error': str(err)},
                  [f'no rational QR: {err}'])
            return 1
        _emit(args,
              {'command': 'qr', 'shape': list(shape), 'w': list(w),
               'result': {'m': matrix_entries(mat),
                          'q': matrix_entries(fact.q),
                          'r': matrix_entries(fact.r)}},
              ['M'] + _matrix_lines(mat)
              + ['Q'] + _matrix_lines(fact.q)
              + ['R'] + _matrix_lines(fact.r))
        return 0
    if cmd == 'verify':
        t0 = time.perf_counter()
        batches = _sweep(args, args.what)
        if args.format == 'structured':
            return _print_structured_verify(args, batches)
        ok = total = 0
        for batch in batches:
            for r in batch:
                total += 1
                ok += r.passed
                status = 'PASS' if r.passed else 'FAIL'
                line = f'{status} {_report_label(r)}'
                if r.timing is not None:
                    line += f' ({r.timing:.3f}s)'
                print(line)
                for failure in r.failures:
                    print(f'  {failure}')
        elapsed = time.perf_counter() - t0
        print(f'{ok}/{total} checks passed in {elapsed:.2f}s')
        return 0 if ok == total else 1
    raise ValueError(f'unknown command: {cmd}')


def _print_structured_verify(args, batches: Iterator[list[CheckReport]]) -> int:
    """Print the verify document as `json.dumps(doc, sort_keys=True)`
    would, without holding every report at once.  Its keys are sorted, so
    `passed` comes before `reports`: each record is encoded as its batch
    arrives, and only the encoded text is kept until `passed` is known."""
    passed = True
    records = []
    for batch in batches:
        for r in batch:
            passed = passed and r.passed
            records.append(json.dumps(r.record(), sort_keys=True))
    head, _, tail = json.dumps(
        {'command': 'verify', 'family': args.what, 'seed': args.seed,
         'passed': passed, 'reports': []},
        sort_keys=True).partition('[]')
    out = sys.stdout
    out.write(head + '[')
    for i, record in enumerate(records):
        if i:
            out.write(', ')
        out.write(record)
    out.write(']' + tail + '\n')
    return 0 if passed else 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`... | head`): stop without a traceback,
        # and point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    sys.exit(code)


if __name__ == '__main__':
    main()
