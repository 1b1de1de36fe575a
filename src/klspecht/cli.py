"""
Command line front end.

Compute commands (syt, pr, ev, evk, rsk, rsk-inv, css, klpoly, mu,
mu-tab, matrix, qr) print their result and exit 0, except that qr exits
1 when a squared norm is not a rational square.  Each compute command is
one function, attached to its subparser as `func`, that returns its exit
code, its structured document and its text lines.  The verify command
runs a theorem sweep and exits 0 when every check passes, 1 otherwise;
unparseable input, a --jobs below 1 and a sweep bound that leaves no
checks exit 2, and a reader closing stdout early exits 141 without a
traceback.  Commands and sweeps that compute KL polynomials exit 2 up
front for an n above `hecke.MAX_N`, before any table is built, the
sep-desc and lemma-pr sweeps above n = 9 and n = 13, before any job, and
syt for a shape with more than 10**6 tableaux, counted by hook lengths
before any is listed.

Literals: partitions "3,1,1"; tableaux "1,4,5/2/3" (rows split by "/");
permutations "8,5,1,6,2,7,3,4" or digit shorthand "85162734" (n <= 9);
the letter "c" for the long cycle (2, ..., n, 1) where the ambient n is
known from a partition or a sibling permutation.

--format structured emits a single JSON document that is byte-identical
across runs with the same inputs and seed (timings are nulled there;
text mode prints them).  --jobs parallelizes verify sweeps across shapes
in separate processes, starting no more of them than the sweep has
jobs; output order does not depend on scheduling.
Each sweep job encodes its reports where it runs, one text per report
(its JSON record or its PASS/FAIL lines), so no report crosses a process
boundary; the parent writes the texts as each batch arrives, structured
output to an anonymous spool file until the document's `passed` is known.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import combinations
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

    def command(name, func, text, *params, **defaults):
        p = sub.add_parser(name, help=text)
        for param in params:
            p.add_argument(param)
        p.set_defaults(func=func, **defaults)
        return p

    command('syt', _syt, 'list the tableaux of a shape in total index order',
            'shape')
    command('pr', _move_tableau, 'jeu de taquin promotion', 'tableau',
            move=jdt.promote)
    command('ev', _move_tableau, 'evacuation', 'tableau', move=jdt.evacuate)
    command('evk', _evk, 'partial evacuation of the top k entries',
            'tableau').add_argument('k', type=int)
    command('rsk', _rsk, 'insertion and recording tableaux of a word', 'word')
    command('rsk-inv', _rsk_inv,
            'permutation with given insertion and recording tableaux', 'p', 'q')
    command('css', _css, 'column superstandard tableau (optionally of index i)',
            'shape').add_argument('i', type=int, nargs='?')
    command('klpoly', _klpoly, 'Kazhdan-Lusztig polynomial P_{v,w}', 'v', 'w')
    command('mu', _mu, 'top KL coefficient mu(v, w)', 'v', 'w')
    command('mu-tab', _mu_tab, 'mu between column-word preimages of two tableaux',
            'shape', 't', 'r')
    command('matrix', _matrix, 'matrix of w on the Specht module of a shape',
            'shape', 'w')
    command('qr', _qr, 'matrix of w with its exact QR factorization',
            'shape', 'w')

    p = sub.add_parser('verify', help='run a theorem check or sweep')
    p.add_argument('what', choices=(*_SWEEPS, *_FIXED))
    p.add_argument('--max-n', type=int, default=None,
                   help='largest n to sweep (default per family; '
                        'KLSPECHT_MAX_N overrides the default)')
    return parser


# ---------------------------------------------------------------------------
# compute commands: each returns (exit code, structured document without
# its 'command' key, text lines)

# syt lists at most this many tableaux: every shape up to n = 15 (largest
# 292864), not (6, 4, 3, 2, 1) with 1153152
_MAX_SYT = 10**6


def _syt(args):
    shape = tableaux.parse_partition(args.shape)
    count = tableaux.count_syt(shape)
    if count > _MAX_SYT:
        raise ValueError(f'shape {tableaux.format_partition(shape)} has '
                         f'{count} standard tableaux; syt lists at most '
                         f'{_MAX_SYT}')
    tabs = [tableaux.format_tableau(t) for t in tableaux.enumerate_syt(shape)]
    return 0, {'shape': list(shape), 'result': tabs}, tabs


def _move_tableau(args):
    t = tableaux.parse_tableau(args.tableau)
    out = tableaux.format_tableau(args.move(t))
    return 0, {'tableau': tableaux.format_tableau(t), 'result': out}, [out]


def _evk(args):
    t = tableaux.parse_tableau(args.tableau)
    out = tableaux.format_tableau(jdt.partial_evacuate(t, args.k))
    return (0, {'tableau': tableaux.format_tableau(t), 'k': args.k,
                'result': out}, [out])


def _rsk(args):
    w = symgroup.parse_perm(args.word)
    p, q = (tableaux.format_tableau(t) for t in rsk.rsk(w))
    return (0, {'word': list(w), 'result': {'p': p, 'q': q}},
            [f'P: {p}', f'Q: {q}'])


def _rsk_inv(args):
    w = rsk.inverse_rsk(tableaux.parse_tableau(args.p),
                        tableaux.parse_tableau(args.q))
    return 0, {'result': list(w)}, [symgroup.format_perm(w)]


def _css(args):
    shape = tableaux.parse_partition(args.shape)
    out = tableaux.format_tableau(
        rsk.css(shape) if args.i is None else rsk.css_i(shape, args.i))
    return 0, {'shape': list(shape), 'i': args.i, 'result': out}, [out]


def _perm_pair(vtext: str, wtext: str) -> tuple[symgroup.Perm, symgroup.Perm]:
    """Parse two permutations, letting one of them be the literal c."""
    if vtext == 'c' and wtext == 'c':
        raise ValueError('cannot infer n with both arguments equal to "c"')
    if vtext == 'c':
        w = symgroup.parse_perm(wtext)
        return symgroup.long_cycle(len(w)), w
    v = symgroup.parse_perm(vtext)
    return v, symgroup.parse_perm(wtext, len(v))


# klpoly and mu are refused above hecke.MAX_N by hecke.tables itself,
# before it allocates anything
def _klpoly(args):
    v, w = _perm_pair(args.v, args.w)
    poly = hecke.kl_polynomial(v, w)
    text = hecke.format_qpoly(poly)
    return (0, {'v': list(v), 'w': list(w), 'result': text,
                'coefficients': list(poly)}, [text])


def _mu(args):
    v, w = _perm_pair(args.v, args.w)
    value = hecke.mu(v, w)
    return 0, {'v': list(v), 'w': list(w), 'result': value}, [str(value)]


def _kl_shape(args) -> tuple[int, ...]:
    """The shape argument, refused above hecke.MAX_N before the other
    arguments are read."""
    shape = tableaux.parse_partition(args.shape)
    hecke.check_affordable(sum(shape))
    return shape


def _mu_tab(args):
    shape = _kl_shape(args)
    t = tableaux.parse_tableau(args.t)
    r = tableaux.parse_tableau(args.r)
    if tableaux.shape_of(t) != shape or tableaux.shape_of(r) != shape:
        raise ValueError('tableaux do not have the stated shape')
    value = hecke.mu_tableaux(t, r)
    return (0, {'shape': list(shape), 't': tableaux.format_tableau(t),
                'r': tableaux.format_tableau(r), 'result': value},
            [str(value)])


def _shape_matrix(args) -> tuple[dict, list]:
    """The document's shape and w, and the matrix of w on the shape."""
    shape = _kl_shape(args)
    w = symgroup.parse_perm(args.w, sum(shape))
    return {'shape': list(shape), 'w': list(w)}, specht.matrix_of(shape, w)


def _matrix_lines(mat) -> list[str]:
    return [' '.join(str(tok) for tok in row) for row in matrix_entries(mat)]


def _matrix(args):
    doc, mat = _shape_matrix(args)
    return 0, {**doc, 'result': matrix_entries(mat)}, _matrix_lines(mat)


def _qr(args):
    doc, mat = _shape_matrix(args)
    try:
        fact = exact_qr(mat)
    except IrrationalNormError as err:
        return (1, {**doc, 'result': None, 'error': str(err)},
                [f'no rational QR: {err}'])
    return (0, {**doc, 'result': {'m': matrix_entries(mat),
                                  'q': matrix_entries(fact.q),
                                  'r': matrix_entries(fact.r)}},
            ['M'] + _matrix_lines(mat)
            + ['Q'] + _matrix_lines(fact.q)
            + ['R'] + _matrix_lines(fact.r))


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
    # the index-i class lists SYT(shape - box i) in order from its first
    # position, so deleting the largest entry of its a-th member leaves the
    # tableau at position a of the smaller cell
    for i, (start, rest) in enumerate(cl.smaller, start=1):
        small = specht.cell(rest)
        for a, b in combinations(range(len(small.tableaux)), 2):
            pairs += 1
            before = cl.mu(start + a, start + b)
            after = small.mu(a, b)
            if before != after:
                failures.append(
                    f'mu changes under deletion for '
                    f'{cl.labels[start + a]}, {cl.labels[start + b]}'
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


def _thm4_job(shape: tuple[int, ...]) -> Iterator[CheckReport]:
    # one report at a time, so each is dropped once it is encoded
    for chain in all_connected_chains(sum(shape)):
        yield verify_thm4_chain(shape, chain)


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
# on each job, default --max-n, largest --max-n, or None where the checks
# compute mu, which bounds --max-n by hecke.MAX_N).  The other two grow
# fourfold or more per n: on a 2-core VM sep-desc takes ~50 s up to
# n = 9 and lemma-pr ~100 s up to n = 13, so their bounds stop there
_SWEEPS = {
    'thm1': (_thm1_jobs, _thm1_job, 6, None),
    'branching': (_shape_jobs, _branching_job, 6, None),
    'prop-dmu': (_shape_jobs, _dmu_job, 6, None),
    'lemma-pr': (_shape_jobs, _lemma_pr_job, 8, 13),
    'thm4': (_shape_jobs, _thm4_job, 5, None),
    'sep-desc': (_sep_desc_jobs, _sep_desc_job, 6, 9),
}

# families with a fixed scope, which take no --max-n
_FIXED = {
    'counterexample': lambda args: [verify_counterexample()],
    'rhoades': lambda args: _rhoades_reports(args.seed),
}


def _sweep(args, family: str) -> Iterator[tuple[int, list[str]]]:
    """The encoded reports of a verify family (see `_encoded`), one batch
    per job in job order.  The family, the bound and the job list are
    checked here, before any check runs; the checks run as the batches
    are drawn, a fixed-scope family's in this process."""
    if family in _FIXED:
        if args.max_n is not None:
            raise ValueError(f'verify {family} has a fixed scope; '
                             f'--max-n does not apply')
        worker, jobs = _FIXED[family], [args]
    elif family not in _SWEEPS:
        raise ValueError(f'unknown verify family: {family}')
    else:
        build, worker, default_max_n, ceiling = _SWEEPS[family]
        max_n = args.max_n
        if max_n is None:
            env = os.environ.get('KLSPECHT_MAX_N')
            try:
                max_n = int(env) if env else default_max_n
            except ValueError:
                raise ValueError(f'KLSPECHT_MAX_N must be an integer, '
                                 f'got {env!r}') from None
        if ceiling is None:
            hecke.check_affordable(max_n)
        elif max_n > ceiling:
            raise ValueError(f'n = {max_n} is too large: verify {family} '
                             f'stops at n = {ceiling}')
        jobs = build(args, max_n)
        if not jobs:
            raise ValueError(f'verify {family} has no checks up to n = {max_n}')
    return _run_jobs(partial(_encoded, worker, args.format == 'structured'),
                     jobs, args.jobs)


def _run_jobs(worker, jobs: list, workers: int) -> Iterator:
    # a fork-started pool forks all of its workers at the first submit
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: a serial run does without concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, jobs)
    else:
        for job in jobs:
            yield worker(job)


def _encoded(worker, structured: bool, job) -> tuple[int, list[str]]:
    """Run one job: how many of its reports passed, and their texts."""
    passes, texts = 0, []
    for r in worker(job):
        passes += r.passed
        texts.append(json.dumps(r.record(), sort_keys=True) if structured
                     else _report_text(r))
    return passes, texts


@lru_cache(maxsize=None)
def _shape_text(shape: tableaux.Partition) -> str:
    """The shape field of a text line, formatted once per shape."""
    return 'shape=' + tableaux.format_partition(shape)


@lru_cache(maxsize=None)
def _chain_text(chain: tuple[tuple[int, ...], ...]) -> str:
    """The chain field of a text line, formatted once per chain."""
    return 'chain=' + '<'.join(map(symgroup.format_subset, chain))


def _report_text(report: CheckReport) -> str:
    """The PASS/FAIL line and indented failures, each newline-terminated.
    It reads only what a report keeps at once (see `CheckReport`)."""
    bits = ['PASS' if report.passed else 'FAIL', report.theorem]
    if report.shape is not None:
        bits.append(_shape_text(report.shape))
    witness = report._witness
    if 'chain' in witness:
        chain = witness['chain']  # the record's tuples, or rendered lists
        bits.append(_chain_text(chain if chain.__class__ is tuple
                                else tuple(map(tuple, chain))))
    if 'n' in witness:
        bits.append(f'n={witness["n"]}')
    if 'scope' in witness:
        bits.append(witness['scope'])
    if report.timing is not None:
        bits.append(f'({report.timing:.3f}s)')
    return '\n  '.join([' '.join(bits), *report.failures]) + '\n'


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
    if args.command == 'verify':
        return _verify(args)
    code, doc, lines = args.func(args)
    if args.format == 'structured':
        print(json.dumps({'command': args.command, **doc}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _verify(args) -> int:
    """Write each text as its batch arrives.  The structured document's
    sorted keys put `passed` first, so its records wait in the spool."""
    t0 = time.perf_counter()
    structured = args.format == 'structured'
    batches = _sweep(args, args.what)
    ok = total = 0
    with (tempfile.TemporaryFile('w+', encoding='utf-8', newline='')
          if structured else nullcontext(sys.stdout)) as out:
        sep = ''
        for passes, texts in batches:
            ok += passes
            total += len(texts)
            for text in texts:
                out.write(sep + text)
                sep = ', ' if structured else ''
        if structured:
            head, _, tail = json.dumps(
                {'command': 'verify', 'family': args.what, 'seed': args.seed,
                 'passed': ok == total, 'reports': []},
                sort_keys=True).partition('[]')
            sys.stdout.write(head + '[')
            out.seek(0)
            shutil.copyfileobj(out, sys.stdout)
            sys.stdout.write(']' + tail + '\n')
        else:
            print(f'{ok}/{total} checks passed in {time.perf_counter() - t0:.2f}s')
    return 0 if ok == total else 1


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
