"""The report and result types, and what importing the package loads."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import klspecht
from klspecht.qrkit import QRFactorization, SignedPermutation
from klspecht.reports import CheckReport


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    cost more at start-up than klspecht's own modules; every process
    that checks a theorem, `--jobs` workers included, pays its import."""
    script = '''
import sys
import klspecht
print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '[]'


def test_check_report_builds_positionally_and_by_keyword():
    fields = ('thm1', False, (2, 1), ('a', 'b'), {'column': 3}, {'c': -1},
              ['leak'], 0.5)
    names = ('theorem', 'passed', 'shape', 'ordering', 'witness', 'signs',
             'failures', 'timing')
    by_position = CheckReport(*fields)
    by_keyword = CheckReport(**dict(zip(names, fields)))
    assert by_position == by_keyword
    for name, value in zip(names, fields):
        assert getattr(by_position, name) == value
    bare = CheckReport('thm4', True)
    assert (bare.shape, bare.ordering, bare.witness, bare.signs,
            bare.failures, bare.timing) == (None, None, {}, None, [], None)
    assert repr(bare) == (
        "CheckReport(theorem='thm4', passed=True, shape=None, ordering=None, "
        "witness={}, signs=None, failures=[], timing=None)")
    with pytest.raises(TypeError):
        CheckReport('thm4')
    with pytest.raises(AttributeError):
        bare.note = 'no such field'


def test_check_reports_own_their_default_containers():
    first, second = CheckReport('thm1', True), CheckReport('thm1', True)
    first.witness['column'] = 0
    first.failures.append('leak')
    assert second.witness == {} and second.failures == []
    assert CheckReport('thm1', True).witness == {}


def test_check_report_equality_and_record():
    report = CheckReport('thm4', False, shape=(3, 1), ordering=('x',),
                         witness={'chain': [1]}, signs={'A': 1},
                         failures=['bad'], timing=1.25)
    assert report == CheckReport('thm4', False, (3, 1), ('x',),
                                 {'chain': [1]}, {'A': 1}, ['bad'], 1.25)
    assert report != CheckReport('thm4', False, (3, 1), ('x',),
                                 {'chain': [1]}, {'A': 1}, ['bad'], 2.0)

    class Other(CheckReport):
        __slots__ = ()

    assert report != Other('thm4', False, (3, 1), ('x',), {'chain': [1]},
                           {'A': 1}, ['bad'], 1.25)
    assert report != report.record()
    with pytest.raises(TypeError):
        hash(report)
    # --jobs workers send their reports back pickled
    assert pickle.loads(pickle.dumps(report)) == report
    assert report.record() == {
        'theorem': 'thm4', 'shape': [3, 1], 'ordering': ['x'],
        'passed': False, 'witness': {'chain': [1]}, 'signs': {'A': 1},
        'failures': ['bad'], 'timing': None}
    assert CheckReport('thm1', True).record() == {
        'theorem': 'thm1', 'shape': None, 'ordering': None, 'passed': True,
        'witness': {}, 'signs': None, 'failures': [], 'timing': None}


def test_qr_result_types_are_immutable_values():
    fact = QRFactorization(q=[[1]], r=[[2]])
    assert fact == QRFactorization([[1]], [[2]])
    assert fact != QRFactorization([[1]], [[3]])
    assert (fact.q, fact.r) == ([[1]], [[2]])
    sp = SignedPermutation(target=(1, 0), signs=(1, -1))
    assert sp == SignedPermutation((1, 0), (1, -1))
    assert sp != SignedPermutation((1, 0), (1, 1))
    assert hash(sp) == hash(SignedPermutation((1, 0), (1, -1)))
    assert repr(sp) == 'SignedPermutation(target=(1, 0), signs=(1, -1))'
    for value, name in ((fact, 'q'), (fact, 'r'), (sp, 'target'), (sp, 'signs')):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
