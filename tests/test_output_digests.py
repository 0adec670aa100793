"""The output digest listing of ``output_digests.py``, built twice."""

import os

from output_digests import CASES, _listing


def test_every_output_is_the_same_when_built_twice_in_one_process():
    # all five commands, the noise sweep's shared plan memo and label halves
    # included: a second build, after the first has run in this process,
    # gives every CSV and JSON output the same bytes
    first = _listing()
    assert {rel.split(os.sep)[0] for rel in first} == set(CASES)
    assert _listing() == first
