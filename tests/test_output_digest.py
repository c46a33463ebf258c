"""The committed output digest still describes what the pipeline produces.

A change that moves outputs on purpose regenerates ``output_digest.json``
with ``tests/output_digest.py --write`` and reports the diff.
"""

import json

import numpy as np

import output_digest


def test_outputs_match_the_committed_digest():
    want = json.loads(output_digest.PATH.read_text())
    got = output_digest.digest()
    assert sorted(got) == sorted(want)
    for run, fields in want.items():
        for key, value in fields.items():
            if key in output_digest.EXACT:
                assert got[run][key] == value, f"{run}: {key}"
            else:
                np.testing.assert_allclose(got[run][key], value, rtol=1e-9, atol=0.0, err_msg=f"{run}: {key}")
