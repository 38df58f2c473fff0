"""The files `laneassign` writes stay byte-identical.

Each case runs `laneassign.cli.main` with default settings and compares the
sha256 of what it writes with the hash pinned below.  A change to any of
them is a change of the program's results; state it and re-pin the hash.
"""

import hashlib

import pytest

from laneassign.cli import main
from laneassign.harness import METHODS, SCENARIO_KINDS

# argv of each case; `run` reads the file that the named `synth` case writes.
CASES = {
    **{f"synth-{kind}": ["synth", "--kind", kind] for kind in SCENARIO_KINDS},
    **{
        f"run-{method}-{kind}": ["run", "--method", method, "--scenario", f"synth-{kind}"]
        for method in METHODS
        for kind in ("noisy_yaw", "target_lane_change")
    },
    **{f"sweep-{method}": ["sweep", "--method", method] for method in METHODS},
    "mc-validate": ["mc-validate"],
}

HASHES = {
    "synth-straight_follow": "b2079fd6bffdbc10bb78f1b480b97b8b60983a47d41bfec6540d1b9bc7593f89",
    "synth-adjacent_lane": "fb8a11b78c07ec54a42117fce6c2b90031a1a25df1eb5a16b3492e69d04d10ed",
    "synth-target_lane_change": "09b2ae837a7d8ca4822f0c53b56291e7d2b76b09273daefe01ce08ee0a170c99",
    "synth-host_curve": "f2f09c47bb44ed5c57089ea4868807c2601c4d6889074e8145cedf31229cfc45",
    "synth-noisy_yaw": "d613402a9da3054f0139c9b71b1be19f6c617268c811375c7b0f5d8963fed37d",
    "run-discrete-noisy_yaw": "c11b6ca48df37694d0f3420ba26cf365196da4b3bbb66f493a08437821d42b85",
    "run-discrete-target_lane_change": "45e1e256542770244024dd86cca189820ec455ac240217531b1d08e975b9aea2",
    "run-continuous-noisy_yaw": "399bd737fe4157702ed3eab9d63f884acb9f8747a4f99406fe3b708488814b21",
    "run-continuous-target_lane_change": "305a0e68b71b440af94a751de97ff5d52fc9d5e22cb0b3573b127f8890b32d60",
    "sweep-discrete": "6edea3edc48331b0057125340897022bcccb3566dfdc42cefa586f69ff05d0d0",
    "sweep-continuous": "6927f081e574a88c029f5680f84660e260297795c1c989320e7ba5d9dae0ad65",
    "mc-validate": "bf09fa8d3a8113bd8471f43e74d9f8b6fa9debb83eb07729389358285021f37b",
}


def _write(case, tmp_path):
    """Run the CLI for `case` and return the path it wrote."""
    argv = list(CASES[case])
    if argv[0] == "run":
        argv[-1] = str(_write(argv[-1], tmp_path))
    out = tmp_path / case
    assert main(argv + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_pinned(case, tmp_path):
    digest = hashlib.sha256(_write(case, tmp_path).read_bytes()).hexdigest()
    assert digest == HASHES[case]
