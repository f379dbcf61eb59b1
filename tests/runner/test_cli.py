"""The ``--jobs`` flag every runner-backed CLI shares."""

import pytest

from repro.eval import __main__ as eval_cli
from repro.eval import fleetbench, perfbench
from repro.faults import soak

#: each CLI, with arguments that keep its run short should ``--jobs`` be
#: accepted after all
CLIS = {
    "repro.eval": (eval_cli.main, ["xsa"]),
    "repro.eval.perfbench": (perfbench.main,
                             ["--quick", "--only", "keystream"]),
    "repro.eval.fleetbench": (fleetbench.main, ["--profile", "smoke"]),
    "repro.faults.soak": (soak.main, ["--seeds", "1"]),
}


@pytest.mark.parametrize("name", sorted(CLIS))
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(name, jobs, capsys):
    main, args = CLIS[name]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
