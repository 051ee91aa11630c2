"""Malformed and extreme configs reach the user as an exit code.

Every command must end with one of the documented exit codes (0 ok,
1 verification failed, 2 usage/config error, 3 solver failure) and never
with an exception escaping ``main``, which a user would see as a raw
traceback. Grids stay at 8-16 cells and runs at one or two steps.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from dnsflow.cli import main

def mostly(valid, bad):
    """A strategy that draws a valid value three times in four."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(bad))


@st.composite
def configs(draw):
    lines = [
        "[grid]",
        f"cells = {draw(mostly(['8', '16'], ['9', '4', 'abc']))}",
        f"bc = {draw(mostly(['periodic', 'dirichlet'], ['moebius']))}",
        "[time]",
        # at most two steps: t / h <= 2.2 for every positive h drawn
        f"h = {draw(mostly(['0.05', '0.07', '0.1'], ['0', '-0.05', 'abc', 'nan']))}",
        f"t = {draw(mostly(['0.11', '0.1'], ['0.05', '0', '-1', 'inf']))}",
        "[initial]",
        "kind = " + draw(mostly(["taylor_green", "zero", "random_solenoidal",
                                 "stream_bump"], ["snapshot", "vortex_soup"])),
        "amplitude = " + draw(mostly(
            ["1.0", "-2.5", "0", "1e154", "1e200", "1e305", "1e306"],
            ["nan", "inf", "-inf", "abc", "1e", ""])),
    ]
    if draw(st.booleans()):
        lines.append("file = {missing}")
    ladder = draw(mostly(["0.1, 0.05", "0.07, 0.05", "0.1"],
                         [None, "0.1, 0", "0.1, -0.05", "0.1, abc",
                          "0.05, inf", ""]))
    if ladder is not None:
        lines += ["[ladder]", f"h = {ladder}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=configs(),
       command=st.sampled_from(["run", "verify", "converge"]),
       threads=st.sampled_from([None, "1", "2", "", "0", "-3", "1.5",
                                "abc"]))
def test_cli_exit_codes_without_traceback(text, command, threads):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text.replace("{missing}", str(Path(tmp) / "no.vtk")))
        err = io.StringIO()
        env = {} if threads is None else {"DNS_FLOW_THREADS": threads}
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            if threads is None:
                os.environ.pop("DNS_FLOW_THREADS", None)
            code = main([command, "--config", str(cfg),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
