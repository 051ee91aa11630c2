"""Malformed and extreme configs reach the user as an exit code.

Every command must end with one of the documented exit codes (0 ok,
1 verification failed, 2 usage/config/I/O error, 3 solver failure) and never
with an exception escaping ``main``, which a user would see as a raw
traceback. Grids stay at 8-16 cells and runs at one or two steps.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from dnsflow.cli import main

def mostly(valid, bad):
    """A strategy that draws a valid value three times in four."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(bad))


@st.composite
def configs(draw):
    """A config text, and whether it must be refused as a config error
    (exit 2): here, when it gives a [time] or [scheme] key twice."""
    lines = [
        "[grid]",
        f"cells = {draw(mostly(['8', '16'], ['9', '4', 'abc']))}",
        f"bc = {draw(mostly(['periodic', 'dirichlet'], ['moebius']))}",
        # a cell size whose square overflows or underflows
        "extent = " + draw(mostly(["6.283185307179586", "1.0"],
                                  ["1e300", "1e-300"])),
        "[time]",
        # at most two steps: t / h <= 2.2 for every positive h drawn, and
        # the bad h and t make t / h overflow (a finite but huge step
        # count would run for ever)
        f"h = {draw(mostly(['0.05', '0.07', '0.1'], ['0', '-0.05', 'abc', 'nan', '1e-320']))}",
        f"t = {draw(mostly(['0.11', '0.1'], ['0.05', '0', '-1', 'inf', '1e308']))}",
        "[initial]",
        "kind = " + draw(mostly(["taylor_green", "zero", "random_solenoidal",
                                 "stream_bump"], ["snapshot", "vortex_soup"])),
        "amplitude = " + draw(mostly(
            ["1.0", "-2.5", "0", "1e154", "1e200", "1e300", "1e305",
             "1e306"],
            ["nan", "inf", "-inf", "abc", "1e", ""])),
    ]
    if draw(st.booleans()):
        lines.append("file = {missing}")
    ladder = draw(mostly(["0.1, 0.05", "0.07, 0.05", "0.1"],
                         [None, "0.1, 0", "0.1, -0.05", "0.1, abc",
                          "0.05, inf", "", "0.1, 0.1"]))
    if ladder is not None:
        lines += ["[ladder]", f"h = {ladder}"]
    # under a repeated header or in one section: refused before anything
    # runs, never read as its last value
    twice = draw(st.sampled_from([None] * 6 + [
        "[time]\nh = 0.1", "[time]\nt = 0.1",
        "[scheme]\ninterp = cubic\ninterp = linear"]))
    if twice is not None:
        lines.append(twice)
    return "\n".join(lines) + "\n", twice is not None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs(),
       command=st.sampled_from(["run", "verify", "converge"]),
       threads=st.sampled_from([None, "1", "2", "", "0", "-3", "1.5",
                                "abc"]))
# a repeated converge rung, whose order would divide by log2(h / h) = 0;
# the draws above reach this combination too rarely to be relied on
@example(case=("[grid]\ncells = 8\n[time]\nh = 0.1\nt = 0.1\n[ladder]\n"
               "h = 0.1, 0.1\n", False),
         command="converge", threads=None)
# h given twice in one section, which ran at the last value, h = 0.5
@example(case=("[grid]\ncells = 8\n[time]\nh = 0.05\nh = 0.5\nt = 1.0\n",
               True),
         command="run", threads=None)
# a box cell size whose square overflows: OverflowError from spacing ** 2
@example(case=("[grid]\ncells = 16\nbc = dirichlet\nextent = 1e300\n"
               "[time]\nh = 0.1\nt = 0.1\n[initial]\nkind = zero\n", False),
         command="run", threads=None)
# a cell size whose square is subnormal: 1/dx^2 overflowed, and the
# torus run failed at step 1 with exit 3 where the config is at fault
@example(case=("[grid]\ncells = 16\nextent = 1e-155\n[time]\nh = 0.1\n"
               "t = 0.1\n[initial]\nkind = random_solenoidal\n", True),
         command="run", threads=None)
# T / h overflows: OverflowError from floor(T / h)
@example(case=("[grid]\ncells = 8\n[time]\nh = 1e-320\nt = 0.1\n", False),
         command="run", threads=None)
# every step finite, but T**4 of the weak residual overflows
@example(case=("[grid]\ncells = 16\n[time]\nh = 1e77\nt = 2e77\n"
               "[ladder]\nh = 1e77, 5e76\n", False),
         command="verify", threads=None)
# both material-derivative quadrature gaps underflow to 0: M8 / M16
# divided by zero
@example(case=("[grid]\ncells = 16\nextent = 1e-150\n[time]\nh = 0.05\n"
               "t = 0.1\n[initial]\nkind = random_solenoidal\n"
               "amplitude = 1e-150\n[ladder]\nh = 0.05, 0.025\n", False),
         command="verify", threads=None)
def test_cli_exit_codes_without_traceback(case, command, threads):
    text, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text.replace("{missing}", str(Path(tmp) / "no.vtk")))
        err = io.StringIO()
        flags = [] if threads is None else ["--threads", threads]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg),
                         "--out", str(Path(tmp) / "out"), *flags])
    assert code in (0, 1, 2, 3)
    if refused:
        assert code == 2
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
