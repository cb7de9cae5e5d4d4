"""Property test of ``fasloc estimate``: whatever the capture and flags, it
exits 0, 2 or 3 and prints nothing or one line of strict JSON."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fasloc.cli import main

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# numeric flags: values the command accepts, and values it must reject
GOOD = {
    "--theta": st.floats(-math.pi, math.pi) | st.floats(-1e300, 1e300),
    "--aperture": st.floats(0.0, 2.0),
    "--wavelength": st.just(0.125) | st.floats(0.01, 1.0),
    "--amp-const": st.floats(1e-6, 1e-2),
    "--path-loss-exp": st.floats(1.5, 6.0),
    "--tolerance": st.just(1e-6) | st.floats(1e-9, 1.0),
}
BAD = {
    "--theta": NON_FINITE,
    "--aperture": st.floats(-1e3, -1e-9) | NON_FINITE,
    "--wavelength": st.floats(-1.0, 0.0) | NON_FINITE,
    "--amp-const": st.floats(-1.0, 0.0) | NON_FINITE,
    "--path-loss-exp": st.floats(-6.0, 0.0) | NON_FINITE,
    "--tolerance": st.floats(-1.0, 0.0) | NON_FINITE,
}
# readings around the benchmark scene's -60 dBm, now and then far from it
READINGS = st.floats(-70.0, -50.0) | st.floats(-1e300, 1e300)
BRACKET = st.tuples(st.floats(1e-3, 50.0) | st.floats(1e-160, 1e-3), st.floats(50.0, 1e4))
BAD_BRACKET = st.tuples(st.floats(-1e4, 1e4) | NON_FINITE,
                        st.floats(-1e4, 1e4) | NON_FINITE).filter(
    lambda b: not 0.0 < b[0] < b[1] < math.inf)
# one input error each: a bad flag value, a non-finite reading, a capture of
# another width, an empty capture, a bad bracket, `single` on several ports
FAULTS = [*BAD, "reading", "width", "empty", "bracket", "ports"]


@st.composite
def estimate_calls(draw):
    """(capture text, argv tail, faults) of one ``estimate`` call."""
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    method = draw(st.sampled_from(["mle", "ls", "single"]))
    if method == "single":
        n_ports = draw(st.integers(2, 16)) if "ports" in faults else 1
    else:
        faults.discard("ports")
        n_ports = draw(st.integers(2, 16))
    width = (draw(st.integers(1, 16).filter(lambda w: w != n_ports))
             if "width" in faults else n_ports)
    rows = [] if "empty" in faults else draw(
        st.lists(st.lists(READINGS, min_size=width, max_size=width), min_size=1, max_size=3))
    if "reading" in faults and rows:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = \
            draw(NON_FINITE)
    capture = "".join(f"{t}," + ",".join(repr(v) for v in row) + "\n"
                      for t, row in enumerate(rows))
    argv = [f"--n-ports={n_ports}", f"--method={method}",
            f"--spacing={draw(st.sampled_from(['endpoint', 'index']))}"]
    argv += [f"{flag}={draw(BAD[flag] if flag in faults else good)!r}"
             for flag, good in GOOD.items()]
    if "bracket" in faults or draw(st.booleans()):
        bracket = draw(BAD_BRACKET if "bracket" in faults else BRACKET)
        argv += ["--bracket", *(repr(v) for v in bracket)]
    return capture, argv, faults


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(call=estimate_calls())
# a weighted-ML scan whose neighbouring g values multiply beyond the float range
@example(call=("0,1e99,-1e99,5e98,-3e98,2e98\n",
               ["--n-ports=5", "--aperture=1.0", "--theta=-3.0", "--amp-const=0.01",
                "--method=mle", "--bracket", "1e-112", "80"], set()))
def test_estimate_exits_0_2_or_3_with_at_most_one_strict_json_line(call):
    capture, argv, faults = call
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.txt"
        path.write_text(capture)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(["estimate", "--input", str(path), *argv])
            except SystemExit as exc:  # argparse rejects the flag value
                rc = exc.code
    text = out.getvalue()
    if faults:
        assert (rc, text) == (2, "")
    assert rc in (0, 2, 3)
    if text:
        assert text.endswith("\n") and text.count("\n") == 1
        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["converged"] is (rc == 0)
    else:
        assert rc == 2
