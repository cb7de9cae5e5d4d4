"""Argument lists of the ``fasloc`` command line, by how argparse ends them,
and the small sweep configs that the command-line tests and
``tools/output_digests.py`` share.

``tests/test_cli.py`` parses each list with ``cli._parse_args`` and with the
top-level parser alone and compares the two; ``tools/output_digests.py``
runs each list as a ``python -m fasloc`` process. File names are relative:
``capture12.csv`` (12 ports), ``capture1.csv`` (one port) and ``sweep.json``
(``SNR_SWEEP``) need to exist only where a list is run, not where it is
parsed.
"""

# valid 100-trial config files, one per sweep axis, that bad-input tables vary
SNR_SWEEP = {"sweep_axis": "snr_db", "axis_values": [0, 10], "trials": 100,
             "estimators": ["fas_ls"], "layout": {"n_ports": 4, "aperture": 0.5}}
APERTURE_SWEEP = {"sweep_axis": "aperture_w", "axis_values": [0.1, 0.2], "trials": 100,
                  "estimators": ["fas_ls"], "snr_db": 10, "spacing_h": 0.05}
PORT_SWEEP = {"sweep_axis": "port_count_n", "axis_values": [4, 8], "trials": 100,
              "estimators": ["fas_ls"], "snr_db": 10, "layout": {"aperture": 0.5}}

ESTIMATE = ["estimate", "--input", "capture12.csv", "--n-ports", "12", "--aperture", "0.5",
            "--spacing", "index", "--amp-const", "3.14557575653044e-4"]
INSPECT = ["inspect", "--n-ports", "12", "--aperture", "0.5"]

# lists that parse, by name
VALID = {
    "estimate_mle": [*ESTIMATE, "--theta", "1.0471975511965976", "--method", "mle"],
    "estimate_ls_equals_form": ["estimate", "--input=capture12.csv", "--theta=1.0",
                                "--n-ports=12", "--aperture=0.5", "--spacing=index",
                                "--amp-const=3.14557575653044e-4", "--method=ls",
                                "--bracket", "1", "100", "--tolerance=1e-8"],
    "estimate_negative_theta": [*ESTIMATE, "--theta", "-1.5", "--method", "ls"],
    "estimate_negative_theta_equals_form": [*ESTIMATE, "--theta=-1.5", "--path-loss-exp=3"],
    "estimate_exponent_theta_equals_form": [*ESTIMATE, "--theta=-1e3"],
    "estimate_detached_exponent_theta": [*ESTIMATE, "--theta", "-1e3"],
    "estimate_detached_negative_exponent_theta": [*ESTIMATE, "--theta", "-1e-3"],
    "estimate_detached_leading_point_theta": [*ESTIMATE, "--theta", "-.5"],
    "estimate_single": ["estimate", "--input", "capture1.csv", "--n-ports", "1",
                        "--aperture", "0", "--amp-const", "3.14557575653044e-4",
                        "--theta", "0.5", "--method", "single"],
    "inspect": INSPECT,
    "inspect_abbreviated_flags": ["inspect", "--n-p", "12", "--ap", "0.5", "--mod", "jakes"],
    "inspect_equals_form": [*INSPECT, "--model=independent", "--wavelength=0.1"],
    "reproduce_config": ["reproduce", "--config", "sweep.json", "--out", "table.csv", "--json"],
    "reproduce_negative_seed": ["reproduce", "fig2", "--seed=-3", "--trials", "100",
                                "--out", "fig2.csv"],
}
# lists that argparse ends with SystemExit, by name
EXITS = {
    "no_arguments": [],
    "help": ["-h"],
    "estimate_help": ["estimate", "-h"],
    "inspect_help": ["inspect", "--help"],
    "reproduce_help": ["reproduce", "-h"],
    "version": ["--version"],
    "unknown_command": ["locate", "--n-ports", "12"],
    "estimate_missing_flag": ["estimate", "--input", "capture12.csv"],
    "inspect_missing_flag": ["inspect", "--n-ports", "12"],
    "reproduce_bad_preset": ["reproduce", "fig4"],
    "estimate_bad_method": [*ESTIMATE, "--theta", "1.0", "--method", "newton"],
    "inspect_bad_n_ports": ["inspect", "--n-ports", "twelve", "--aperture", "0.5"],
}
# lists with a flag that their command does not know, by command
UNRECOGNIZED = {
    "estimate": [*ESTIMATE, "--theta", "1.0", "--frobnicate"],
    "inspect": [*INSPECT, "--version"],
    "reproduce": ["reproduce", "fig2", "--trials", "100", "--version"],
}
