"""Every subcommand's stdout and exit code match the stored golden reports
(tests/golden_reports.py) byte for byte, floats included."""

import json

import pytest

from golden_reports import CASES, EXIT_CODES, report_path, run_case, write_specs


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    return write_specs(tmp_path_factory.mktemp("golden_specs"))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(case, spec_paths):
    code, stdout = run_case(case, spec_paths)
    assert stdout == report_path(case).read_text()
    assert code == json.loads(EXIT_CODES.read_text())[case[0]]
