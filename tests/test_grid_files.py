"""The shared CLMS/CLMF grid-file codec on malformed files: a reader either
loads the file or raises FormatError, and the CLI turns that into exit 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_mellin import cfmt, cli
from clifford_mellin.algebra import CL02
from clifford_mellin.errors import FormatError
from clifford_mellin.roots import default_pair
from clifford_mellin.signal import GridGeometry, random_signal, read_clms, write_clms

SIGNAL = random_signal(GridGeometry(4, 4, -1.0, 1.0), CL02, seed=1)
SPECTRUM = cfmt.cfmt_forward(SIGNAL, default_pair(CL02))
FORMATS = {
    "clms": (write_clms, read_clms, SIGNAL),
    "clmf": (cfmt.write_clmf, cfmt.read_clmf, SPECTRUM),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Each format's valid 4x4 file as bytes, with a scratch path to rewrite."""
    directory = tmp_path_factory.mktemp("grid-files")
    files = {}
    for kind, (write, read, value) in FORMATS.items():
        path = directory / f"valid.{kind}"
        write(path, value)
        files[kind] = (path.read_bytes(), read, directory / f"scratch.{kind}")
    return files


def _loads_or_format_error(read, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        read(path)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", list(FORMATS))
def test_every_prefix_and_appended_byte(valid_files, kind):
    data, read, path = valid_files[kind]
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            read(path)
    for extra in (b"\x00", b"\n", b"0"):
        path.write_bytes(data + extra)
        with pytest.raises(FormatError, match="payload"):
            read(path)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(FORMATS)), where=st.floats(0.0, 1.0),
       byte=st.integers(0, 255))
def test_one_byte_added_anywhere_loads_or_raises_format_error(valid_files, kind, where, byte):
    data, read, path = valid_files[kind]
    at = int(where * len(data))
    _loads_or_format_error(read, path, data[:at] + bytes([byte]) + data[at:])


@pytest.mark.parametrize("command, kind", [("transform", "clms"), ("invert", "clmf")])
def test_cli_exits_2_on_a_payload_one_byte_short(valid_files, tmp_path, capsys, command, kind):
    data = valid_files[kind][0]
    path = tmp_path / f"short.{kind}"
    path.write_bytes(data[:-1])
    assert cli.main([command, str(path)]) == 2
    assert "format error: payload holds 511 bytes, expected 512" in capsys.readouterr().err



@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command, kind", [("transform", "clms"), ("invert", "clmf")])
def test_cli_exits_2_on_a_non_finite_payload(valid_files, tmp_path, capsys, command, kind, value):
    # the payload has the right size, but its last float is not finite
    data = valid_files[kind][0]
    path = tmp_path / f"nonfinite.{kind}"
    path.write_bytes(data[:-8] + np.array([value], dtype="<f8").tobytes())
    assert cli.main([command, str(path)]) == 2
    assert "format error: invalid payload" in capsys.readouterr().err
