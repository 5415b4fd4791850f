import pytest

from energia import precision
from energia.cli import main
from energia.errors import BadParamsError


def test_precision_bits_from_environment(monkeypatch):
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    assert precision.precision_bits() == precision.DEFAULT_PRECISION_BITS
    monkeypatch.setenv(precision.PRECISION_ENV, "100")
    assert precision.precision_bits() == 100
    monkeypatch.setenv(precision.PRECISION_ENV, "8")
    assert precision.precision_bits() == 64


@pytest.mark.parametrize("raw", ["abc", "12.5", ""])
def test_malformed_precision_bits_fail_loudly(monkeypatch, raw):
    monkeypatch.setenv(precision.PRECISION_ENV, raw)
    with pytest.raises(BadParamsError) as exc:
        precision.precision_bits()
    assert precision.PRECISION_ENV in str(exc.value)
    assert repr(raw) in str(exc.value)


def test_malformed_precision_bits_in_the_cli(monkeypatch, capsys, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1 2 3\n")
    monkeypatch.setenv(precision.PRECISION_ENV, "lots")
    assert main(["energy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ENERGIA_PRECISION_BITS='lots'" in captured.err
