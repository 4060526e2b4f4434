"""Fixtures shared by the support tests of the library and of the CLI."""

import pytest

from cusp_atlas import cuspsupport


@pytest.fixture
def support_calls(monkeypatch) -> list:
    """The parameters `cuspsupport.support` is called on, in order."""
    calls = []
    direct = cuspsupport.support

    def counted(p, eta):
        calls.append(p)
        return direct(p, eta)

    monkeypatch.setattr(cuspsupport, "support", counted)
    return calls


@pytest.fixture
def lossy_psi_route(monkeypatch) -> None:
    """Negative control: every psi-route segment loses its last exponent."""
    segment = cuspsupport._segment
    monkeypatch.setattr(cuspsupport, "_segment",
                        lambda top, length, label: segment(top, max(length - 1, 0), label))


@pytest.fixture
def shifted_psi_route(monkeypatch) -> None:
    """Negative control: every psi image moves up one staircase step."""
    psi_map = cuspsupport._psi_map
    monkeypatch.setattr(cuspsupport, "_psi_map",
                        lambda side, normal, char: tuple(i + 2 for i in psi_map(side, normal, char)))
