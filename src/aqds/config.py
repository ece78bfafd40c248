"""The one INI dialect every aqds config file is read in, and its one error.

Keys and section names are case-sensitive, ``;`` and ``#`` start inline
comments, and values are taken literally (no ``%`` interpolation).  Every
failure -- an unreadable file, broken INI syntax, a missing section, an
unknown key, a value that does not parse or that the built object rejects --
surfaces as a ``ConfigurationError`` naming the file, and the section and key
where there is one.  This module imports no other ``aqds`` module.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Callable, Mapping, TypeVar

T = TypeVar("T")


class ConfigurationError(ValueError):
    """Malformed, unreadable or contradictory configuration."""


def checked(prefix: str, factory: Callable[..., T], *args, **kwargs) -> T:
    """``factory(*args, **kwargs)``, its ValueError re-raised as a
    ``ConfigurationError`` whose message is ``prefix`` and the error's."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from exc


class IniFile:
    """A parsed INI file whose accessors name the file on every error."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            # configparser messages span lines; keep the report to one
            raise ConfigurationError(" ".join(str(exc).split())) from exc
        self.sections: dict[str, dict[str, str]] = {
            name: dict(cp[name]) for name in cp.sections()}

    def error(self, section: str, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self.path}: [{section}] {message}")

    def section(self, name: str) -> dict[str, str]:
        if name not in self.sections:
            raise ConfigurationError(f"{self.path}: no [{name}] section")
        return self.sections[name]

    def only_sections(self, *names: str) -> None:
        """Reject any section not named here."""
        for name in self.sections:
            if name not in names:
                raise self.error(name, "unexpected section")

    def value(self, section: str, key: str, parse: Callable[[str], T]) -> T:
        try:
            return parse(self.sections[section][key])
        except ValueError as exc:
            raise self.error(section, f"key {key!r}: {exc}") from exc

    def fields(self, section: str,
               parsers: Mapping[str, Callable[[str], object]]) -> dict[str, object]:
        """Keyword arguments from a section: key ``a-b`` fills field ``a_b``.

        Only the keys present are returned, so unset fields keep their
        defaults; a key without a parser is rejected.
        """
        for key in self.section(section):
            if key not in parsers:
                raise self.error(section, f"unknown key {key!r}; expected "
                                          f"one of {', '.join(parsers)}")
        return {key.replace("-", "_"): self.value(section, key, parse)
                for key, parse in parsers.items() if key in self.sections[section]}

    def build(self, section: str, factory: Callable[..., T],
              kwargs: Mapping[str, object]) -> T:
        """``factory(**kwargs)``, its ValueError reported against the section."""
        return checked(f"{self.path}: [{section}] ", factory, **kwargs)
