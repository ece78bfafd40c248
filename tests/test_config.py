"""The shared INI reader: one dialect, and every failure a ConfigurationError."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqds.config import ConfigurationError, IniFile
from aqds.netsim import load_script
from aqds.qkd_model import load_link_keys, load_source_params

def write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDialect:
    def test_keys_case_sensitive_and_inline_comments(self, tmp_path):
        ini = IniFile(write(tmp_path, "[S]\nAb = 1 ; note\nab = 2 # note\n"))
        assert ini.sections == {"S": {"Ab": "1", "ab": "2"}}

    def test_values_are_literal(self, tmp_path):
        ini = IniFile(write(tmp_path, "[s]\na = 50%(x)s\n"))
        assert ini.sections["s"]["a"] == "50%(x)s"

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nowhere.ini"):
            IniFile(tmp_path / "nowhere.ini")

    def test_syntax_error_is_one_line_naming_the_file(self, tmp_path):
        path = write(tmp_path, "[s]\na = 1\na = 2\n")
        with pytest.raises(ConfigurationError) as exc:
            IniFile(path)
        assert str(path) in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_bad_value_names_file_section_and_key(self, tmp_path):
        path = write(tmp_path, "[s]\nn = many\n")
        with pytest.raises(ConfigurationError) as exc:
            IniFile(path).fields("s", {"n": int})
        assert str(exc.value).startswith(f"{path}: [s] key 'n': ")


class TestUnknownKeys:
    @pytest.mark.parametrize("loader, text, key", [
        (load_source_params, "[source]\nq_sift = 0.4\n", "q_sift"),
        (load_source_params, "[source]\nBrightness = 1\n", "Brightness"),
        (load_script, "[rule:slow]\naction = delay\ndelat = 20\n", "delat"),
    ])
    def test_rejected_by_name(self, tmp_path, loader, text, key):
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            loader(write(tmp_path, text))

    def test_key_stock_sections_stay_open(self, tmp_path):
        scenarios = load_link_keys(write(
            tmp_path, "[net]\narbitrator-link = Zed\nZed = 10\nAnyLink = 20\n"))
        assert scenarios["net"][1] == {"Zed": 10, "AnyLink": 20}


# per loader: the sections and keys it knows, so that generated files reach
# value parsing and the constructors as well as the syntax checks
GRAMMARS = [
    (load_script, ["rule:a", "rule:b"],
     ["action", "kind", "sender", "receiver", "target", "positions", "delta",
      "payload-hex"]),
    (load_source_params, ["source"],
     ["brightness", "t-cc", "eta-tcc", "t-delta", "q-sift", "f-ec",
      "alpha-db-per-km", "receiver-loss-db"]),
    (load_link_keys, ["lab", "metro"],
     ["arbitrator-link", "message-bytes", "epsilon", "AI", "AB"]),
]
# values stay short so that no receiver count or stock gets large
VALUE = st.one_of(st.sampled_from(["1", "3", "0", "0.5", "1e-10", "r1", "AI",
                                   "forward", "delay", "tamper", "0, 5"]),
                  st.text(max_size=4))


def ini_text(sections, keys):
    entry = st.tuples(st.sampled_from([*keys, "Q_x"]),
                      st.sampled_from(["=", ":", " = "]), VALUE).map("".join)
    header = st.sampled_from([*sections, "DEFAULT", "x"]).map(lambda s: f"[{s}]")
    line = st.one_of(header, entry, entry, entry, st.text(max_size=12))
    return st.tuples(header, st.lists(line, max_size=8)).map(
        lambda t: "\n".join([t[0], *t[1]]))


@pytest.mark.parametrize("loader, sections, keys", GRAMMARS,
                         ids=lambda v: getattr(v, "__name__", ""))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_returns_or_raises_configuration_error(tmp_path, loader, sections,
                                                      keys, data):
    path = write(tmp_path, data.draw(ini_text(sections, keys)))
    try:
        loader(path)
    except ConfigurationError as exc:
        assert str(path) in str(exc)
