import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount import SUITES, cli, counting, kummer, verify
from hypcount.errors import HypcountError
from hypcount.fps import Series


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- series -----------------------------------------------------------------


def test_series_A1_text(capsys):
    code, out, _ = run(capsys, "series", "--name", "A", "--k", "1", "--order", "6")
    assert code == 0
    assert out.strip() == "q + 3q^2 + 4q^3 + 7q^4 + 6q^5 + 12q^6"


def test_series_delta_prefix(capsys):
    code, out, _ = run(capsys, "series", "--name", "delta_inv", "--order", "3")
    assert code == 0
    assert out.strip() == "1 + 24q + 324q^2 + 3200q^3"


def test_series_A0_convention(capsys):
    code, out, _ = run(capsys, "series", "--name", "A", "--k", "0", "--order", "4")
    assert code == 0
    assert out.strip() == "1"


def test_series_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "series", "--name", "nope", "--order", "4")
    assert code == 2
    assert "unknown form" in err


@pytest.mark.parametrize("name", ["E", "delta_inv"])
def test_series_index_on_unindexed_form_is_usage_error(capsys, name):
    code, out, err = run(capsys, "series", "--name", name, "--k", "3", "--order", "4")
    assert (code, out, err) == (2, "", f"error: form {name} takes no index\n")


@pytest.mark.parametrize("name", ["A", "C"])
def test_series_deep_index_past_order_is_zero(capsys, name):
    code, out, _ = run(capsys, "series", "--name", name, "--k", "1000", "--order", "4")
    assert code == 0
    assert out.strip() == "0"


def test_series_json_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "series", "--name", "E", "--order", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "E" and data["coeffs"][1] == "1" and data["coeffs"][3] == "4"

    path = tmp_path / "e.csv"
    code, _, _ = run(
        capsys, "series", "--name", "E", "--order", "5", "--format", "csv", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().splitlines()[2] == "1,1"


def test_env_order_precedence(capsys, monkeypatch):
    monkeypatch.setenv("HYPCOUNT_ORDER", "3")
    code, out, _ = run(capsys, "series", "--name", "A", "--k", "1")
    assert code == 0 and out.strip() == "q + 3q^2 + 4q^3"
    # explicit flag beats the environment
    code, out, _ = run(capsys, "series", "--name", "A", "--k", "1", "--order", "2")
    assert code == 0 and out.strip() == "q + 3q^2"


def test_env_order_not_an_integer_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HYPCOUNT_ORDER", "abc")
    code, out, err = run(capsys, "series", "--name", "E")
    assert (code, out) == (2, "")
    assert err == "error: HYPCOUNT_ORDER must be an integer, got 'abc'\n"


@pytest.mark.parametrize("order, message", [
    (cli.ORDER_MAX + 1, f"error: order must be <= {cli.ORDER_MAX}\n"),
    (-1, "error: order must be >= 0\n"),
])
def test_order_out_of_range_is_usage_error(capsys, monkeypatch, tmp_path, order, message):
    # rejected before any series is built, from the flag and the environment alike
    for argv in (["verify", "--order", str(order)], ["series", "--name", "E", "--order", str(order)]):
        assert run(capsys, *argv) == (2, "", message)
    monkeypatch.setenv("HYPCOUNT_ORDER", str(order))
    forms = tmp_path / "forms"
    assert run(capsys, "cache", "--action", "write", "--dir", str(forms)) == (2, "", message)
    assert not forms.exists()


# stdout digests of the README's command-line examples: refactors must keep
# them byte-identical.  `verify` is left out because its detail text is not
# a contract, `cache` because test_cache_write_is_byte_stable pins it.
README_PINS = [
    ("series --name A --k 1 --order 6", "fdd9aec0e3f2c52a8871876df48d752cd6642f1c866356e735857a2fb4d61c21"),
    ("series --name delta_inv --order 3", "6b05f32702813eb7c1f71ecc102bf4ec195ea936ee32fef54be6bd64bb9ce9b5"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 16", "d9c3dcf2d532dafe07c20ceab195d3a2e783152143e3b692017d6cc3abeb51a4"),
    ("genus --g 3 --order 12 --table", "262675d4195eacc9417b758dd3479d96e928e13d16cc9ea41ba9f5cdd575cc31"),
    ("genus --g 2 --order 8 --format json", "cbc921bd497134f6fb67ee2d63ee1449e4afd02622b53046afd45e37b402dd49"),
    ("orbits --degree 8 --format json", "62730631524480df83aaf6149b018d8cd2432dbf11d6f9a28c7d274d5a3b3e24"),
]


# stdout digests of the other text, csv and json layouts, which all pass
# through the one write in cli.main
LAYOUT_PINS = [
    ("series --name A --k 2 --order 10 --format json", "0e144287aaa97e19d056f886ea7d816613360876795df7e3b6e539a4bdc35e77"),
    ("series --name delta_inv --order 8 --format csv", "d5a7fd04b8822e3b1bbdc9a0ecd270df0132c55eabfebaeda8dcef865812ea58"),
    ("series --name delta_inv --order 2048 --format json", "bd56e9231f7c1f4da024b934ca5950e508fe1c45c4ebb3558d2e369affe5a212"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 12 --format json", "01338a4d061e40eed1842f5e0f426dc2c1fb7ebf7844efa12d9d4ec33bc87aaa"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 12 --format csv", "ccadbb7e8c9589851a43d623ab0143b86315189cb2920219ceedf843caf580ea"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 12", "f0e1e7f05a9ba61fc7b36e0aecd3641b9cd8bfc60e0af2a3fe6677a0a0a575a6"),
    ("fgk --config 1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0 --order 12 --format json", "975619bae40bdc214389b4fe15fc6af467d25ac1444e089c2fa0771c9da87974"),
    ("fgk --config 1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0 --order 12 --format csv", "48f97dd82bdb71327901000f85184ab325d39126922c1bbd960d4a3cf00f3ec1"),
    ("fgk --config 1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0 --order 12", "b03e43f85c85bb31ef99e48b8e555f635eb9b26cb3d702a81fc60a5d2345dede"),
    ("genus --g 3 --order 12", "73a2dae0d9edf7c1ff8ab109ffd507999d70543f26b773d3e6fec78d5ad1836b"),
    ("genus --g 3 --order 12 --format csv", "df75afdd1960768b2ecad564810227bf4237d2561c3e830d10ce0e88735358b3"),
    ("genus --g 5 --table", "de9963571181ca6c9d9cfc9f01df877d14e2176c214a2bd51834eb4d3fc4e688"),
    ("orbits --degree 6", "8efdde472ad2a5399f7cf10f4a7f4b6a1a879cb211627becd71b22d7af5d1bfe"),
    ("orbits --degree 6 --format csv", "0652502822b965facff8399716967c4eed5385fd662af9ac44edb6b3968fa855"),
    ("orbits --degree 10 --format csv", "a3d27d3e691c0a604c955a42392465f0fac1744299991acd90ee4f0963ffd049"),
    ("orbits --degree 12 --format json", "66bca2f05fe16c882572c94a1d17389c0561c790616cbf10853c7b494596d566"),
    ("genus --g 4 --order 12 --format json", "995e45a0749fb13b8f79254f20dd46576842525b098e582f874734cda13c6d2d"),
    ("series --name legendre --order 2048 --format json", "fd7e510aecf0069eb6d93e8c5862e38a0b9e79276a583f6ee0a2f524ae5d842a"),
    ("series --name E2 --order 64 --format json", "2dc3221809a255fc8b6337eb2f0c9041fc45b90f54f417fdd16f69325947d0c7"),
    # the largest Burnside walks: degree 18, and degree 26 at the largest legal genus
    ("genus --g 8 --order 40", "54f89b6957e019f82149fc0544c4b43ac9349c85e895e79f2b60cc6e1acbf414"),
    ("genus --g 12", "a1baf3f22ae407e4b8e7760776118bc195584d8a3d32330b641f810803da27bd"),
    ("genus --g 12 --format csv", "9bca5dabaa1f172f961dfb33143c8172c040ef6d57bab2643a57de8ec69286c0"),
    # the largest listings, past the degree 12 that the encoding tests reach
    ("orbits --degree 14 --format json", "fb7c2c36311bc70ca01a6d1b46423867f678867c2eebbbe9c6dd7a34fcba7f13"),
    ("orbits --degree 16 --format csv", "5133590d4444eb3a70c448dcd439a22d6abebecd4204713e66b3ef9efbb75ebf"),
    ("orbits --degree 16 --format json", "25c853831107e4fc40aab4bb3513c57c2731b5f219ac6df56619682624bb00c4"),
    ("orbits --degree 16", "ce66b6ecef763ee7d91603f6fb7af2d71c6e9e59d768d9316f64b4aab793048b"),
    # the largest genus listing, and one with a single coefficient per row:
    # every row of a (shape, coset) is spliced into one encoded template
    ("genus --g 7 --format json", "69d8dd280ca845da096ae2841889ce596b011e71fddbd0423a4e52a774d864d8"),
    ("genus --g 1 --order 0 --format json", "fc92f3c12681a6a2f7934f20e56011d61188176b067a3efd5ce63fc6fcf0d90d"),
    # orders not divisible by 4, where each factor's order // m rounds down
    ("genus --g 6 --order 127 --table", "abaa1c227260ee149a1e6ae71acde54ad9a1a8ccd3db6ffa33b620ecd6a98491"),
    ("genus --g 7 --order 129 --format csv", "f9a2698406d5dad59931b0d5f40b6ab95a5fc869e5b5c901267e3fb8eb6072b5"),
    # A_20 and C_20, deep in each MacMahon recursion (the cache roster stops at k = 5)
    ("series --name A --k 20 --order 2048 --format json", "44466e26a6dced3ae2ef5aba17c753b2e5f297d048764d0eb16ed784b720b838"),
    ("series --name C --k 20 --order 2048 --format json", "5d0df3beb4f5f1b6171086d38fd8efb705922be88f4a68311775df380f14070f"),
    # the streamed layouts at their edges: no coefficient column at order 0,
    # one at order 1 or 2, and long series in each format
    ("genus --g 1 --order 0 --table", "88ba8d975e5214f9fa5bc63224fcf260963ed06150d18d6681e84220baf8074a"),
    ("genus --g 1 --order 0 --format csv", "e855c23d49b1ff6a1195fe61d1665d09a64f7221a127629ff91c42d003d07034"),
    ("genus --g 2 --order 1 --table", "c05033d4294c8940af82e7c30bd34679103144e7f0bd86a21bfa0449e494e43e"),
    ("genus --g 2 --order 2 --format csv", "8c353670819ae072cd94c7d44aaa835e164e9994505e57ae4bccaea34c5f4fcb"),
    ("series --name delta_inv --order 2048", "51c92fd1ed8b4d9372893645212377245344a6c79f5fd31340912682ad63f05d"),
    ("series --name delta_inv --order 2048 --format csv", "c00fc4dd36a17e9ead64c164a5192a030bd4d5ec21942c6ad5ca24ac6c501d6b"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 2048", "8f45bea2b90f4a221c4c579072391865dee49160f6406d987599b6df5687fc4d"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 2048 --format csv", "704865ddee3c4760ad5596ac8183a8c509219d6694acc49e2117cdf9acd3d01e"),
    ("fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 2048 --format json", "a39a65afc1f511234bedbc42908b96fdafaff69f3618cae9dd4939e866729054"),
]


@pytest.mark.parametrize(
    "argv, digest", README_PINS + LAYOUT_PINS, ids=[p[0] for p in README_PINS + LAYOUT_PINS]
)
def test_readme_example_stdout_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("HYPCOUNT_ORDER", raising=False)  # `genus --g 5 --table` uses the default
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        "series --name E --order 4",
        "fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --order 4",
        "genus --g 2 --order 4",
        "orbits --degree 4",
    ],
)
def test_out_into_missing_directory_is_one_line_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv.split(), "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_json_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "genus", "--g", "2", "--order", "10", "--format", "json")
    _, second, _ = run(capsys, "genus", "--g", "2", "--order", "10", "--format", "json")
    assert first == second


# -- canonical JSON writer ----------------------------------------------------


def reference_json(value) -> str:
    """The canonical encoding: cli writes these bytes, listings in pieces."""
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


# non-ASCII, control and astral characters all take \u escapes
json_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), json_text),
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(json_text, children, max_size=5)
    ),
    max_leaves=30,
)
shared = ["\u00e9", 3]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(json_values)
@example([1, None])
@example([None, 1])
@example([[1], "x"])
@example([1, True])
@example(["x", False, 2])
@example([[], {}, [[]], {"": {}}])
@example("\x00\x1f\"\\\u2028\U0001f600")
@example({"a": shared, "b": [shared, {"c": shared}], "d": shared})
@example(["a", 1])
@example([2**100, -1])
@example([True, False])
@example([])
@example({"rows": ["x", 1, None, [2, "y"], {"z": True}], "total": ["1"]})
@example(["\n", "\u2028", "\0", {"\0\n": "\0"}])
def test_holes_reindent_only_indent_breaks(value):
    # json.dumps escapes every line break inside a string, so the text of a
    # value one level down is its own text with each line break re-indented
    nested = json.dumps([value], sort_keys=True, indent=2)
    assert nested == "[\n  " + cli._HOLE.join(cli._holes(value, "\n  ")) + "\n]"


@pytest.mark.parametrize("g", range(1, 6))
def test_genus_json_listing_equals_reference_encoding(capsys, g):
    code, out, _ = run(capsys, "genus", "--g", str(g), "--order", "32", "--format", "json")
    assert code == 0
    assert out == reference_json(counting.genus_total(g, 32).to_json())


@pytest.mark.parametrize("degree", range(4, 13, 2))
def test_orbits_json_listing_equals_reference_encoding(capsys, degree):
    code, out, _ = run(capsys, "orbits", "--degree", str(degree), "--format", "json")
    assert code == 0
    payload = [
        {"rep": list(rep), "orbit_size": size, "coset": coset, "shape": counting.shape_label(rep)}
        for rep, size, coset in kummer.translation_orbits(degree)
    ]
    assert out == reference_json(payload)


@pytest.mark.parametrize(
    "argv",
    [
        "genus --g 4 --order 12 --format json",
        "orbits --degree 10 --format json",
        "series --name delta_inv --order 300 --format json",
        "genus --g 3 --order 12 --table",
    ],
)
def test_streamed_listing_out_equals_stdout(capsys, tmp_path, argv):
    _, out, _ = run(capsys, *argv.split())
    target = tmp_path / "listing.json"
    assert run(capsys, *argv.split(), "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def traced_peak(fn, *args) -> int:
    # collected first, so freed tuples cannot be reused off the free list
    # untraced and shrink one peak and not the other
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv",
    [
        "genus --g 5 --order 32 --format json",
        "orbits --degree 12 --format json",
        "orbits --degree 12 --format csv",
        "orbits --degree 12 --format text",
    ],
)
def test_listing_holds_little_beyond_its_orbit_list(tmp_path, argv):
    # each row is built as it is written, so a listing holds its packed rows
    # and one row at a time; building every row first peaked at 2.7-3x
    argv = [*argv.split(), "--out", str(tmp_path / "listing")]
    assert cli.main(argv) == 0  # warms the count and orbit caches
    assert traced_peak(cli.main, argv) < 1.5 * traced_peak(kummer.translation_orbits, 12)


def test_listing_holds_packed_rows_not_orbits(tmp_path):
    # one 18-byte row per class: the listing peaked at 0.26x the Orbit list
    # of its degree, and at 1.02x when it held that list
    argv = ["orbits", "--degree", "14", "--format", "json", "--out", str(tmp_path / "listing")]
    assert cli.main(argv) == 0  # warms the shape labels
    assert traced_peak(cli.main, argv) < 0.5 * traced_peak(kummer.translation_orbits, 14)


def test_listing_keeps_no_text_between_rows():
    # rows are built as they are written: four times the orbits must not
    # raise the peak, which a listing holding its rows would quadruple
    report = counting.genus_total(5, 32)
    doc = dict(genus=5, order=32, orbits=["\0"], total=report.total.to_json()["coeffs"])

    def drain(orbits):
        for _ in cli._listing(doc, orbits, report.shapes):
            pass

    once, four = (traced_peak(drain, orbits) for orbits in (report.orbits, report.orbits * 4))
    assert abs(four - once) < 0.1 * once


@pytest.mark.parametrize(
    "argv, message",
    [
        ("genus --g 8 --order 4 --format json", "genus must be between 1 and 7 with --format json"),
        ("orbits --degree 18 --format json", "degree must be <= 16"),
    ],
)
def test_rejected_json_listing_writes_nothing(capsys, tmp_path, argv, message):
    # cmd_genus and cmd_orbits validate before they return their pieces
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")
    target = tmp_path / "listing.json"
    assert run(capsys, *argv.split(), "--out", str(target)) == (2, "", f"error: {message}\n")
    assert not target.exists()


@pytest.mark.parametrize("argv", ["genus --g 3 --format json", "orbits --degree 8 --format csv"])
def test_listing_enumerates_before_it_writes(capsys, monkeypatch, tmp_path, argv):
    # the rows are built lazily, but the packed rows they read are enumerated
    # before the command returns, so a failing enumeration writes nothing
    def failing(degree):
        raise HypcountError("enumeration failed")

    monkeypatch.setattr(kummer, "orbit_rows", failing)
    target = tmp_path / "listing"
    failed = (1, "", "error: enumeration failed\n")
    assert run(capsys, *argv.split()) == failed
    assert run(capsys, *argv.split(), "--out", str(target)) == failed
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "series --name delta_inv --order 4096",
        "series --name delta_inv --order 4096 --format csv",
        "series --name delta_inv --order 4096 --format json",
        "genus --g 8 --order 128 --table",
        "genus --g 8 --order 128 --format csv",
    ],
)
def test_layout_is_written_in_pieces(monkeypatch, argv):
    # every layout is formatted as it is written, so no piece holds more
    # than a tenth of the document (0.1-0.9 MB here); a document joined
    # before the write came as one piece
    sizes = []

    class Stdout:
        def writelines(self, pieces):
            sizes.extend(map(len, pieces))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.main(argv.split()) == 0
    assert len(sizes) > 1 and max(sizes) <= sum(sizes) / 10


# -- fgk --------------------------------------------------------------------


def test_fgk_text(capsys):
    cfg = "1,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0"
    code, out, _ = run(capsys, "fgk", "--config", cfg, "--order", "6")
    assert code == 0
    assert "coset   : even" in out
    assert "series  : 1" in out


def test_fgk_json_reports_both_indexings(capsys):
    cfg = "3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0"
    code, out, _ = run(capsys, "fgk", "--config", cfg, "--order", "9", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "A1(u^4)"
    assert data["coeffs"][4] == "1"  # n = 4, i.e. arithmetic genus h = 5


def test_fgk_bad_profile_is_usage_error(capsys):
    code, _, err = run(capsys, "fgk", "--config", "1,2,3", "--order", "4")
    assert code == 2 and "16" in err


def test_fgk_non_integer_profile_is_usage_error(capsys):
    cfg = ",".join(["1", "x"] + ["0"] * 14)
    code, out, err = run(capsys, "fgk", "--config", cfg, "--order", "4")
    assert (code, out) == (2, "")
    assert err == f"error: profile must be 16 comma-separated integers, got {cfg!r}\n"


def test_fgk_odd_total_is_usage_error(capsys):
    cfg = ",".join(["1"] * 3 + ["0"] * 13)
    code, _, err = run(capsys, "fgk", "--config", cfg, "--order", "4")
    assert code == 2


# -- genus ------------------------------------------------------------------


def test_genus_table_row(capsys):
    code, out, _ = run(capsys, "genus", "--g", "3", "--order", "12", "--table")
    assert code == 0
    rows = {line.split()[0]: line for line in out.strip().splitlines()[1:]}
    assert rows["E^2"].split()[1:] == ["3", "1", "8", "28", "64", "126", "224"]
    assert rows["F_3(u)"].split()[1:] == [
        "3", "10", "45", "66", "180", "204", "474", "454", "972", "870", "1747",
    ]


# stdout digests of the csv and text table layouts, which share one cell
# builder; the g = 5 table holds a shape that vanishes to the order, which
# once crashed the row sort
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("genus --g 3 --order 12 --format csv", "df75afdd1960768b2ecad564810227bf4237d2561c3e830d10ce0e88735358b3"),
        ("genus --g 5 --order 16 --table", "70f1fbfd868b48a3841ebc61a9661387812a656361deaef3abf0d7b24d9473c2"),
    ],
)
def test_genus_table_layout_is_byte_stable(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_genus_csv_layout(capsys):
    code, out, _ = run(capsys, "genus", "--g", "3", "--order", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("shape,multiplicity,q^2,")
    assert lines[-1].startswith("F_3(u),")
    assert len(lines) == 1 + 8 + 1  # header, shape rows, total


def test_genus_text_totals(capsys):
    code, out, _ = run(capsys, "genus", "--g", "2", "--order", "8")
    assert code == 0
    assert "total: u + 3u^2 + 4u^3 + 7u^4 + 6u^5 + 12u^6 + 8u^7 + 15u^8" in out

    code, out, _ = run(capsys, "genus", "--g", "1", "--order", "4")
    assert code == 0
    assert "total: 1" in out


def test_genus_out_of_range(capsys):
    code, _, err = run(capsys, "genus", "--g", "13", "--order", "4")
    assert code == 2
    assert err.count("\n") == 1 and "between 1 and 12" in err
    code, _, err = run(capsys, "genus", "--g", "8", "--order", "4", "--format", "json")
    assert code == 2
    assert err.count("\n") == 1 and "between 1 and 7" in err
    code, out, _ = run(capsys, "genus", "--g", "12", "--order", "4")
    assert code == 0
    assert out.startswith("genus 12: 7694506 orbit classes")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_genus_table_with_another_format_is_usage_error(capsys, monkeypatch, fmt):
    # --table is a text layout; the pair is rejected before any counting
    def no_counting(g, order):
        raise AssertionError("genus_total called")

    monkeypatch.setattr(counting, "genus_total", no_counting)
    message = f"error: --table is a text layout; it cannot be combined with --format {fmt}\n"
    argv = ["genus", "--g", "3", "--order", "4", "--table", "--format", fmt]
    assert run(capsys, *argv) == (2, "", message)


def _table_total(out):
    """The F_g(u) row of the table layout by column: cells are right-aligned
    under the q^n headers and an empty cell is zero."""
    lines = out.splitlines()
    header, row = lines[0], lines[-1]
    assert row.startswith("F_")
    total = {}
    start = header.index("mult") + len("mult")
    for m in re.finditer(r"q\^(\d+)", header):
        cell = row[start : m.end()].strip()
        total[int(m.group(1))] = int(cell) if cell else 0
        start = m.end()
    return total


@pytest.mark.parametrize("g, order", [(5, 32), (3, 11), (1, 101)])
def test_genus_table_total_matches_text_and_json(capsys, g, order):
    # a shape series that vanishes to this order used to crash the table sort;
    # from q^100 on a header is wider than its column's minimum width
    argv = ("genus", "--g", str(g), "--order", str(order))
    code, table, _ = run(capsys, *argv, "--table")
    assert code == 0
    assert len({len(line) for line in table.splitlines()}) == 1
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    total = [int(c) for c in json.loads(out)["total"]]
    assert _table_total(table) == {n: total[n] for n in range(2, order + 1)}
    assert f"total: {Series(total, order).format(var='u')}\n" in text


# -- orbits -----------------------------------------------------------------


def test_orbits_json_schema(capsys):
    code, out, _ = run(capsys, "orbits", "--degree", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert set(data[0]) == {"rep", "orbit_size", "coset", "shape"}
    assert sum(row["orbit_size"] for row in data) == 80


# stdout digests of the benchmark's pinned orbit listings
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("orbits --degree 10 --format csv", "a3d27d3e691c0a604c955a42392465f0fac1744299991acd90ee4f0963ffd049"),
        ("orbits --degree 12 --format json", "66bca2f05fe16c882572c94a1d17389c0561c790616cbf10853c7b494596d566"),
    ],
)
def test_orbit_listing_is_byte_stable(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orbits_bad_degree(capsys):
    code, _, _ = run(capsys, "orbits", "--degree", "3")
    assert code == 2


@pytest.mark.parametrize("env", ["x", "99999", "-1"])
def test_orbits_ignores_order_environment(capsys, monkeypatch, env):
    # orbits has no order, so a value that other commands reject is not read
    monkeypatch.delenv("HYPCOUNT_ORDER", raising=False)
    plain = run(capsys, "orbits", "--degree", "4")
    monkeypatch.setenv("HYPCOUNT_ORDER", env)
    assert run(capsys, "orbits", "--degree", "4") == plain
    assert plain[0] == 0 and plain[1].startswith("degree 4: ")


def test_orbits_rejects_order_flag(capsys):
    code, out, err = run(capsys, "orbits", "--degree", "4", "--order", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--order" in err


def test_orbit_listing_labels_each_value_multiset_once(capsys):
    counting._label.cache_clear()
    assert cli.main(["orbits", "--degree", "12", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2045
    # a miss builds a label: one per value multiset of the 2045 classes
    assert counting._label.cache_info().misses == 38


@pytest.mark.parametrize("degree", ["18", "40"])
def test_orbits_degree_past_listing_limit_is_usage_error(capsys, degree):
    # rejected before enumerating: degree 40 once ran until killed, and
    # degree 18 took 4.4 s and 126 MB
    assert run(capsys, "orbits", "--degree", degree) == (2, "", "error: degree must be <= 16\n")


# -- verify -----------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_all():
    results, _ = verify.run_suite(["all"], 16)
    return {f"{r.suite}:{r.name}": r for r in results}


@pytest.mark.parametrize("tag", [f"{suite}:{name}" for suite, name, _, _ in verify.CHECKS])
def test_verify_check(verify_all, tag):
    result = verify_all[tag]
    if tag == "counting:table-total-row":
        # the full enumeration exceeds the reference total by the three
        # A1(u^4)^2 classes (see the README)
        assert not result.ok
        assert "computed 474, reference 471" in result.detail
    else:
        assert result.ok, result.detail


def test_verify_all_has_single_known_failure(capsys):
    # test_verify_check covers every other check; the counting suite holds
    # the one expected failure
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--order", "16")
    assert code == 1
    lines = out.splitlines()
    failing = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failing) == 1 and "table-total-row" in failing[0]
    assert lines[-1].endswith("checks passed")


def test_verify_reports_a_check_that_raises_as_a_fail(capsys, monkeypatch):
    def crash(order, rng):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(verify, "CHECKS", [("fps", "crash", "a crashing check", crash)])
    code, out, _ = run(capsys, "verify", "--suite", "fps", "--order", "4")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] fps:crash  raised ZeroDivisionError: division by zero  (a crashing check)",
        "0/1 checks passed",
    ]


def test_verify_check_ids_are_unique():
    # a duplicate id would shadow a check in the verify_all fixture; the
    # benchmark's verify workload expects exactly 42 checks
    ids = [f"{suite}:{name}" for suite, name, _, _ in verify.CHECKS]
    assert len(set(ids)) == len(ids) == 42


def test_verify_checks_are_grouped_in_suite_order():
    # run_suite reads CHECKS in one pass, so its grouping is the output order
    suites = [suite for suite, _, _, _ in verify.CHECKS]
    assert suites == sorted(suites, key=SUITES.index)
    assert [suites.count(suite) for suite in SUITES] == [5, 13, 9, 5, 10]


def test_verify_output_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--suite", "fps", "--order", "16")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--suite", "fps", "--order", "16")
    assert code == 0
    assert first == second


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


def fresh_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], env=fresh_env(), capture_output=True, text=True, timeout=120
    )


def test_cli_import_leaves_out_dataclasses_and_verify():
    # process start bounds the short commands: the records are namedtuples,
    # and verify loads only when its command runs
    probe = (
        "import sys, hypcount.cli; "
        "print(sorted({'dataclasses', 'inspect', 'hypcount.verify'} & set(sys.modules)))"
    )
    done = fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    done = fresh_python("-m", "hypcount.cli", "verify", "--suite", "fps", "--order", "16")
    assert done.returncode == 0, done.stdout + done.stderr
    last = done.stdout.splitlines()[-1]
    passed, total = last.split()[0].split("/")
    assert passed == total and int(total) > 0


RATIONAL_MODULES = {"fractions", "decimal", "hypcount.trig"}


def modules_loaded_by(*commands):
    """The modules that importing cli and running the commands in turn add in
    a fresh child, past those loaded at its start (``site`` differs by host),
    with the exit codes."""
    probe = (
        "import sys; before = set(sys.modules); from hypcount import cli; "
        f"codes = [cli.main(argv.split()) for argv in {list(commands)!r}]; "
        "added = sorted(set(sys.modules) - before); import json; "
        "print(json.dumps([codes, added]), file=sys.stderr)"
    )
    done = fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    codes, added = json.loads(done.stderr.splitlines()[-1])
    return codes, set(added)


@pytest.mark.parametrize("commands", [
    ["genus --g 5 --table"],
    ["genus --g 4 --format json --out {tmp}/g4.json"],
    ["fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0 --format json"],
    ["orbits --degree 10 --format csv --out {tmp}/o10.csv"],
    ["series --name A --k 3 --order 64 --format json"],
    ["series --name E2 --format json"],
    ["cache --action write --dir {tmp}/c", "cache --action check --dir {tmp}/c"],
], ids=lambda commands: " / ".join(argv.split(" --out")[0] for argv in commands))
def test_integral_commands_load_no_fractions(tmp_path, commands):
    # integral results are written from their integer numerators, and the
    # potential route that needs trig is reached by verify alone
    codes, added = modules_loaded_by(*(argv.format(tmp=tmp_path) for argv in commands))
    assert codes == [0] * len(commands)
    assert "hypcount.counting" in added and not added & RATIONAL_MODULES


def test_rational_text_layout_loads_fractions():
    # the control: E2's -1/24 is written as a Fraction in the text layout
    codes, added = modules_loaded_by("series --name E2")
    assert codes == [0] and "fractions" in added


START_UP_MODULES = {"argparse", "gettext", "json"}


@pytest.mark.parametrize("commands", [
    [],
    ["genus --g 3"],
    ["genus --g 5 --table"],
    ["orbits --degree 10 --format csv"],
    ["fgk --config 3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0"],
], ids=lambda commands: " / ".join(commands) or "import")
def test_text_layouts_load_no_argparse_or_json(commands):
    # a command line is read against cli.COMMANDS, and json is imported by
    # the first JSON text written or read
    codes, added = modules_loaded_by(*commands)
    assert codes == [0] * len(commands)
    assert not added & START_UP_MODULES


def test_json_layout_loads_json():
    # the control: the same probe sees json arrive with a JSON layout
    codes, added = modules_loaded_by("orbits --degree 8 --format json")
    assert codes == [0] and "json" in added and "argparse" not in added


def test_help_lists_the_commands_or_one_commands_flags(capsys):
    done = fresh_python("-m", "hypcount.cli", "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert [line.split()[2] for line in done.stdout.splitlines()] == list(cli.COMMANDS)
    genus = "usage: hypcount genus --g INT [--table] [--order INT] [--format {text,json,csv}] [--out OUT]\n"
    for argv in (["genus", "--help"], ["genus", "--g", "3", "-h"], ["genus", "--bogus", "-h"]):
        assert run(capsys, *argv) == (0, genus, "")
    assert run(capsys, "-h") == (0, done.stdout, "")


@pytest.mark.parametrize("argv, message", [
    ("", "the command must be one of series, fgk, genus, orbits, verify, cache"),
    ("--g 3", "the command must be one of series, fgk, genus, orbits, verify, cache"),
    ("genus", "genus needs --g"),
    ("genus --g", "--g needs a value"),
    ("genus --g 3 --out --table", "--out needs a value"),  # writes no file "--table"
    ("genus --g 0x10", "--g must be an integer, got '0x10'"),
    ("genus --g=", "--g must be an integer, got ''"),
    ("genus --g 3 --table=yes", "unrecognized argument --table=yes for genus"),
    ("genus --g 3 4", "unrecognized argument 4 for genus"),
    ("orbits --deg 10", "unrecognized argument --deg for orbits"),
    ("orbits --degree 4 -d", "unrecognized argument -d for orbits"),
    ("verify --suite nope", "--suite must be one of all, fps, qforms, trig, kummer, counting, got 'nope'"),
    ("cache --dir x", "cache needs --action"),
])
def test_usage_error_is_one_line(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_flag_equals_value_parses_as_flag_value(capsys):
    # a repeated flag keeps its last value
    plain = run(capsys, *"genus --g 3 --order 12 --table".split())
    assert plain[0] == 0
    assert run(capsys, *"genus --g=3 --order=5 --table --order=12".split()) == plain
    assert run(capsys, *"series --name=A --k=1 --order 6".split())[1] == "q + 3q^2 + 4q^3 + 7q^4 + 6q^5 + 12q^6\n"


# Each command's flags with (accepted, rejected) values to draw.  Accepted
# values keep each case cheap: orders up to 64, one verify suite at a time,
# genus JSON at g <= 5, listings at degree <= 12, caches in a fresh
# directory.  Rejected ones are drawn freely, since they are refused before
# any work.  "{tmp}" is each case's own directory, holding a file "afile".
ORDERS = (["0", "3", "16", "64", " 4", "\u0664"],
          [str(cli.ORDER_MAX + 1), "-1", "1e3", "0x10", str(10**20), ""])
LAYOUT = {
    "--format": (["text", "json", "csv"], ["yaml"]),
    "--out": (["{tmp}/out"], ["{tmp}/missing/out", "{tmp}"]),
}
PROFILES = (
    ["3,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0", "1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0",
     "40,0,0,0,1,0,0,0,1,0,0,0,1,0,0,1"],
    ["-1,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0", "x,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0",
     "1,1,1,1,0,0,0,0,0,0,0,0,0,0,0", ",".join("0" * 17), "1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0", ""],
)
GRAMMAR = {  # command: ({flag: (accepted, rejected)}, its required flags)
    "series": ({"--name": (["A", "C", "E2", "delta_inv"], ["nope"]),
                "--k": (["0", "5", "200"], ["-1", "x"]), "--order": ORDERS, **LAYOUT}, ["--name"]),
    "fgk": ({"--config": PROFILES, "--order": ORDERS, **LAYOUT}, ["--config"]),
    "genus": ({"--g": (["1", "3", "5", " 4"], ["13", "0", "1e3"]),
               "--table": ([None], ["x"]), "--order": ORDERS, **LAYOUT}, ["--g"]),
    "orbits": ({"--degree": (["4", "8", "12", "\u0664"], ["18", "7", "0x10"]), **LAYOUT},
               ["--degree"]),
    # verify runs every suite without --suite, so the law never drops it
    "verify": ({"--suite": (list(SUITES), ["nope"]), "--order": ORDERS}, ["--suite"]),
    "cache": ({"--action": (["write", "check", "clear"], ["nope"]), "--order": ORDERS,
               "--dir": (["{tmp}/c"], ["{tmp}/afile", "{tmp}"])}, ["--action", "--dir"]),
}
FOREIGN = ["--bogus", "--deg", "--ord", "--order", "-h", "5"]


@st.composite
def command_lines(draw):
    """A command line of the grammar: the command's required flags and any
    others, with accepted values, each as `--flag value` or `--flag=value`;
    then up to two faults, each a flag given last with a rejected value, a
    repeated or dropped flag, a foreign token or a flag without its value."""
    command = draw(st.sampled_from([*GRAMMAR] * 4 + ["bogus", "--order"]))
    flags, required = GRAMMAR.get(command, ({"--order": ORDERS}, []))
    names = required + [name for name in flags if name not in required and draw(st.booleans())]
    items = [[name, draw(st.sampled_from(flags[name][0]))] for name in names]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        fault = draw(st.sampled_from(["rejected"] * 3 + ["repeated", "dropped", "foreign", "bare"]))
        at = draw(st.integers(0, len(items)))
        name = draw(st.sampled_from(sorted(flags)))
        if fault == "rejected":  # the last of a repeated flag counts
            items.append([name, draw(st.sampled_from(flags[name][1]))])
        elif fault == "repeated":
            items.insert(at, [name, draw(st.sampled_from(flags[name][0]))])
        elif fault == "foreign":
            items.insert(at, [draw(st.sampled_from(FOREIGN)), None])
        elif at == len(items) or fault == "dropped" and command == "verify":
            continue
        elif fault == "dropped":
            del items[at]
        else:
            items[at][1] = None
    argv = [command]
    for name, value in items:
        if value is None:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(command_lines())
@example(["orbits", "--degree", "18"])  # the listing limits, which the draws seldom reach
@example(["genus", "--g", "13", "--format", "json"])
def test_any_command_line_ends_in_an_exit_code_never_an_exception(argv):
    # bad input as a law: exit 0, 1 or 2, and on 2 one `error:` line
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name in ("HYPCOUNT_ORDER", "HYPCOUNT_CACHE_DIR"):
            mp.delenv(name, raising=False)
        mp.chdir(tmp)  # a bare --out takes a next token such as 5 as its file name
        open(os.path.join(tmp, "afile"), "w").close()
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code}) escaped main for {argv}")
    assert code in (0, 1, 2), argv
    if code == 2:
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", argv


def test_reader_closing_stdout_early_is_not_an_error():
    # `hypcount orbits --degree 12 --format json | head -c 100`, and the same
    # for a long JSON series and a wide table, each streamed in pieces
    for argv, start in [
        ("orbits --degree 12 --format json", b"[\n  {"),
        ("series --name delta_inv --order 4096 --format json", b'{\n  "coeffs": [\n    "1",'),
        ("genus --g 8 --order 128 --table", b"shape "),
    ]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "hypcount.cli", *argv.split()],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(start), argv
        assert (err, proc.returncode) == (b"", 0), argv


@pytest.mark.parametrize(
    "module",
    ["errors", "fps", "numtheory", "qforms", "trig", "kummer", "counting", "verify", "cli"],
)
def test_package_root_is_only_suites_and_each_module_imports_alone(module):
    # every name is reached through its submodule; a fresh child per module
    # shows no import-order cycle that eager root imports could hide
    probe = (
        "import hypcount; "
        "print([n for n in vars(hypcount) if not n.startswith('_')]); "
        f"import hypcount.{module}"
    )
    done = fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['SUITES']\n"


# -- cache ------------------------------------------------------------------


def test_cache_roundtrip_and_corruption(capsys, tmp_path):
    cache = str(tmp_path / "forms")
    code, out, _ = run(capsys, "cache", "--action", "write", "--dir", cache, "--order", "8")
    assert code == 0

    code, out, _ = run(capsys, "cache", "--action", "check", "--dir", cache, "--order", "8")
    assert code == 0
    assert "0 mismatched" in out

    path = os.path.join(cache, "A_1_o8.json")
    with open(path) as fh:
        data = json.load(fh)
    data["coeffs"][1] = "999"
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, "cache", "--action", "check", "--dir", cache)
    assert code == 1
    assert out.splitlines() == [
        "MISMATCH A_1_o8.json: coefficient of q^1: stored 999, recomputed 1",
        "checked 17 cached forms, 1 mismatched",
    ]

    code, _, _ = run(capsys, "cache", "--action", "clear", "--dir", cache)
    assert code == 0
    assert not [f for f in os.listdir(cache) if f.endswith(".json")]

    # clear on an already-empty directory still succeeds
    code, _, _ = run(capsys, "cache", "--action", "clear", "--dir", cache)
    assert code == 0


def test_cache_write_is_byte_stable(capsys, tmp_path):
    # the benchmark's pinned digest of the order-1024 form files: sorted
    # names, each hashed as name + NUL + bytes + NUL
    cache = tmp_path / "forms"
    code, _, _ = run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "1024")
    assert code == 0
    h = hashlib.sha256()
    for name in sorted(os.listdir(cache)):
        h.update(name.encode() + b"\0" + (cache / name).read_bytes() + b"\0")
    assert h.hexdigest() == "1ac781af82cf60f955172221384062e43f1c8385bf184a10703a7fe3d8105c4b"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "not JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"params": [1], "order": 8, "coeffs": []}', "missing key 'name'"),
        ('{"name": "A", "params": [1], "coeffs": []}', "missing key 'order'"),
        ('{"name": "A", "params": [1], "order": "8", "coeffs": []}', "order must be"),
        ('{"name": "nope", "params": [], "order": 8, "coeffs": []}', "unknown form"),
        # rejected before the form is built, which once hung the check
        ('{"name": "E", "params": [], "order": 100000000, "coeffs": []}', "order must be"),
        (b"\xff\xfe{", "'utf-8' codec can't decode"),
        ('{"name": "E", "params": [3], "order": 8, "coeffs": []}', "form E takes no index"),
        ('{"name": "E", "params": [], "order": 8, "coeffs": [0]}', "coeffs must be a list of strings"),
        ('{"name": ["A"], "params": [], "order": 4, "coeffs": ["1"]}', "name must be a string"),
        ('{"name": {"A": 1}, "params": [], "order": 4, "coeffs": ["1"]}', "name must be a string"),
        ('{"name": "A", "params": ["1"], "order": 8, "coeffs": []}',
         "params must be a list of at most one integer"),
    ],
)
def test_cache_check_reports_invalid_files(capsys, tmp_path, text, reason):
    cache = str(tmp_path / "forms")
    run(capsys, "cache", "--action", "write", "--dir", cache, "--order", "8")
    with open(os.path.join(cache, "zz_bad.json"), "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "cache", "--action", "check", "--dir", cache)
    assert code == 1
    assert err == ""
    invalid, summary = out.splitlines()
    assert invalid.startswith(f"INVALID zz_bad.json: {reason}")
    assert summary == "checked 18 cached forms, 1 mismatched"


def test_cache_check_reports_coefficient_count_mismatch(capsys, tmp_path):
    cache = tmp_path / "forms"
    run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "8")
    path = cache / "E_o8.json"
    data = json.loads(path.read_text())
    data["coeffs"] = data["coeffs"][:5]
    path.write_text(json.dumps(data, sort_keys=True, indent=2))
    code, out, _ = run(capsys, "cache", "--action", "check", "--dir", str(cache))
    assert code == 1
    assert out.splitlines() == [
        "MISMATCH E_o8.json: stored 5 coefficients, recomputed 9",
        "checked 17 cached forms, 1 mismatched",
    ]


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[:-1],  # no final line break
        lambda text: text + " ",
        lambda text: json.dumps(json.loads(text), sort_keys=True, indent=4) + "\n",
    ],
    ids=["newline-missing", "byte-added", "reindented"],
)
def test_cache_check_reports_byte_difference_outside_coefficients(capsys, tmp_path, edit):
    # the text is compared piece by piece, and parsed again only to explain
    cache = tmp_path / "forms"
    run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "8")
    path = cache / "E_o8.json"
    path.write_text(edit(path.read_text()))
    code, out, err = run(capsys, "cache", "--action", "check", "--dir", str(cache))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "MISMATCH E_o8.json: byte-level difference outside the coefficients",
        "checked 17 cached forms, 1 mismatched",
    ]


def test_cache_check_reports_form_stored_under_another_key(capsys, tmp_path):
    # a valid file under another form's name would hand its readers the wrong form
    cache = tmp_path / "forms"
    run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "8")
    (cache / "A_3_o8.json").write_bytes((cache / "A_2_o8.json").read_bytes())
    code, out, err = run(capsys, "cache", "--action", "check", "--dir", str(cache))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "MISMATCH A_3_o8.json: holds A_2_o8",
        "checked 17 cached forms, 1 mismatched",
    ]


def test_cache_check_reports_unreadable_entry_and_goes_on(capsys, tmp_path):
    # a *.json entry that cannot be read is one INVALID line, not the end
    cache = tmp_path / "forms"
    run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "8")
    (cache / "sub.json").mkdir()
    code, out, err = run(capsys, "cache", "--action", "check", "--dir", str(cache))
    assert (code, err) == (1, "")
    invalid, summary = out.splitlines()
    assert invalid.startswith("INVALID sub.json: [Errno 21] Is a directory")
    assert summary == "checked 18 cached forms, 1 mismatched"


def test_cache_clear_removes_regular_files_only(capsys, tmp_path):
    cache = tmp_path / "forms"
    run(capsys, "cache", "--action", "write", "--dir", str(cache), "--order", "8")
    (cache / "sub.json").mkdir()
    (cache / "notes.txt").write_text("kept")
    assert run(capsys, "cache", "--action", "clear", "--dir", str(cache)) == (
        0, f"cleared {cache}\n", ""
    )
    assert sorted(os.listdir(cache)) == ["notes.txt", "sub.json"]


@pytest.mark.parametrize("action", ["clear", "write", "check"])
def test_cache_clear_on_regular_file_is_usage_error(capsys, tmp_path, action):
    # every action words an existing non-directory path the same way
    target = tmp_path / "forms"
    target.write_text("kept")
    code, out, err = run(capsys, "cache", "--action", action, "--dir", str(target))
    assert (code, out, err) == (2, "", f"error: not a directory {target}\n")
    assert target.read_text() == "kept"


def test_cache_on_missing_dir(capsys, tmp_path):
    target = tmp_path / "absent"
    code, out, err = run(capsys, "cache", "--action", "check", "--dir", str(target))
    assert (code, out, err) == (2, "", f"error: no such directory {target}\n")
    code, out, err = run(capsys, "cache", "--action", "clear", "--dir", str(target))
    assert (code, out, err) == (0, f"cleared {target}\n", "")
    assert not target.exists()
    code, _, _ = run(capsys, "cache", "--action", "write", "--dir", str(target), "--order", "6")
    assert code == 0 and target.is_dir()


def test_cache_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HYPCOUNT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "cache", "--action", "write", "--order", "6")
    assert code == 0
    assert any(f.endswith(".json") for f in os.listdir(tmp_path / "envcache"))


def test_cache_without_dir_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("HYPCOUNT_CACHE_DIR", raising=False)
    code, _, err = run(capsys, "cache", "--action", "write")
    assert code == 2
