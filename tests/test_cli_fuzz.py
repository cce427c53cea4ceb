"""Random argv for every subcommand: a documented exit code, no traceback and
no NaN or Infinity in any JSON written."""

import json
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundcomp import io as fio
from fundcomp.cli import main
from fundcomp.signal_model import SampledSignal

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 300).map(str),
    st.sampled_from(["", "x", "1e-3", "0.5", "1,2"]))
SMALL_INTS = st.one_of(st.integers(-3, 200).map(str),
                       st.sampled_from(["", "x", "1.5", "1e3"]))


def mostly(valid, anything):
    """Valid values about two times in three, so that runs get past parsing."""
    return st.one_of(valid, valid, anything)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 2 s signal at 64 Hz as CSV and WAV, IF curves, polynomial specs."""
    d = tmp_path_factory.mktemp("fuzz")
    t = np.arange(128) / 64.0
    fio.write_signal_csv(SampledSignal(np.cos(2 * np.pi * 3 * t), 64.0), d / "sig.csv")
    pcm = (np.cos(2 * np.pi * 3 * t) * 20000).astype("<i2")
    with wave.open(str(d / "sig.wav"), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(64)
        wf.writeframes(pcm.tobytes())
    (d / "bad.csv").write_text("sample_rate,64\n1.0\nx\n")
    (d / "if_ok.csv").write_text("3.0\n" * 22)  # frames at the default hop
    (d / "if_bad.csv").write_text("3.0\nnan\n")
    (d / "poly.json").write_text(json.dumps([{"m": 1, "re": 1.0}, {"m": 2, "re": 0.5}]))
    (d / "cos.json").write_text(json.dumps(
        {"real_cosine_form": True, "terms": [{"m": 1, "re": 1.0}]}))
    (d / "flat.json").write_text(json.dumps([{"m": 3, "re": 1.0}]))
    (d / "bad.json").write_text("[{")
    return d


def options(names_values):
    """A subset of (option, value strategy) pairs, drawn in order."""
    return st.lists(st.sampled_from(names_values), unique_by=lambda p: p[0],
                    max_size=len(names_values)).flatmap(
        lambda chosen: st.tuples(*[st.tuples(st.just(o), v) for o, v in chosen]))


def argv_for(d):
    files = {k: str(d / k) for k in ("sig.csv", "sig.wav", "bad.csv", "if_ok.csv",
                                     "if_bad.csv", "poly.json", "cos.json",
                                     "flat.json", "bad.json")}
    missing = str(d / "missing.csv")
    analyze = st.tuples(
        st.just(["analyze"]),
        st.sampled_from([files["sig.csv"], files["sig.wav"], files["bad.csv"],
                         missing, str(d / "sig.txt")]).map(lambda p: [p]),
        options([
            ("--activation", st.sampled_from(["abs", "relu", "heps", "tanh"])),
            ("--epsilon", mostly(st.floats(0.01, 0.99).map(repr), NUMBERS)),
            ("--window", mostly(st.integers(1, 128).map(str), SMALL_INTS)),
            ("--hop", mostly(st.integers(1, 64).map(str), SMALL_INTS)),
            ("--fft-length", mostly(st.integers(1, 512).map(str), SMALL_INTS)),
            ("--export", st.sampled_from(["json", "csv,json", "pgm", "", "xyz"])),
            ("--if-curve", st.sampled_from([files["if_ok.csv"], files["if_bad.csv"],
                                            missing])),
            ("--half-width", mostly(st.floats(0.01, 20.0).map(repr), NUMBERS))]))
    verify = st.tuples(
        st.just(["verify-theorem"]),
        st.sampled_from([files["poly.json"], files["cos.json"], files["flat.json"],
                         files["bad.json"], missing]).map(lambda p: ["--signal", p]),
        options([("--eps-ladder", mostly(
            st.sampled_from(["1e-2,1e-3", "1e-2,1e-4,1e-5", "0.1,0.05"]),
            st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)))]))
    synth = st.tuples(
        st.just(["synth-bench", "--workers", "1"]),
        st.integers(1, 3).map(lambda n: ["--trials", str(n)]),
        options([("--seed", mostly(st.integers(0, 10 ** 6).map(str), SMALL_INTS)),
                 ("--activations", st.sampled_from(
                     ["abs", "relu,heps:0.1", "heps:0", "heps:x", "tanh", ""]))]))
    sumset = st.tuples(
        st.just(["sumset"]),
        st.lists(mostly(st.integers(1, 40).map(str), SMALL_INTS), min_size=1,
                 max_size=3).map(lambda f: ["--freqs", ",".join(f)]),
        options([("--kmax", mostly(st.integers(1, 12).map(str), SMALL_INTS)),
                 ("--range", mostly(st.integers(1, 400).map(str), SMALL_INTS))]))
    return st.one_of(analyze, verify, synth, sumset).map(
        lambda parts: parts[0] + parts[1] + [x for pair in parts[2] for x in pair])


def reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


@pytest.fixture(scope="module")
def argvs(inputs):
    return argv_for(inputs)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_argv_ends_in_a_documented_exit_code(data, argvs, capsys):
    argv = data.draw(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if argv[0] == "verify-theorem":
            argv = argv + ["--out", str(out / "report.jsonl")]
            out.mkdir()
        elif argv[0] != "sumset":
            argv = argv + ["--out", str(out)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        assert "Traceback" not in err, argv
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)
        for path in out.glob("*.jsonl"):
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=reject_constant)
