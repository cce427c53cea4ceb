import json
import re
import struct
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from fundcomp import cli, spectral
from fundcomp import io as fio
from fundcomp.activations import EPSILON_MIN
from fundcomp.cli import main
from fundcomp.errors import InputFormatError
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample


def write_tone_csv(path, freq=2, rate=64, duration=8.0):
    p = TrigPolynomial(((freq, 1.0),), period=1.0, real_cosine_form=True)
    fio.write_signal_csv(sample(p, rate, duration), path)


def write_tone_wav(path, freq=2, rate=64, duration=8.0):
    t = np.arange(int(rate * duration)) / rate
    x = (0.8 * np.cos(2 * np.pi * freq * t) * (2 ** 15 - 1)).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(x.tobytes())


# the readers of files with one float per line: (reader, text before the
# values, number of the first value line, the value's noun)
FLOAT_LINE_READERS = [(fio.read_signal_csv, "sample_rate,64\n", 2, "sample"),
                      (fio.read_if_curve_csv, "", 1, "frequency")]


class TestSignalIO:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sig.csv"
        write_tone_csv(path)
        sig = fio.read_signal_csv(path)
        out = tmp_path / "sig2.csv"
        fio.write_signal_csv(sig, out)
        assert path.read_bytes() == out.read_bytes()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rate,64\n1.0\n2.0\n")
        with pytest.raises(InputFormatError):
            fio.read_signal_csv(path)

    def test_csv_bad_row_reports_line(self, tmp_path):
        # the blank line counts, and the line is printed stripped
        path = tmp_path / "bad.csv"
        for read, head, first, noun in FLOAT_LINE_READERS:
            path.write_text(head + "1.0\n\n nope \n1.0\n")
            with pytest.raises(InputFormatError,
                               match=f":{first + 2}: malformed {noun} 'nope'$"):
                read(path)

    def test_wav_16bit(self, tmp_path):
        path = tmp_path / "tone.wav"
        write_tone_wav(path)
        sig = fio.read_wav(path)
        assert sig.sample_rate == 64
        assert np.max(np.abs(sig.samples)) <= 1.0
        assert np.max(sig.samples) == pytest.approx(0.8, abs=1e-3)

    def test_wav_24bit(self, tmp_path):
        path = tmp_path / "t24.wav"
        values = [-(2 ** 23), 0, 2 ** 23 - 1, 12345]
        raw = b"".join(struct.pack("<i", v)[:3] for v in values)
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(3)
            wf.setframerate(8)
            wf.writeframes(raw)
        sig = fio.read_wav(path)
        assert sig.samples[0] == pytest.approx(-1.0)
        assert sig.samples[1] == 0.0
        assert sig.samples[2] == pytest.approx(1.0, abs=1e-6)

    def test_wav_first_channel(self, tmp_path):
        path = tmp_path / "st.wav"
        left = np.array([100, 200, 300, 400], dtype="<i2")
        right = np.zeros(4, dtype="<i2")
        inter = np.empty(8, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8)
            wf.writeframes(inter.tobytes())
        sig = fio.read_wav(path)
        assert np.allclose(sig.samples * 2 ** 15, left)

    def test_csv_write_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 2 * fio._CSV_CHUNK_VALUES + 3
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[:4] = [0.0, -0.0, 5e-324, 1.0 / 3.0]
        path = tmp_path / "sig.csv"
        fio.write_signal_csv(SampledSignal(x, 44100.0), path)
        expected = "sample_rate,44100\n" + "".join(f"{v:.17g}\n" for v in x)
        assert path.read_bytes() == expected.encode("ascii")

    def test_poly_spec_complex_form(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"m": 1, "re": 1.0, "im": 0.0},
                                    {"m": 2, "re": 0.5, "im": -0.5}]))
        poly = fio.read_poly_spec_json(path)
        assert poly.terms == ((1, 1 + 0j), (2, 0.5 - 0.5j))
        assert not poly.real_cosine_form

    def test_poly_spec_real_form(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"real_cosine_form": True, "period": 1.0,
                                    "terms": [{"m": 6, "re": 0.8}]}))
        poly = fio.read_poly_spec_json(path)
        assert poly.real_cosine_form
        assert poly.period == 1.0

    def test_poly_spec_integral_float_frequency(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"m": 2.0, "re": 1.0}]))
        assert fio.read_poly_spec_json(path).terms == ((2, 1 + 0j),)

    def test_if_curve_non_finite_reports_line(self, tmp_path):
        path = tmp_path / "if.csv"
        for read, head, first, noun in FLOAT_LINE_READERS:
            path.write_text(head + "1.0\n\ninf\n1.0\n")
            with pytest.raises(InputFormatError,
                               match=f":{first + 2}: non-finite {noun} 'inf'$"):
                read(path)

    def test_poly_spec_bad_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            fio.read_poly_spec_json(path)


class TestAnalyze:
    def test_outputs_written(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        rc = main(["analyze", str(src), "--activation", "abs",
                   "--out", str(out)])
        assert rc == 0
        for name in ("activated_signal.csv", "spectrum.csv", "spectrogram.csv",
                     "spectrogram.pgm", "report.json", "manifest.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["activation"] == "abs"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "analyze"
        assert len(manifest["input_digest"]) == 64

    def test_abs_doubles_tone_frequency(self, tmp_path):
        src = tmp_path / "tone.wav"
        write_tone_wav(src, freq=2, rate=64, duration=8.0)
        out = tmp_path / "out"
        rc = main(["analyze", str(src), "--activation", "abs",
                   "--window", "128", "--hop", "8", "--fft-length", "512",
                   "--out", str(out)])
        assert rc == 0
        rows = [np.array([float(v) for v in line.split(",")])
                for line in (out / "spectrogram.csv").read_text().splitlines()]
        m = np.stack(rows)
        freq_step = 64 / 512
        # skip DC neighborhood: rectification has a large mean
        lo = int(1.0 / freq_step)
        ridge = lo + np.argmax(m[4:-4, lo:], axis=1)
        assert np.all(np.abs(ridge * freq_step - 4.0) < 1.0)

    def test_activated_csv_round_trips(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out1 = tmp_path / "o1"
        rc = main(["analyze", str(src), "--activation", "heps",
                   "--epsilon", "0.1", "--out", str(out1)])
        assert rc == 0
        out2 = tmp_path / "o2"
        rc = main(["analyze", str(out1 / "activated_signal.csv"),
                   "--activation", "abs", "--out", str(out2)])
        assert rc == 0
        sig = fio.read_signal_csv(out1 / "activated_signal.csv")
        reexport = tmp_path / "re.csv"
        fio.write_signal_csv(sig, reexport)
        assert reexport.read_bytes() == (out1 / "activated_signal.csv").read_bytes()

    def test_if_curve_band_ratio(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src, freq=2, rate=64, duration=8.0)
        out = tmp_path / "out"
        # one IF value per frame: frames = (512-1)//8 + 1 = 64
        curve = tmp_path / "if.csv"
        curve.write_text("".join("2.0\n" for _ in range(64)))
        rc = main(["analyze", str(src), "--activation", "relu",
                   "--window", "128", "--hop", "8", "--fft-length", "512",
                   "--if-curve", str(curve), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["band_energy_ratio"] <= 1.0

    def test_default_half_width_reaches_a_bin_at_4khz(self, tmp_path):
        # bins 4000 / 8192 = 0.488 Hz apart; 1.25 Hz is 0.215 Hz from the
        # nearest, beyond the old default 0.2 Hz
        src = tmp_path / "tone.wav"
        write_tone_wav(src, freq=2, rate=4000, duration=3.0)
        curve = tmp_path / "if.csv"
        curve.write_text("1.25\n" * 30)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--if-curve", str(curve),
                     "--export", "json", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["half_width"] == 4000 / 8192 / 2
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["band_energy_ratio"] < 1.0

    def test_given_half_width_is_recorded(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--half-width", "0.3",
                     "--export", "json", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["half_width"] == 0.3

    def test_empty_band_leaves_no_output(self, tmp_path):
        # frame 3's IF lies far above the 32 Hz Nyquist frequency, so its
        # band holds no bin: exit 4 before any file is written
        src = tmp_path / "tone.csv"
        write_tone_csv(src, freq=2, rate=64, duration=8.0)
        curve = tmp_path / "if.csv"
        curve.write_text("2.0\n" * 3 + "500.0\n" + "2.0\n" * 60)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--window", "128", "--hop", "8",
                     "--fft-length", "512", "--if-curve", str(curve),
                     "--out", str(out)]) == 4
        assert not (out / "spectrogram.csv").exists()
        assert not (out / "report.json").exists()

    @staticmethod
    def analyze_overflowing(tmp_path, *options):
        """analyze's exit code on finite samples whose spectrum's energy
        overflows, and whether it left --out."""
        src = tmp_path / "huge.csv"
        x = 1e200 * np.cos(np.arange(512) * 0.3)
        src.write_text("sample_rate,64\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["analyze", str(src), "--activation", "abs", "--window", "128",
                         "--hop", "8", "--fft-length", "512", *options, "--out", str(out)])
        return code, out.exists()

    def test_nan_report_leaves_no_output(self, tmp_path):
        # the report's ratio would be NaN, which JSON cannot hold: exit 4
        # before any file is written
        assert self.analyze_overflowing(tmp_path) == (4, False)

    @pytest.mark.parametrize("export", ["csv,pgm", "pgm", "csv"])
    def test_overflowing_spectrum_leaves_no_output(self, tmp_path, capsys, export):
        # without json exported nothing serialised the NaN ratio: this exited
        # 0 and wrote all-nan spectrogram files
        assert self.analyze_overflowing(tmp_path, "--export", export) == (4, False)
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("export,if_curve,sweeps", [
        ("csv,pgm,json", True, 2), ("pgm", False, 2), ("json", True, 1),
        ("json", False, 0)])
    def test_stft_sweeps(self, tmp_path, monkeypatch, export, if_curve, sweeps):
        # pass 1 runs for the band ratio or the clip range, pass 2 only to
        # write spectrogram.csv or spectrogram.pgm
        calls = []
        blocks = spectral.Stft.blocks

        def counted(self):
            calls.append(1)
            return blocks(self)

        monkeypatch.setattr(spectral.Stft, "blocks", counted)
        src = tmp_path / "tone.csv"
        write_tone_csv(src, freq=2, rate=64, duration=8.0)
        curve = tmp_path / "if.csv"
        curve.write_text("2.0\n" * 64)
        argv = ["analyze", str(src), "--window", "128", "--hop", "8",
                "--fft-length", "512", "--export", export, "--out",
                str(tmp_path / "out")]
        assert main(argv + (["--if-curve", str(curve)] if if_curve else [])) == 0
        assert len(calls) == sweeps

    def test_peak_allocation_does_not_grow_with_length(self, tmp_path):
        # the 1 kHz defaults: window 2 s, hop 0.1 s, 1025 bins. A |V|^2
        # matrix grows by 8.2 kB a frame, the signal by 0.8 kB; the peak may
        # grow only with copies of the signal (about 4 of them)
        peaks = {}
        # k = 1 twice: a first export in the process also fills the CSV
        # formatter's tables
        for k in (1, 1, 2, 4):
            src = tmp_path / f"tone{k}.wav"
            write_tone_wav(src, freq=3, rate=1000, duration=8.0 * k)
            curve = tmp_path / f"if{k}.csv"
            curve.write_text("3.0\n" * (80 * k))
            argv = ["analyze", str(src), "--if-curve", str(curve),
                    "--out", str(tmp_path / f"out{k}")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        signal_bytes = 8 * 8000
        for k in (2, 4):
            assert peaks[k] - peaks[1] <= 6 * (k - 1) * signal_bytes, peaks

    def test_nan_sample_exits_input_error(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        lines = src.read_text().splitlines()
        lines[100] = "nan"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("rate", ["0", "-64", "abc"])
    def test_bad_csv_sample_rate_exits_input_error(self, tmp_path, rate):
        src = tmp_path / "tone.csv"
        src.write_text(f"sample_rate,{rate}\n1.0\n0.0\n-1.0\n0.0\n")
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--out", str(out)]) == 3
        assert not out.exists()

    def test_zero_wav_sample_rate_exits_input_error(self, tmp_path):
        src = tmp_path / "tone.wav"
        write_tone_wav(src)
        raw = bytearray(src.read_bytes())
        raw[24:28] = struct.pack("<I", 0)  # the fmt chunk's sample rate
        src.write_bytes(bytes(raw))
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--out", str(out)]) == 3
        assert not out.exists()

    def test_missing_file(self, capsys):
        rc = main(["analyze", "/no/such/file.csv"])
        assert rc == 3
        assert capsys.readouterr().err != ""

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "sig.dat"
        path.write_text("junk")
        assert main(["analyze", str(path)]) == 3


class TestVerifyTheorem:
    def test_two_exponential_ladder(self, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps([{"m": 1, "re": 1.0, "im": 0.0},
                                    {"m": 2, "re": 1.0, "im": 0.0}]))
        out = tmp_path / "rep.jsonl"
        rc = main(["verify-theorem", "--signal", str(spec),
                   "--eps-ladder", "1e-2,1e-3,1e-4,1e-5", "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 5
        assert lines[-1]["summary"] and lines[-1]["passed"]
        assert lines[-2]["rel_error"] < 0.05

    def test_cancellation_exits_zero(self, tmp_path):
        spec = tmp_path / "cos.json"
        spec.write_text(json.dumps({"real_cosine_form": True,
                                    "terms": [{"m": 1, "re": 1.0}]}))
        rc = main(["verify-theorem", "--signal", str(spec),
                   "--eps-ladder", "1e-2,1e-3,1e-4"])
        assert rc == 0

    @pytest.mark.parametrize("m", [1.5, "2", True])
    def test_non_integral_frequency_exits_input_error(self, tmp_path, m):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps([{"m": m, "re": 1.0, "im": 0.0},
                                    {"m": 2, "re": 1.0, "im": 0.0}]))
        assert main(["verify-theorem", "--signal", str(spec)]) == 3

    @pytest.mark.parametrize("period", ["abc", "6.28", 0, -1.0, float("nan"),
                                        float("inf"), True, None])
    def test_bad_period_exits_input_error(self, tmp_path, period):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"period": period,
                                    "terms": [{"m": 1, "re": 1.0},
                                              {"m": 2, "re": 1.0}]}))
        out = tmp_path / "rep.jsonl"
        assert main(["verify-theorem", "--signal", str(spec),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_constant_modulus_fails(self, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps([{"m": 1, "re": 1.0, "im": 0.0}]))
        rc = main(["verify-theorem", "--signal", str(spec)])
        assert rc == 4


class TestSynthBench:
    def test_deterministic_outputs(self, tmp_path):
        args = ["synth-bench", "--trials", "40", "--seed", "7",
                "--activations", "abs,relu"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2), "--workers", "2"]) == 0
        for name in ("summary.json", "hist_abs.csv", "hist_relu.csv",
                     "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_trials_usage_error(self):
        assert main(["synth-bench", "--trials", "0"]) == 2


class TestEpsilonFloor:
    """Below activations.EPSILON_MIN h_eps could overflow an output, so the
    CLI refuses it before writing anything; at the floor every output is
    finite."""

    BELOW = ["5e-324", repr(float(np.nextafter(EPSILON_MIN, 0.0)))]

    @staticmethod
    def assert_finite(out):
        for path in out.iterdir():
            if path.suffix == ".pgm":
                continue
            text = path.read_text()
            assert not re.search(r"nan|inf", text, re.IGNORECASE), path.name
            if path.suffix == ".json":
                json.loads(text, parse_constant=pytest.fail)

    @pytest.mark.parametrize("eps", BELOW)
    def test_analyze_below_floor(self, tmp_path, eps):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--epsilon", eps,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", BELOW)
    def test_synth_bench_below_floor(self, tmp_path, eps):
        out = tmp_path / "out"
        assert main(["synth-bench", "--trials", "2", "--activations",
                     f"abs,heps:{eps}", "--out", str(out)]) == 2
        assert not out.exists()

    def test_analyze_at_floor(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src, freq=2, rate=64, duration=8.0)
        curve = tmp_path / "if.csv"
        curve.write_text("".join("2.0\n" for _ in range(64)))
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--epsilon", repr(EPSILON_MIN),
                     "--window", "128", "--hop", "8", "--fft-length", "512",
                     "--if-curve", str(curve), "--out", str(out)]) == 0
        self.assert_finite(out)
        peak = max(float(v) for v in (out / "activated_signal.csv")
                   .read_text().splitlines()[1:])
        assert peak == 1.0 / EPSILON_MIN

    def test_synth_bench_at_floor(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth-bench", "--trials", "3", "--activations",
                     f"heps:{EPSILON_MIN!r}", "--out", str(out)]) == 0
        self.assert_finite(out)
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["results"]["heps_1e-130"]["median"] < 1.0


class TestSumset:
    def test_gcd3_gcd(self, capsys):
        assert main(["sumset", "--freqs", "6,9,33"]) == 0
        out = capsys.readouterr().out
        assert "gcd              3" in out

    def test_singleton(self, capsys):
        assert main(["sumset", "--freqs", "4"]) == 0
        out = capsys.readouterr().out
        assert "gcd              4" in out
        assert "not reached" in out

    def test_pair_full_coverage(self, capsys):
        assert main(["sumset", "--freqs", "2,3", "--range", "20"]) == 0
        out = capsys.readouterr().out
        assert "gcd              1" in out
        assert "support" in out and " 20" in out


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_bad_activation_list(self):
        assert main(["synth-bench", "--activations", "tanh"]) == 2

    @pytest.mark.parametrize("ladder", ["1e-2,x", "1e-3,1e-2", "1e-2,1e-2",
                                        "1e-2", "0.5,1e-2", "1e-2,0",
                                        "0.1,5e-324"])
    def test_bad_eps_ladder(self, tmp_path, ladder):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps([{"m": 1, "re": 1.0}, {"m": 2, "re": 1.0}]))
        out = tmp_path / "rep.jsonl"
        assert main(["verify-theorem", "--signal", str(spec),
                     "--eps-ladder", ladder, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1.5", "1", "0", "-0.1", "nan", "x"])
    def test_bad_analyze_epsilon(self, tmp_path, eps):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--epsilon", eps,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("export", ["xyz", "", "csv,", "csv,jsno"])
    def test_bad_export(self, tmp_path, export):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--export", export,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("option,value", [
        ("--hop", "-3"), ("--hop", "0"), ("--window", "-128"),
        ("--window", "1.5"), ("--fft-length", "-512"), ("--fft-length", "x")])
    def test_bad_analyze_integer(self, tmp_path, option, value):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), option, value,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--window", "64", "--fft-length", "32"],
        ["--fft-length", "64"]])  # below the default window, 2 s = 128 samples
    def test_fft_length_below_window(self, tmp_path, capsys, argv):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), *argv, "--out", str(out)]) == 2
        assert "--fft-length" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.2", "nan", "inf", "x"])
    def test_bad_half_width(self, tmp_path, value):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "out"
        assert main(["analyze", str(src), "--half-width", value,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--freqs", "0,3"], ["--freqs", "2,-3"], ["--freqs", "2,x"],
        ["--freqs", "2,3", "--kmax", "-1"], ["--freqs", "2,3", "--kmax", "0"],
        ["--freqs", "2,3", "--range", "1"], ["--freqs", "2,3", "--range", "-5"]])
    def test_bad_sumset_option(self, capsys, argv):
        assert main(["sumset", *argv]) == 2
        assert "gcd" not in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_option(self, tmp_path, workers):
        out = tmp_path / "out"
        assert main(["synth-bench", "--trials", "1", "--workers", workers,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed(self, tmp_path, seed):
        out = tmp_path / "out"
        assert main(["synth-bench", "--trials", "2", "--workers", "1",
                     "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()

    def test_command_looked_up_on_every_call(self, monkeypatch):
        """A cmd_* replaced after the parser was built is the one that runs."""
        assert main(["sumset", "--freqs", "2,3"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sumset", lambda args: seen.append(args.kmax) or 0)
        assert main(["sumset", "--freqs", "2,3", "--kmax", "7"]) == 0
        assert seen == [7]


def test_cli_import_leaves_process_pool_out():
    """Only synth-bench with --workers above 1 loads concurrent.futures, and
    only analyze's manifest loads hashlib."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); import fundcomp.cli; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "('concurrent', 'multiprocessing', 'hashlib'))))"],
        capture_output=True, text=True, check=True, timeout=60)
    assert probe.stdout.strip() == "[]"


def test_cli_import_builds_no_position_table():
    """The synth replay's table of stream positions is built by the first
    draw, not at import, so commands that draw nothing never pay for it."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); import fundcomp.cli; "
         "from fundcomp import _pcg64; print(_pcg64._table is None)"],
        capture_output=True, text=True, check=True, timeout=60)
    assert probe.stdout.strip() == "True"
