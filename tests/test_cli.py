import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pacgreen import (ExperimentConfig, build_geometry, build_lattice_domain,
                      experiments, green_discrete, green_solve, rate_sweep)
from pacgreen.cli import (_parser, atomic_write_text, build_parser, dispatch,
                          render_rate_plot)
from pacgreen.errors import PlotError



class TestPotentialCommand:
    def test_origin(self, capsys):
        assert dispatch(["potential", "--x", "0", "--y", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,y,exact,asymptotic,difference"
        cells = out[1].split(",")
        assert cells[:3] == ["0", "0", "0"]

    def test_far_point_roundtrip_precision(self, capsys):
        assert dispatch(["potential", "--x", "10", "--y", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()[1].split(",")
        exact = float(out[2])
        # 17 significant digits round-trip bit-exactly
        assert format(exact, ".17g") == out[2]

    def test_bad_int(self):
        assert dispatch(["potential", "--x", "abc", "--y", "0"]) == 2


class TestArcsCommand:
    def test_walk_determinism(self, tmp_path):
        args = ["arcs", "--mode", "walk", "--alpha", "0", "--n", "16",
                "--start", "0,0", "--trials", "800", "--seed", "7"]
        p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        assert dispatch(args + ["--out", str(p1)]) == 0
        assert dispatch(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_walk_requires_seed(self, tmp_path):
        rc = dispatch(["arcs", "--mode", "walk", "--alpha", "0", "--n", "16",
                       "--start", "0,0", "--trials", "800",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bm_output_sums_to_one(self, tmp_path):
        out = tmp_path / "bm.csv"
        assert dispatch(["arcs", "--mode", "bm", "--alpha", "1.5707963",
                         "--n", "100", "--start", "0,0", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "k,measure"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_noninterior_start(self, tmp_path):
        rc = dispatch(["arcs", "--mode", "bm", "--alpha", "0", "--n", "16",
                       "--start", "9999,0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_manifest(self, tmp_path):
        out = tmp_path / "a.csv"
        assert dispatch(["arcs", "--mode", "walk", "--alpha", "0", "--n", "16",
                         "--start", "0,0", "--trials", "100", "--seed", "3",
                         "--out", str(out)]) == 0
        man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert man["subcommand"] == "arcs"
        assert man["seed"] == 3
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert man["outputs"][0]["sha256"] == digest
        # parameters round-trip through serialization
        assert json.loads(json.dumps(man["parameters"])) == man["parameters"]


class TestFieldCommand:
    def test_field_matches_solver(self, tmp_path):
        out = tmp_path / "f.csv"
        assert dispatch(["field", "--alpha", "3.141592653589793", "--n", "8",
                         "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,y,G,g,diff"
        d = build_lattice_domain(build_geometry(math.pi, 8))
        F = green_solve(d, (0, 0))
        assert len(rows) - 1 == d.interior_count
        for r in rows[1:20]:
            x, y, G = r.split(",")[:3]
            assert float(G) == pytest.approx(F.value_at((int(x), int(y))), abs=1e-12)

    def test_lattice_over_physical_memory(self, tmp_path):
        # (4n + 3)^2 cells at n = 10^6 need about 4.3 PB; the guard must
        # refuse before any grid is allocated
        out = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            rc = dispatch(["field", "--alpha", "0", "--n", "1000000",
                           "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 2 ** 20
        assert not out.exists()

    def test_with_continuous(self, tmp_path):
        out = tmp_path / "f.csv"
        assert dispatch(["field", "--alpha", "3.141592653589793", "--n", "8",
                         "--with-continuous", "--out", str(out)]) == 0
        header, first = out.read_text().strip().splitlines()[:2]
        cells = first.split(",")
        assert len(cells) == 5
        assert math.isfinite(float(cells[3]))


class TestRateCommand:
    def test_too_few_scales(self, tmp_path):
        rc = dispatch(["rate", "--alphas", "3.1415927", "--ns", "8",
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_bad_angle_fails_before_any_solve(self, tmp_path, capsys,
                                               monkeypatch):
        def no_solve(alpha, n):
            raise AssertionError(f"rate point at alpha = {alpha}, n = {n}")

        monkeypatch.setattr(experiments, "_rate_point", no_solve)
        out = tmp_path / "r.csv"
        rc = dispatch(["rate", "--alphas", "0,4", "--ns", "64,128,256",
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: alpha")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("big", ["200000", "9" * 400])
    def test_n_over_physical_memory_fails_before_any_solve(self, tmp_path,
                                                           capsys,
                                                           monkeypatch, big):
        def no_solve(alpha, n):
            raise AssertionError(f"rate point at alpha = {alpha}, n = {n}")

        monkeypatch.setattr(experiments, "_rate_point", no_solve)
        rc = dispatch(["rate", "--alphas", "0", "--ns", f"64,128,{big}",
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "physical memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_small_rate_run(self, tmp_path):
        out = tmp_path / "rates.csv"
        svg = tmp_path / "rates.svg"
        rc = dispatch(["rate", "--alphas", "3.141592653589793",
                       "--ns", "8,12,16",
                       "--out", str(out), "--plot", str(svg)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha,n,sup_error,mean_error,region_min_radius"
        assert len(rows) == 4
        summary = (tmp_path / "rates_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "alpha,slope,intercept,r2,c_alpha"
        assert float(summary[1].split(",")[4]) == 1.0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "log(1/n)" in texts and "log(corrected sup error)" in texts
        # the dots sit at the corrected sup errors against 1/n: pixels are
        # affine in the logs along each axis
        px, py = np.array([(float(e.get("cx")), float(e.get("cy")))
                           for e in root.iter() if e.get("class") == "datum"]).T
        points = rate_sweep(ExperimentConfig(alphas=(math.pi,),
                                             ns=(8, 12, 16)))[0].points
        for pixels, values in (
                (px, [1.0 / p.n for p in points]),
                (py, [p.corrected_sup_error for p in points])):
            v = np.log(values)
            assert np.allclose((pixels - pixels[0]) / (pixels[-1] - pixels[0]),
                               (v - v[0]) / (v[-1] - v[0]), atol=1e-4)
        man = json.loads((tmp_path / "rates.csv.manifest.json").read_text())
        assert len(man["outputs"]) == 3
        assert man["seed"] is None

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "rates.csv"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "pacgreen", "rate", "--alphas", "0",
             "--ns", "8,12,16", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestExpdiffCommand:
    def test_run(self, tmp_path):
        g = build_geometry(math.pi, 64)
        zx = (26 - g.z0[0], 4 - g.z0[1])
        out = tmp_path / "e.csv"
        rc = dispatch(["expdiff", "--alpha", "3.141592653589793", "--n", "64",
                       "--x", f"{zx[0]},{zx[1]}", "--y", f"{zx[0]},{zx[1]}",
                       "--trials", "500", "--seed", "11", "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "estimate,stderr,bound_scale"
        est, se, scale = map(float, row.split(","))
        assert est > 0 and se > 0 and scale > 0

    def test_precondition_maps_to_usage_error(self, tmp_path):
        rc = dispatch(["expdiff", "--alpha", "3.141592653589793", "--n", "64",
                       "--x", "0,0", "--y", "0,0", "--trials", "10",
                       "--seed", "1", "--out", str(tmp_path / "e.csv")])
        assert rc == 2


class TestParserReuse:
    def test_calls_after_a_usage_error(self, tmp_path, capsys):
        # dispatch parses with one parser per process; a failed parse must
        # leave it able to parse the next calls as a fresh one would
        g = build_geometry(math.pi, 64)
        zx = f"{26 - g.z0[0]},{4 - g.z0[1]}"
        calls = {"r.csv": ["rate", "--alphas", "3.141592653589793",
                           "--ns", "8,12,16"],
                 "e.csv": ["expdiff", "--alpha", "3.141592653589793",
                           "--n", "64", "--x", zx, "--y", zx,
                           "--trials", "200", "--seed", "11"]}

        def run(tag):
            outputs = {}
            for name, argv in calls.items():
                out = tmp_path / f"{tag}-{name}"
                assert dispatch(argv + ["--out", str(out)]) == 0
                outputs[name] = out.read_bytes()
            return outputs

        before = run("before")
        assert dispatch(["rate", "--alphas", "pi", "--ns", "8,12,16",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "bad float list" in capsys.readouterr().err
        assert run("after") == before
        assert _parser() is _parser()
        assert build_parser() is not build_parser()


class TestExitCodes:
    def test_invalid_input_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert dispatch(["field", "--alpha", "4", "--n", "8",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: alpha")
        assert not out.exists()

    def test_internal_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        # a solve returning non-finite values breaks ScalarField's invariant
        monkeypatch.setattr(green_discrete, "_solve",
                            lambda d, b: np.full(b.shape, np.nan))
        out = tmp_path / "f.csv"
        assert dispatch(["field", "--alpha", "3.141592653589793", "--n", "8",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: field values must be finite\n"
        assert not out.exists()


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(str(target), "data\n")
        assert not target.exists()
        assert not any(p.name.startswith(".pacgreen-") for p in tmp_path.iterdir())

    def test_write_and_content(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(str(target), "a,b\n1,2\n")
        assert target.read_text() == "a,b\n1,2\n"


class TestRenderPlot:
    def test_rate_loglog_structure(self):
        series = [(0.0, 0.5, [(0.3, 0.1), (0.2, 0.07), (0.1, 0.04)]),
                  (math.pi, 1.0, [(0.3, 0.2), (0.2, 0.1), (0.1, 0.05)])]
        svg = render_rate_plot(series)
        root = ET.fromstring(svg)
        dots = [e for e in root.iter() if e.get("class") == "datum"]
        refs = [e for e in root.iter() if e.get("class") == "reference"]
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert len(dots) == 6
        assert len(refs) == 2
        assert "0" in texts and format(math.pi, ".17g") in texts
        assert "log(1/n)" in texts

    def test_empty_data(self):
        with pytest.raises(PlotError):
            render_rate_plot([])
        with pytest.raises(PlotError):
            render_rate_plot([(0.0, 0.5, [])])

    def test_self_contained(self):
        svg = render_rate_plot([(0.0, 0.5, [(0.3, 0.1), (0.2, 0.07)])])
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def readme_commands():
    """Every ``pacgreen`` command the README quotes: the lines of its
    fenced code blocks, with backslash continuations joined, and its
    inline code spans that pass options."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    lines += re.findall(r"`(pacgreen [^`]*--[^`]*)`", text)
    return [shlex.split(line, comments=True) for line in lines
            if line.lstrip().startswith("pacgreen ")]


class TestReadme:
    def test_quotes_commands(self):
        # the quick tour in the Command line section, and the sweep the
        # Allocator paragraph quotes
        assert len(readme_commands()) >= 7

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_quoted_command_parses(self, argv):
        # parsed, not run: argparse exits on what the CLI would refuse
        try:
            _parser().parse_args(argv[1:])
        except SystemExit as exc:
            pytest.fail(f"{' '.join(argv)}: exit {exc.code}")
