"""End-to-end benchmark of the polybasis command line.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced

Each workload drives ``polybasis.cli.main`` in this process with
``standalone_mode=False``, so it measures what a user runs, and checks every
output with ``checks.py``, which shares no code with the package. A run
measures whole passes over the workload's operations, in a fixed order,
until ``--seconds`` of pass time have been spent, and reports medians. With
``--trace 1`` passes alternate between untraced and traced (``spans.py``)
and the run reports per-layer metrics instead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread. On a shared 2-CPU x86_64 VM a second OpenBLAS thread made
# passes of one workload 30-40 % slower in some processes than in others
# (reverify passes of 11-12 s against 8-9 s, alternating runs); with one
# thread the slow mode did not occur. The sph_harm_y slowdown after a
# complex product is the same with one thread, so users' cost stays in.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from checks import COUNT_TOL, Finding  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("construct", "reverify", "mesh")
CONSTRUCT_LMAX = 45
REVERIFY_LMAX = 10
MESH_L = 45
MESH_SUBDIV = 5
MESH_I_INPUTS = 2
MIN_PASSES = 3
SETUP_SAMPLES = 5
SAMPLE_POINTS = 12

# The reference task (see reference_s) is timed before every operation, and
# pass and set-up times are reported at the speed at which it takes
# REF_NOMINAL_S. A shared 2-CPU VM's speed drifts by up to 1.6x over minutes (one
# T build took 1.1 to 1.9 s when repeated in one process), and the
# reference task slows with it: over ten seeds in a noisy stretch the spread
# of the median pass time fell from 0.16 to 0.07 (construct), 0.12 to 0.08
# (reverify) and 0.18 to 0.10 (mesh) when scaled.
REF_LOOP = 400_000
REF_ROUND_TRIPS = 4
_ref_rng = random.Random(0)
REF_ROWS = [[[_ref_rng.random(), _ref_rng.random()] for _ in range(91)] for _ in range(60)]
REF_NOMINAL_S = 0.125

# The octahedral construction fails the per-degree Gram check at every seed
# tried: single-pass Gram-Schmidt in basis.build_basis loses orthogonality
# at (p=5, l=43). It runs at a fixed seed so that it fails on every pass.
KNOWN_FAULT_SEED = 7
KNOWN_FAULT = ("O", "gram_per_degree", "p=5, l=43")
# The same fault hits T at some CLI seeds only (seed 8: Gram defect 2.5e-9
# at p=1, l=44; seed 951439: 4.0e-10 at p=4, l=44). A failure that depends
# on the seed cannot be counted the same way in every run, so the T and I
# builds draw their CLI seeds from those of 0..39 that passed every check
# at l_max = 45.
PASSING_CLI_SEEDS = {"T": tuple(s for s in range(40) if s != 8),
                     "I": tuple(range(40))}


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[Finding]]
    expect_pass: bool = True
    known_fault: tuple | None = None


@dataclass
class Outcome:
    op: Op
    findings: list[Finding] = field(default_factory=list)

    @property
    def failed(self) -> list[Finding]:
        return checks.failures(self.findings)

    @property
    def expected_failure(self) -> bool:
        """Failed only on the known fault, at its known place."""
        bad = self.failed
        return (self.op.known_fault is not None and len(bad) == 1
                and (bad[0].name, bad[0].where) == self.op.known_fault[1:])


def import_cli():
    if not (SRC / "polybasis" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC}; "
                         "run from the root of a polybasis checkout")
    sys.path.insert(0, str(SRC))
    import polybasis.cli
    return polybasis.cli


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process: (exit code, captured output)."""
    import click

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


def exit_finding(code: int, want: int, output: str) -> Finding:
    tail = output.strip().splitlines()[-1:] if code != want else []
    return Finding("exit_code", float(code != want), COUNT_TOL,
                   f"exit {code}, want {want}" + (f": {tail[0]}" if tail else ""))


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


# -- workloads ------------------------------------------------------------------

class Workload:
    """Inputs made from the seed, the operations of each pass, and the
    worst residual of the checks made while preparing (if any)."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli, self.work, self.seed = cli, work, seed
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.prep_findings: list[Finding] = []
        self.ops: list[Op] = []

    def pass_ops(self, n: int) -> list[Op]:
        """The operations of pass ``n``; the same on every pass unless a
        workload draws inputs per pass."""
        return self.ops

    def pass_rng(self, n: int) -> random.Random:
        """Inputs drawn for pass ``n`` depend on the seed and ``n`` only."""
        return random.Random(f"{self.seed}/{n}")

    def cleanup(self) -> None:
        """Remove what one pass wrote."""


class Construct(Workload):
    """basis --no-verify for T, O and I at l_max = 45, then every written
    coefficient file checked. The T and I CLI seeds are drawn afresh for
    every pass: the work of a build depends on its seed (an I build at
    l_max = 45 made 1321 to 2458 projections over eight seeds), and a run
    that drew them once would carry that spread into its median."""

    def __init__(self, cli, work, seed):
        super().__init__(cli, work, seed)
        self.points = checks.random_unit_vectors(self.np_rng, SAMPLE_POINTS)

    def pass_ops(self, n):
        rng = self.pass_rng(n)
        ops = []
        for g in ("T", "O", "I"):
            cli_seed = (KNOWN_FAULT_SEED if g == KNOWN_FAULT[0]
                        else rng.choice(PASSING_CLI_SEEDS[g]))
            out = self.work / g
            argv = ["basis", "--group", g, "--lmax", str(CONSTRUCT_LMAX),
                    "--seed", str(cli_seed), "--no-verify", "--out", str(out)]
            ops.append(Op(f"basis {g} seed={cli_seed}", argv,
                          self._checker(out, g, self.points),
                          known_fault=KNOWN_FAULT if g == KNOWN_FAULT[0] else None))
        return ops

    @staticmethod
    def _checker(out, g, points):
        def check(code, output):
            found = [exit_finding(code, 0, output)]
            if code == 0:
                found += checks.check_basis_dir(out, g, points)
            return found
        return check

    def cleanup(self):
        for g in ("T", "O", "I"):
            remove(self.work / g)


class Reverify(Workload):
    """verify on intact T/O/I files written while preparing, and on a T
    copy with one coefficient perturbed by 1e-6."""

    def __init__(self, cli, work, seed):
        super().__init__(cli, work, seed)
        for g in ("T", "O", "I"):
            cli_seed = self.rng.randrange(10 ** 6)
            out = work / g
            code, output = run_cli(cli, ["basis", "--group", g, "--lmax", str(REVERIFY_LMAX),
                                         "--seed", str(cli_seed), "--no-verify",
                                         "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"preparing {g} failed: {output}")
            _, by_l = checks.read_coefficients(out / f"manifest_{g}.json")
            self.prep_findings += checks.coefficient_findings(by_l, REVERIFY_LMAX)
            self.ops.append(Op(f"verify {g} seed={cli_seed}",
                               ["verify", str(out / f"manifest_{g}.json")],
                               self._checker(0)))
        bad = work / "T_corrupt"
        shutil.copytree(work / "T", bad)
        where = self._corrupt(bad)
        self.ops.append(Op(f"verify T corrupted {where}",
                           ["verify", str(bad / "manifest_T.json")],
                           self._checker(1), expect_pass=False))

    @staticmethod
    def _checker(want):
        return lambda code, output: [exit_finding(code, want, output)]

    def _corrupt(self, out: Path) -> str:
        """Add 1e-6 to the real part of one coefficient with m != 0 and
        |c| > 1e-3, which breaks the Gram and the realness condition."""
        files = sorted(out.glob("coeff_T_l*.json"))
        candidates = []
        for path in files:
            data = json.loads(path.read_text())
            l = data["l"]
            for bi, blk in enumerate(data["blocks"]):
                for ri, row in enumerate(blk["rows"]):
                    for mi, (re_, im_) in enumerate(row):
                        if mi != l and math.hypot(re_, im_) > 1e-3:
                            candidates.append((path, bi, ri, mi))
        path, bi, ri, mi = self.rng.choice(candidates)
        data = json.loads(path.read_text())
        data["blocks"][bi]["rows"][ri][mi][0] += 1e-6
        path.write_text(json.dumps(data, indent=1) + "\n")
        blk = data["blocks"][bi]
        return f"(l={data['l']}, p={blk['p']}, n={blk['n']}, row={ri + 1}, m={mi - data['l']})"


class Mesh(Workload):
    """mesh of a T p = 1 function and of MESH_I_INPUTS I functions at l = 45.

    The command builds every irrep up to l, so the work of an export depends
    on its CLI seed (an I build at l = 45 made 1321 to 2458 projections over
    eight seeds). The T export draws its seed and function afresh for every
    pass; every pass exports all the I functions, whose coefficient rows
    were written while preparing, so that passes do the same work."""

    def __init__(self, cli, work, seed):
        super().__init__(cli, work, seed)
        self.t_rots = checks.tetrahedral_rotations()
        self.t_functions = round(checks.so3_character(MESH_L, self.t_rots).mean())
        self.i_ops = [self._prepare_i(k) for k in range(MESH_I_INPUTS)]

    def _prepare_i(self, k: int) -> Op:
        i_seed = self.rng.randrange(10 ** 6)
        prep = self.work / "prep_I"
        code, output = run_cli(self.cli, ["basis", "--group", "I", "--lmax", str(MESH_L),
                                          "--seed", str(i_seed), "--no-verify",
                                          "--out", str(prep)])
        if code != 0:
            raise RuntimeError(f"preparing I failed: {output}")
        data = json.loads((prep / f"coeff_I_l{MESH_L:02d}.json").read_text())
        remove(prep)
        blk = self.rng.choice(data["blocks"])
        rows = np.array(blk["rows"], dtype=float)
        j = self.rng.randint(1, len(rows))
        row = rows[j - 1, :, 0] + 1j * rows[j - 1, :, 1]
        spot = np.array(self.rng.sample(range(10 * 4 ** MESH_SUBDIV + 2), 3))
        i_obj = self.work / f"I{k}.obj"
        return Op(
            f"mesh I seed={i_seed} p={blk['p']} n={blk['n']} j={j}",
            ["mesh", "--group", "I", "--p", str(blk["p"]), "--l", str(MESH_L),
             "--n", str(blk["n"]), "--j", str(j), "--seed", str(i_seed), "--out", str(i_obj)],
            self._checker(i_obj, lambda v, r: checks.evaluation_findings(v, r, row, MESH_L, spot)))

    def pass_ops(self, n):
        rng = self.pass_rng(n)
        n_t, t_seed = rng.randint(1, self.t_functions), rng.randrange(10 ** 6)
        t_obj = self.work / "T.obj"
        t_op = Op(
            f"mesh T seed={t_seed} p=1 n={n_t}",
            ["mesh", "--group", "T", "--p", "1", "--l", str(MESH_L), "--n", str(n_t),
             "--seed", str(t_seed), "--out", str(t_obj)],
            self._checker(t_obj, lambda v, r: checks.invariance_findings(v, r, self.t_rots)))
        return [t_op, *self.i_ops]

    @staticmethod
    def _checker(path, extra):
        def check(code, output):
            found = [exit_finding(code, 0, output)]
            if code != 0:
                return found
            verts, faces, radii = checks.read_obj(path)
            geo = checks.mesh_geometry_findings(verts, faces, radii, MESH_SUBDIV)
            found += geo
            if not checks.failures(geo):
                found += extra(verts, radii)
            return found
        return check

    def cleanup(self):
        for path in self.work.glob("*.obj"):
            remove(path)


WORKLOAD_CLASSES = {"construct": Construct, "reverify": Reverify, "mesh": Mesh}


# -- measurement ------------------------------------------------------------------

def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing polybasis.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polybasis.cli"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_s() -> float:
    """Time of the reference task: an interpreter loop and a JSON round trip
    of coefficient-shaped rows, code of the benchmark's own that no change to
    the package can speed up. It makes no BLAS call, so it leaves the
    ``sph_harm_y`` slowdown as the program's last operation left it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    for _ in range(REF_ROUND_TRIPS):
        json.loads(json.dumps(REF_ROWS))
    return time.perf_counter() - t0


def run_pass(workload: Workload, tracer: Tracer | None, n: int = 0,
             refs: list[float] | None = None) -> tuple[float, list[tuple[Op, int, str]]]:
    """Time pass ``n``, the sum of its operations' times; checking happens
    afterwards. With ``refs``, the reference task is timed before each
    operation, outside the pass time."""
    results = []
    wall = 0.0
    for op in workload.pass_ops(n):
        if refs is not None:
            refs.append(reference_s())
        t0 = time.perf_counter()
        if tracer is None:
            code, output = run_cli(workload.cli, op.argv)
        else:
            idx = tracer.open("cli", {"op": op.label, "expect_pass": op.expect_pass})
            try:
                code, output = run_cli(workload.cli, op.argv)
            finally:
                tracer.close(idx)
        wall += time.perf_counter() - t0
        results.append((op, code, output))
    return wall, results


def check_op(op: Op, code: int, output: str) -> Outcome:
    """Outputs too malformed to check count as a failed check."""
    try:
        return Outcome(op, op.check(code, output))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(op, [Finding("readable_output", math.inf, 0.0,
                                    f"{type(exc).__name__}: {exc}")])


def check_pass(workload: Workload, results) -> list[Outcome]:
    outcomes = [check_op(op, code, output) for op, code, output in results]
    workload.cleanup()
    return outcomes


@dataclass
class Timings:
    """Per pass: wall time and whether traced; and every time of the
    reference task taken during the run."""
    warmup: float = 0.0
    walls: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    def raw(self, traced: bool) -> list[float]:
        return [w for w, t in zip(self.walls, self.traced) if t == traced]

    @property
    def scale(self) -> float:
        """Factor that takes this run's times to the reference speed."""
        return REF_NOMINAL_S / statistics.median(self.refs)

    def scaled_median(self, traced: bool) -> float:
        return statistics.median(self.raw(traced)) * self.scale


def measure(workload: Workload, seconds: float, trace: bool):
    """Warm-up, then whole measured passes, at least MIN_PASSES, until
    another pass would end past ``seconds`` by more than half its length.
    Traced runs alternate untraced and traced passes. The reference task
    runs before every operation and once after the last pass.

    The warm-up runs the first operation and the reference task once: the
    first call in a process pays for lazy imports and first-touch
    allocations (a T mesh took 3.0 s on its first pass and 2.3 s on the
    next)."""
    t0 = time.perf_counter()
    run_cli(workload.cli, workload.pass_ops(0)[0].argv)
    reference_s()
    timings = Timings(warmup=time.perf_counter() - t0)
    workload.cleanup()
    tracer = Tracer()
    outcomes: list[Outcome] = []
    spent, n, wall = 0.0, 0, 0.0
    while spent + wall / 2 < seconds or n < MIN_PASSES:
        traced = trace and n % 2 == 1
        if traced:
            tracer.pass_no = n
            tracer.install()
        try:
            wall, results = run_pass(workload, tracer if traced else None, n, timings.refs)
        finally:
            tracer.uninstall()
        timings.walls.append(wall)
        timings.traced.append(traced)
        outcomes += check_pass(workload, results)
        spent += wall
        n += 1
    timings.refs.append(reference_s())
    return timings, outcomes, tracer


# -- environment and reporting -----------------------------------------------------

def _openblas(lib, stem: str, restype):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            out = fn()
            return out.decode() if isinstance(out, bytes) else out
    return None


def environment() -> dict:
    import mpmath
    import scipy
    from importlib.metadata import version

    blas = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for so in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(so))
            blas.append({"used_by": pkg.__name__, "library": so.name,
                         "config": _openblas(lib, "get_config", ctypes.c_char_p),
                         "core": _openblas(lib, "get_corename", ctypes.c_char_p),
                         "threads": _openblas(lib, "get_num_threads", ctypes.c_int)})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "mpmath": mpmath.__version__,
        "openblas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.startswith(("OPENBLAS", "OMP_", "MKL_", "GOTO"))},
    }


def digits(residual: float) -> float:
    """-log10 of a residual, kept within [-16, 16] so that it stays finite."""
    return -math.log10(min(max(residual, 1e-16), 1e16))


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_digits", "digits"), ("_per_block", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def summarize(trace: bool, timings: Timings, outcomes, tracer, workload: Workload,
              setup_s: float | None) -> dict:
    unexpected = [o for o in outcomes if o.failed and not o.expected_failure]
    metrics: dict[str, dict] = {}
    if not trace:
        worst = max([checks.worst_residual(o.findings) for o in outcomes]
                    + [checks.worst_residual(workload.prep_findings)])
        metrics["scaled_wall_s"] = {"value": timings.scaled_median(False), "unit": "s"}
        metrics["setup_s"] = {"value": setup_s * timings.scale, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        metrics["accuracy_digits"] = {"value": digits(worst), "unit": "digits"}
    else:
        passes = sorted({s[4] for s in tracer.spans})
        per_pass = [tracer.pass_metrics(p) for p in passes]
        for key in per_pass[0]:
            metrics[key] = {"value": statistics.median(m[key] for m in per_pass),
                            "unit": unit_of(key)}
        metrics["bench.wall_s"] = {"value": statistics.median(timings.raw(False)),
                                   "unit": "s"}
        metrics["bench.reference_s"] = {"value": statistics.median(timings.refs), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": timings.scaled_median(True) - timings.scaled_median(False),
            "unit": "s"}
    return {"correct": not unexpected, "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if o.failed), "metrics": metrics}


def report(name: str, seed: int, trace: bool, result: dict, timings: Timings,
           outcomes, tracer: Tracer, env: dict) -> None:
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(timings.walls)} passes, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    seen = set()
    for o in outcomes:
        for f in o.failed:
            key = (o.op.label, f.name, f.where)
            if key not in seen:
                seen.add(key)
                tag = "known fault" if o.expected_failure else "UNEXPECTED"
                print(f"failed ({tag}): {o.op.label}: {f}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    record = {"workload": name, "seed": seed, "trace": trace, "environment": env,
              "pass_walls_s": {"warmup": timings.warmup, "untraced": timings.raw(False),
                               "traced": timings.raw(True)},
              "reference_s": timings.refs,
              "operations": list(dict.fromkeys(o.op.label for o in outcomes)),
              **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (RESULTS / f"{name}_seed{seed}_spans.json").write_text(
            json.dumps(tracer.to_json()) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_cli()
    setup_s = None if trace else measure_setup()
    work = WORK / f"{name}-{os.getpid()}"
    remove(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOAD_CLASSES[name](cli, work, seed)
        timings, outcomes, tracer = measure(workload, seconds, trace)
    finally:
        remove(work)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    result = summarize(trace, timings, outcomes, tracer, workload, setup_s)
    report(name, seed, trace, result, timings, outcomes, tracer, environment())
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            print(proc.stdout, end="")
            combined[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
    else:
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
