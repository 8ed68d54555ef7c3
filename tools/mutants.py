"""Mutation check: every planted fault must make its tests fail.

Run from anywhere:  python3 tools/mutants.py

Each mutant is (file, exact old text, new text, test selector). The script
copies the tree's ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, replaces the old text, which must occur exactly once, and runs
pytest on the selector there; the mutant is caught when a test fails
(pytest's exit status 1, not a collection or usage error). Old
text that is missing or repeated makes the mutant stale, and that is an
error too, so a refactor must carry its mutants along. The unmutated tree
must pass every selector; its runs go first. Runs go two at a time; the exit status is 0
when the clean tree passes and every mutant is caught.

This file is not collected by the Tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = min(2, os.cpu_count() or 1)

PHY = "src/semcom/phy.py"
ENCODER = "src/semcom/encoder.py"
SCENEGEN = "src/semcom/scenegen.py"
CLI = "src/semcom/cli.py"
HARNESS = "src/semcom/harness.py"
FUNCOMP = "src/semcom/funcomp.py"
CSPACE = "src/semcom/cspace.py"
ORACLE = ("tests/test_link_oracle.py",)
CRITERION_3 = ("tests/test_acceptance.py::test_criterion_3_channel_ber",)
CHANNEL = ("tests/test_phy.py::TestChannelReference",)
LABELLER = ("tests/test_encoder.py::TestLargestComponent",)
WITNESS = ("tests/test_encoder.py", "-k", "Witness")
SLACK = ("tests/test_encoder.py::TestConsistencySlack",)
RULE = ("tests/test_encoder.py::TestRoundCertificateRule",)
FIT = ("tests/test_encoder.py::TestFitShapeReference",)
SECTORS = ("tests/test_encoder.py::TestSectorCheck",)
PPM = ("tests/test_scenegen.py::TestPpm",)
REPEATED = ("tests/test_cli.py", "-k", "repeated")
LONG_LINE = ("tests/test_cli.py", "-k", "long_line")
SHORT_LINE = ("tests/test_cli.py", "-k", "short_line")
ENCODE_MEMO = ("tests/test_encoder.py::TestEncodeMemo",)
RUN_POINTS = ("tests/test_harness.py::TestRunPoints",)
ENCODER_ERROR = ("tests/test_harness.py", "-k", "encoder_error")
THRESHOLD = ("tests/test_funcomp.py", "-k", "equal_to_the_threshold")

BPSK_MAP = "np.subtract(1.0, np.multiply(flat[lo:lo + _BLOCK], 2.0, out=y), out=y)"
NOISE = "math.sqrt(0.5 / _linear_snr(params.snr_db))"
BLOCKS = "for lo in range(0, bits.size, _BLOCK):"
FADES = "fades = params.rng.rayleigh(scale=math.sqrt(0.5), size=bits.size)\n"
FADES_THEN_NOISE = """\
    fades = params.rng.rayleigh(scale=math.sqrt(0.5), size=bits.size)
    sigma = math.sqrt(0.5 / _linear_snr(params.snr_db))
    flat, out = bits.ravel(), np.empty(bits.size, np.uint8)
    x, noise = np.empty((2, min(bits.size, _BLOCK)))
    for lo in range(0, bits.size, _BLOCK):
        a = fades[lo:lo + _BLOCK]
        y, z = x[:a.size], noise[:a.size]
        np.subtract(1.0, np.multiply(flat[lo:lo + _BLOCK], 2.0, out=y), out=y)
        y *= a
        y += np.multiply(params.rng.standard_normal(out=z), sigma, out=z)
"""
NOISE_THEN_FADES = ("    drawn = params.rng.standard_normal(bits.size)\n"
                    + FADES_THEN_NOISE.replace("params.rng.standard_normal(out=z)",
                                             "drawn[lo:lo + _BLOCK]"))
FADES_PER_BLOCK = FADES_THEN_NOISE.replace("    " + FADES, "").replace(
    "a = fades[lo:lo + _BLOCK]",
    "a = params.rng.rayleigh(scale=math.sqrt(0.5), size=min(_BLOCK, bits.size - lo))")
UNION_BOTH_WAYS = """\
            elif j > x:
                parent[j] = x
                components -= 1
"""
MARGIN = "beat = max(0.0, _OCTAGON_SLACK_FACTOR * circle_slack) + _PRUNE_EPS"
SKIP_OR_WITNESS = "if circle_slack <= 0 and (best[0] == 8 or _convexity_witness(mask, band)):"
PPM_TOKENS = r'rb"#[^\n]*\n?|(\S+)"'
REPEAT_CHECK = """\
                if x in mapping:
                    raise InvalidParameterError(
                        f"{args.spec}: element {x!r} repeated on line {reader.line_num}")
"""
REWIND = """\
        if k:
            rng.bit_generator.state = after_render
"""
DEGENERATE = "except (DegenerateSceneError, DegenerateShapeError, DegenerateHueError):"
LARGEST = "root == np.bincount(root, weights=lengths).argmax()"
LAST_LARGEST = "root == (lambda c: c.size - 1 - c[::-1].argmax())(np.bincount(root, weights=lengths))"
FRONT_END_KEY = "_front_end(img.shape, img.tobytes())"


def equal_to_anything(base: str, expr: str) -> str:
    """Source of ``expr`` as a ``base`` that hashes to 0 and equals every value,
    so a memo key built of it matches any other key in that place."""
    return (f'type("Any", ({base},), {{"__eq__": lambda a, b: True, '
            f'"__hash__": lambda a: 0}})({expr})')


ANY_SHAPE = equal_to_anything("tuple", "img.shape")


#: (name, file, old text, new text, pytest arguments)
MUTANTS = [
    # the link
    ("LSB-first unpack", PHY, "1 << np.arange(spec.n_b - 1, -1, -1)",
     "1 << np.arange(spec.n_b)", ORACLE),
    ("noise variance 1/snr (oracle)", PHY, NOISE, NOISE.replace("0.5 /", "1.0 /"), ORACLE),
    ("noise variance 1/snr (criterion 3)", PHY, NOISE, NOISE.replace("0.5 /", "1.0 /"),
     CRITERION_3),
    ("noise variance 1/snr (channel)", PHY, NOISE, NOISE.replace("0.5 /", "1.0 /"), CHANNEL),
    ("noise drawn before fades", PHY, FADES_THEN_NOISE, NOISE_THEN_FADES, CHANNEL),
    ("fades drawn block by block", PHY, FADES_THEN_NOISE, FADES_PER_BLOCK, CHANNEL),
    ("last partial block skipped", PHY, BLOCKS,
     BLOCKS.replace("bits.size,", "max(bits.size - _BLOCK + 1, 1),"), CHANNEL),
    ("bit map flipped", PHY, BPSK_MAP,
     "np.subtract(np.multiply(flat[lo:lo + _BLOCK], 2.0, out=y), 1.0, out=y)", CHANNEL),
    ("map worked in place on the caller's bits", PHY, BPSK_MAP,
     BPSK_MAP.replace("2.0, out=y)", "2.0, out=flat[lo:lo + _BLOCK])"), CHANNEL),
    ("dequantize to cell edges", PHY, "lo + (indices + 0.5) * (hi - lo) / levels",
     "lo + indices * (hi - lo) / levels", ORACLE),
    # the labeller
    ("union only towards earlier runs", ENCODER, UNION_BOTH_WAYS, "", LABELLER),
    ("last of equal sizes", ENCODER, LARGEST, LAST_LARGEST, LABELLER),
    ("diagonal touches join", ENCODER, "hi = np.searchsorted(starts, stops - width)",
     'hi = np.searchsorted(starts, stops - width, side="right")', LABELLER),
    ("scipy imported again", ENCODER, "import numpy as np\n",
     "import numpy as np\nfrom scipy import ndimage  # noqa: F401\n",
     ("tests/test_dependencies.py",)),
    # the certificate
    ("foreground on one side is enough", ENCODER, "g & (seen > 0) & (seen < seen[:, -1:])",
     "g & (seen > 0)", WITNESS),
    ("rows only", ENCODER, "for f, g in ((fg, gap), (fg.T, gap.T)):",
     "for f, g in ((fg, gap),):", WITNESS),
    ("grid floor raised", ENCODER, "slacks(grid_x, grid_y, floor)",
     "slacks(grid_x, grid_y, floor + 0.05)", SLACK),
    ("background bound tightened", ENCODER, "low <= lim[:, None] + _PRUNE_EPS",
     "low <= lim[:, None] - 0.05", SLACK),
    ("beat fixed at 0", ENCODER, "beat = max(0.0, _OCTAGON_SLACK_FACTOR * circle_slack)",
     "beat = 0.0", FIT),
    ("margin dropped (witness)", ENCODER, MARGIN, MARGIN.replace(" + _PRUNE_EPS", ""),
     WITNESS),
    ("margin dropped (rule)", ENCODER, MARGIN, MARGIN.replace(" + _PRUNE_EPS", ""), RULE),
    ("witness asked before a positive c", ENCODER, SKIP_OR_WITNESS,
     "if circle_slack <= 0 and best[0] == 8 or _convexity_witness(mask, band):", RULE),
    ("skip taken on a positive c", ENCODER, SKIP_OR_WITNESS,
     "if best[0] == 8 or circle_slack <= 0 and _convexity_witness(mask, band):", RULE),
    # the sector check
    ("sectors of every foreground pixel", ENCODER,
     "_sector_occupancy(angles[boundary_mask(mask).ravel()])",
     "_sector_occupancy(angles[mask.ravel()])", SECTORS),
    ("refused at exactly the minimum", ENCODER, ") < MIN_NONEMPTY_SECTORS:",
     ") <= MIN_NONEMPTY_SECTORS:", SECTORS),
    # the memo of the last image's mask and colour
    ("memo key without the shape", ENCODER, FRONT_END_KEY,
     f"_front_end({ANY_SHAPE}, img.tobytes())", ENCODE_MEMO),
    ("memo ignores the key", ENCODER, FRONT_END_KEY,
     f"_front_end({ANY_SHAPE}, {equal_to_anything('bytes', 'img.tobytes()')})",
     ENCODE_MEMO),
    # the readers of a user's file
    ("PPM comments read as tokens", SCENEGEN, PPM_TOKENS, r'rb"(\S+)"', PPM),
    ("repeated CSV element overwrites", CLI, REPEAT_CHECK, "", REPEATED),
    ("long CSV row accepted", CLI, " or None in row:", ":", LONG_LINE),
    ("short CSV row accepted", CLI, "if None in row.values() or ", "if ", SHORT_LINE),
    # the trial pipeline and the rate search
    ("stream not rewound between points", HARNESS, REWIND, "", RUN_POINTS),
    ("every SemcomError counted as degenerate", HARNESS, DEGENERATE,
     "except InvalidParameterError.__base__:  # SemcomError", ENCODER_ERROR),
    ("threshold met only strictly", FUNCOMP, "agg.mean_distortion <= tau)",
     "agg.mean_distortion < tau)", THRESHOLD),
    ("hue distance not wrapped", CSPACE, "return min(d, 1.0 - d)", "return d",
     ("tests/test_cspace.py",)),
]


def copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # tests/test_cli.py parses README's commands
        shutil.copy(os.path.join(ROOT, name), dest)


def mutated(path: str, old: str, new: str) -> str:
    """The file's text with the old text replaced; a stale mutant is an error."""
    with open(os.path.join(ROOT, path)) as f:
        text = f.read()
    if text.count(old) != 1:
        raise RuntimeError(f"stale mutant: {path} holds its old text "
                           f"{text.count(old)} times, not once: {old!r}")
    return text.replace(old, new)


def run(selector: tuple, mutant: tuple | None = None) -> tuple[int, float]:
    """pytest's exit status on the selector in a copy of the tree (mutated
    if a (file, old, new) is given), and the seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as dest:
        copy_tree(dest)
        if mutant:
            with open(os.path.join(dest, mutant[0]), "w") as f:
                f.write(mutated(*mutant))
        env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *selector], cwd=dest, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    for mutant in MUTANTS:  # refuse stale mutants before any run
        mutated(*mutant[1:4])
    selectors = sorted(set(m[4] for m in MUTANTS))
    with ThreadPoolExecutor(WORKERS) as pool:
        clean = list(pool.map(run, selectors))
        caught = list(pool.map(lambda m: run(m[4], m[1:4]), MUTANTS))
    ok = True
    for selector, (status, seconds) in zip(selectors, clean):
        verdict = "pass" if status == 0 else f"FAIL({status})"
        print(f"clean   {verdict:9} {seconds:5.1f}s  {' '.join(selector)}")
        ok = ok and status == 0
    for mutant, (status, seconds) in zip(MUTANTS, caught):
        verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"ERROR({status})")
        print(f"mutant  {verdict:9} {seconds:5.1f}s  {mutant[0]}: {' '.join(mutant[4])}")
        ok = ok and status == 1
    print(f"{'all mutants caught, clean tree passes' if ok else 'FAILED'} "
          f"in {time.perf_counter() - start:.1f}s on {WORKERS} workers")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
