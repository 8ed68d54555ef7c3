"""Output checks computed apart from the program.

Every expected value here is derived in this file (the Rayleigh/BPSK
error rate, the binomial tails, the semantic loss, the quantizer's
half-cell) or is a property the method must have (the noiseless channel
flips no bit; a trial whose packet arrives intact decodes as it would
noiselessly). Nothing calls the routine it checks.

Each ``check_*`` returns one list of problems per operation: an empty
list means the operation passed.
"""

from __future__ import annotations

import math

from scipy.special import bdtr, bdtrc

#: Two-sided binomial tail below which a count is rejected. Runs make
#: about 10^4 such tests, so a correct program fails one with odds ~10^-5.
ALPHA = 1e-9

#: (lo, hi, circular) of the conceptual-space axes r, h, s, b.
AXES = ((1.0, 2.5, False), (0.0, 1.0, True), (0.0, 1.0, False), (0.0, 1.0, False))


def rayleigh_bpsk_ber(snr_db: float) -> float:
    """Average BER of coherent BPSK on flat Rayleigh fading."""
    g = 10.0 ** (snr_db / 10.0)
    return 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))


def packet_error_prob(snr_db: float, bits: int) -> float:
    """Probability that at least one of ``bits`` independent bits flips."""
    return -math.expm1(bits * math.log1p(-rayleigh_bpsk_ber(snr_db)))


def binomial_problem(label: str, x: int, n: int, p: float) -> str | None:
    """None if x is a plausible draw of Binomial(n, p), else a message."""
    if not 0 <= x <= n:
        return f"{label}: count {x} outside [0, {n}]"
    below = float(bdtr(x, n, p))        # P(X <= x)
    above = float(bdtrc(x - 1, n, p))   # P(X >= x)
    if min(below, above) < ALPHA:
        return (f"{label}: {x}/{n} implausible for p={p:.6g} "
                f"(tails {below:.3g}, {above:.3g})")
    return None


def exact_count(p: float, trials: int) -> int | None:
    """The integer count behind a proportion over ``trials``, if there is one."""
    x = round(p * trials)
    return x if abs(p * trials - x) < 1e-6 else None


def _same(text: str, value) -> bool:
    if value is None:
        return text == "None"
    got = float(text)
    if math.isnan(value):
        return math.isnan(got)
    return math.isclose(got, value, rel_tol=1e-5, abs_tol=1e-12)


def check_csv(rows: list[dict], text: str, header: str) -> list[list[str]]:
    """The written CSV carries the header and every row's values."""
    lines = text.splitlines()
    columns = header.split(",")
    problems = [[] for _ in rows]
    if not lines or lines[0] != header or len(lines) != len(rows) + 1:
        return [[f"csv has {len(lines)} lines / wrong header"] for _ in rows]
    for row, line, out in zip(rows, lines[1:], problems):
        fields = line.split(",")
        if len(fields) != len(columns) or not all(
                _same(f, row[c]) for f, c in zip(fields, columns)):
            out.append(f"csv line {line!r} does not match its row")
    return problems


def check_sweep(rows: list[dict], snr_list, *, trials: int, bits: int,
                sent: int) -> list[list[str]]:
    """Per-point checks of one SNR sweep.

    ``sent`` is how many of the ``trials`` scenes put a packet on the
    channel (the rest were degenerate at the transmitter); a sent packet
    of ``bits`` bits is hit by a syntactic error with probability
    1 - (1 - BER)^bits, independently per trial. The points share their
    channel draws, so each is bounded on its own.
    """
    if [r.get("snr_db") for r in rows] != list(snr_list):
        return [[f"sweep returned points {[r.get('snr_db') for r in rows]}"]
                for _ in snr_list]
    problems = [[] for _ in rows]
    syn = [exact_count(r["p_syntactic"], trials) for r in rows]
    sem = [exact_count(r["p_semantic"], trials) for r in rows]
    base = sem[snr_list.index(None)]
    for row, x_syn, x_sem, out in zip(rows, syn, sem, problems):
        snr = row["snr_db"]
        if x_syn is None or x_sem is None:
            out.append(f"{snr} dB: proportions are not counts over {trials} trials")
            continue
        if snr is None:
            if x_syn:
                out.append(f"noiseless channel: {x_syn} syntactic errors")
        else:
            msg = binomial_problem(f"{snr} dB syntactic", x_syn, sent,
                                   packet_error_prob(snr, bits))
            if msg:
                out.append(msg)
        if base is not None and x_sem > x_syn + base:
            out.append(f"{snr} dB: {x_sem} semantic errors > {x_syn} syntactic "
                       f"+ {base} noiseless")
        for key in ("mean_distortion", "distortion_se",
                    "p_syntactic_se", "p_semantic_se"):
            v = row[key]
            if not (math.isfinite(v) and v >= 0.0):
                out.append(f"{snr} dB: {key} = {v}")
    return problems


def axis_distances(p, q) -> list[float]:
    """Per-axis distance of two (r, h, s, b) points; hue on the unit circle."""
    out = []
    for a, b, (_, _, circular) in zip(p, q, AXES):
        d = abs(a - b)
        if circular:
            d %= 1.0
            d = min(d, 1.0 - d)
        out.append(d)
    return out


def semantic_loss(p, q) -> float:
    """Mean squared per-axis distance."""
    return sum(d * d for d in axis_distances(p, q)) / len(AXES)


def encoder_floor(pairs, n_b: int) -> tuple[float, float]:
    """Mean unquantized loss of (prototype, encoded point) pairs, and slack.

    The slack bounds how far quantizing the points at n_b bits can move
    that mean: each axis moves by at most its half-cell h, which moves a
    squared term d^2 by at most 2|d|h + h^2.
    """
    if not pairs:
        return math.nan, math.nan
    halves = [(hi - lo) / (1 << (n_b + 1)) for lo, hi, _ in AXES]
    loss = slack = 0.0
    for proto, point in pairs:
        dists = axis_distances(proto, point)
        loss += sum(d * d for d in dists) / len(AXES)
        slack += sum(2.0 * d * h + h * h for d, h in zip(dists, halves)) / len(AXES)
    return loss / len(pairs), slack / len(pairs) + 1e-12


def check_rate_search(result, *, tau: float, max_n_b: int, floor: float,
                      slack: float) -> list[list[str]]:
    """Per-point checks of one ``semantic_rate_search`` over n_b = 1..max_n_b.

    A wrong answer of the search as a whole (missing points, a wrong
    minimal_n_b) fails every point of it.
    """
    points = result.points
    got = [p.n_b for p in points]
    if got != list(range(1, max_n_b + 1)):
        return [[f"rate search returned n_b {got}"] for _ in range(max_n_b)]
    first = next((p.n_b for p in points if p.mean_distortion <= tau), None)
    if result.minimal_n_b != first:
        return [[f"minimal_n_b {result.minimal_n_b} != first feasible {first}"]
                for _ in points]
    problems = [[] for _ in points]
    for p, out in zip(points, problems):
        if not (math.isfinite(p.mean_distortion) and p.mean_distortion >= 0.0
                and math.isfinite(p.stderr) and p.stderr >= 0.0):
            out.append(f"n_b={p.n_b}: mean {p.mean_distortion}, se {p.stderr}")
        if p.feasible != (p.mean_distortion <= tau):
            out.append(f"n_b={p.n_b}: feasible={p.feasible} at mean "
                       f"{p.mean_distortion} vs tau {tau}")
    top = points[-1].mean_distortion
    if not abs(top - floor) <= slack:
        problems[-1].append(f"n_b={max_n_b} distortion {top!r} not within "
                            f"{slack:.3g} of the encoder floor {floor!r}")
    return problems


def check_channel_block(sent, received, snr_db: float) -> list[str]:
    """One block through the channel: same length, bits, plausible BER."""
    if received.shape != sent.shape:
        return [f"{snr_db} dB: {received.shape} bits out for {sent.shape} in"]
    if not ((received == 0) | (received == 1)).all():
        return [f"{snr_db} dB: output holds values other than 0 and 1"]
    errors = int((received != sent).sum())
    msg = binomial_problem(f"{snr_db} dB BER", errors, sent.size,
                           rayleigh_bpsk_ber(snr_db))
    return [msg] if msg else []
