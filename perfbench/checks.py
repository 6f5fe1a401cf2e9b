"""Reference versions of what the benchmark's ops compute, written with numpy
and closed forms so that they share no code with the package under test.

Every check returns a list of problems; an empty list means the output
passed. Tolerances are stated where float summation order can differ.
"""
from __future__ import annotations

import math

import numpy as np

# Wire format (see the package's crypto module docstring): an 11-byte header
# and 13 bytes per (t, value, reason) record. AES-128 has 16-byte blocks and
# PKCS#7 always adds at least one padding byte.
HEADER_LEN = 11
RECORD_LEN = 13
AES_BLOCK = 16

# Relative tolerance for sums that the package accumulates in a different
# order: n * 2**-52 stays below 1e-9 for n up to a few million samples.
AREA_RTOL = 1e-9
# Sensitivities and means over at most a few thousand records.
STAT_RTOL = 1e-9
# Sums of at most a few dozen byte counts times the energy constants.
ENERGY_RTOL = 1e-12


def select_reference(values: np.ndarray, vr: float, beacon: int | None):
    """The VR, anchor and beacon rule: kept indices and the reason of each.

    An interior sample is kept for "variance" when it differs from either
    neighbour by more than |value| * vr. The first and last samples are
    "anchor" and every beacon-th index is "beacon", unless already kept
    with a reason of higher precedence (variance > anchor > beacon).
    """
    n = len(values)
    variance = np.zeros(n, dtype=bool)
    if n >= 3:
        thresh = np.abs(values[1:-1]) * vr
        step = np.abs(np.diff(values))
        variance[1:-1] = (step[1:] > thresh) | (step[:-1] > thresh)
    anchor = np.zeros(n, dtype=bool)
    if n:
        anchor[[0, n - 1]] = True
    beacon_mask = np.zeros(n, dtype=bool)
    if beacon is not None:
        beacon_mask[::beacon] = True
    kept = np.flatnonzero(variance | anchor | beacon_mask)
    reasons = np.where(
        variance[kept], "variance", np.where(anchor[kept], "anchor", "beacon")
    )
    return kept, reasons.tolist()


def linear_reconstruction(times: np.ndarray, values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    recon = np.interp(times, times[kept], values[kept])
    recon[kept] = values[kept]
    return recon


def gap_areas_reference(times: np.ndarray, values: np.ndarray, recon: np.ndarray):
    """Vectorised trapezoid of d = original - recon, split at zero crossings."""
    t = times.astype(np.float64)
    d = values - recon
    t0, t1, d0, d1 = t[:-1], t[1:], d[:-1], d[1:]
    same = d0 * d1 >= 0
    whole = 0.5 * (np.abs(d0) + np.abs(d1)) * (t1 - t0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tz = t0 + (t1 - t0) * d0 / (d0 - d1)
    first = 0.5 * np.abs(d0) * (tz - t0)
    second = 0.5 * np.abs(d1) * (t1 - tz)
    positive = d0 > 0
    upper = np.where(same, np.where(positive | (d1 > 0), whole, 0.0),
                     np.where(positive, first, second))
    lower = np.where(same, np.where(positive | (d1 > 0), 0.0, whole),
                     np.where(positive, second, first))
    return float(np.sum(upper)), float(np.sum(lower))


def batch_bytes(records: int, batch: int) -> tuple[int, int, int]:
    """(messages, payload bytes, AES ciphertext bytes) for `records` records
    sent in batches of `batch`; an empty selection still sends one header."""
    sizes = [min(batch, records - start) for start in range(0, max(records, 1), batch)]
    payloads = [HEADER_LEN + k * RECORD_LEN for k in sizes]
    cipher = [(p // AES_BLOCK + 1) * AES_BLOCK for p in payloads]
    return len(sizes), sum(payloads), sum(cipher)


def energy_reference(records: int, batch: int, per_byte: float, per_message: float) -> float:
    messages, payload, cipher = batch_bytes(records, batch)
    # The local hop is charged for plaintext bytes, the uplink for ciphertext.
    return (payload + cipher) * per_byte + 2 * messages * per_message


def mean_replacement_sensitivity(x: np.ndarray, lo: float, hi: float) -> float:
    """Closed-form L1 sensitivity of the mean when neighbours delete one
    record or replace its value with a bound."""
    n = len(x)
    deletion = np.abs(x - x.mean()) / (n - 1)
    to_lo = np.abs(x - lo) / n
    to_hi = np.abs(x - hi) / n
    return float(np.max(np.maximum(deletion, np.maximum(to_lo, to_hi))))


def close(got: float, want: float, rtol: float, scale: float | None = None) -> bool:
    return math.isclose(got, want, rel_tol=0.0, abs_tol=rtol * abs(scale if scale is not None else want))


def check_selection(selected, values: np.ndarray, vr: float, beacon: int | None) -> list[str]:
    kept, reasons = select_reference(values, vr, beacon)
    want = list(zip(kept.tolist(), reasons))
    got = [(int(i), str(r)) for i, r in selected]
    if got == want:
        return []
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"select_samples: entry {k} is {g}, reference {w}"]
    return [f"select_samples kept {len(got)} samples, reference {len(want)}"]


def check_report(report: dict, times: np.ndarray, values: np.ndarray, *, vr: float,
                 beacon: int | None, batch: int, population_hr: np.ndarray,
                 population_bt: np.ndarray, epsilon: float) -> list[str]:
    """Check a parsed pipeline report against the references."""
    problems = []
    n = len(values)
    kept, _ = select_reference(values, vr, beacon)
    m = report["inference_metrics"]
    if m["n"] != n or m["t"] != len(kept):
        problems.append(f"report n={m['n']} t={m['t']}, reference n={n} t={len(kept)}")
    if m["sr"] != 100.0 * (n - len(kept)) / n:
        problems.append(f"report sr={m['sr']} does not match 100*(n-t)/n")
    up, lo = gap_areas_reference(times, values, linear_reconstruction(times, values, kept))
    scale = up + lo
    if not (close(m["s_upper"], up, AREA_RTOL, scale) and close(m["s_lower"], lo, AREA_RTOL, scale)):
        problems.append(
            f"gap areas ({m['s_upper']}, {m['s_lower']}) differ from the reference "
            f"({up}, {lo}) by more than {AREA_RTOL} of their sum"
        )

    messages, payload, cipher = batch_bytes(len(kept), batch)
    hops = {h["hop"]: h for h in report["log"]}
    want_hops = {
        "sensor->gateway": {"messages": messages, "payload_bytes": payload, "ciphertext_bytes": 0},
        "gateway->edge": {"messages": messages, "payload_bytes": payload, "ciphertext_bytes": cipher},
    }
    for name, want in want_hops.items():
        got = {k: hops.get(name, {}).get(k) for k in want}
        if got != want:
            problems.append(f"hop {name}: {got}, closed form {want}")

    em = report["energy_model"]
    per_byte, per_msg = em["joules_per_byte_tx"], em["joules_per_message_overhead"]
    for key, records in (("energy_actual_joules", len(kept)), ("energy_baseline_joules", n)):
        want = energy_reference(records, batch, per_byte, per_msg)
        if not close(report[key], want, ENERGY_RTOL):
            problems.append(f"{key}={report[key]}, closed form {want}")

    q = report["query_results"]
    truths = (float(np.mean(population_hr)), float(np.mean(population_bt)), float(len(population_hr)))
    if len(q) != 3:
        problems.append(f"expected 3 query results, got {len(q)}")
    else:
        for name, got, want in zip(("mean HR", "mean BT", "count"), q, truths):
            if not close(got["real_result"], want, STAT_RTOL):
                problems.append(f"{name}: real_result {got['real_result']}, reference {want}")
            if got["out_result"] != got["real_result"] + got["noise"] or got["epsilon"] != epsilon:
                problems.append(f"{name}: out_result or epsilon inconsistent: {got}")
    return problems


def check_vr_rows(rows, times: np.ndarray, values: np.ndarray, beacon: int | None) -> list[str]:
    problems = []
    n = len(values)
    for row in rows:
        kept, _ = select_reference(values, row.vr, beacon)
        up, lo = gap_areas_reference(times, values, linear_reconstruction(times, values, kept))
        if row.t != len(kept) or row.sr != 100.0 * (n - len(kept)) / n:
            problems.append(f"vr sweep at vr={row.vr}: t={row.t} sr={row.sr}, reference t={len(kept)}")
        if not close(row.s_diff, abs(up - lo), AREA_RTOL, up + lo):
            problems.append(f"vr sweep at vr={row.vr}: s_diff={row.s_diff}, reference {abs(up - lo)}")
    return problems


SUITE_BLOCKS = {"aes-128-ecb": 16, "des-ecb": 8, "blowfish-ecb": 8}


def check_size_rows(rows) -> list[str]:
    problems = []
    for row in rows:
        plain = math.floor((100.0 - row.savings) * 1024.0 / 100.0 + 1e-9)
        cipher = {name: (plain // b + 1) * b for name, b in SUITE_BLOCKS.items()}
        if row.plaintext_bytes != plain or dict(row.ciphertext_bytes) != cipher:
            problems.append(
                f"size sweep at {row.savings}%: {row.plaintext_bytes} {row.ciphertext_bytes}, "
                f"closed form {plain} {cipher}"
            )
    return problems


def check_sensitivity(got: float, want: float, label: str) -> list[str]:
    if close(got, want, STAT_RTOL):
        return []
    return [f"l1_sensitivity({label}) = {got!r}, closed form {want!r}"]
