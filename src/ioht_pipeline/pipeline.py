"""End-to-end pipeline: trace -> variance-rate filter -> wire format ->
encryption -> simulated hops -> decryption at the edge -> noisy queries,
with per-hop byte accounting and a linear transmit-energy model."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .crypto import (
    CipherSuite,
    PayloadError,
    _cipher,
    decrypt,
    encrypt,
    frame_records,
    frame_sizes,
    message_batch,
    read_frames,
    transmitted_records,
)
from .dp import DpParams, DpQuery, NoisedResult, derive_streams, noisy_query
from .inference import (
    InferenceConfig,
    InferenceMetrics,
    TransmissionSet,
    compute_metrics,
    reconstruct,
    select_samples,
)
from .trace import BLOCK_SAMPLES, Trace, _integer, _real

HOP_SENSOR_GATEWAY = "sensor->gateway"
HOP_GATEWAY_EDGE = "gateway->edge"


@dataclass(frozen=True)
class HopLog:
    hop: str
    messages: int = 0
    payload_bytes: int = 0
    ciphertext_bytes: int = 0  # 0 on unencrypted hops


@dataclass(frozen=True)
class EnergyModel:
    """Illustrative constants, not measured values; reports always echo them."""

    joules_per_byte_tx: float = 1e-6
    joules_per_message_overhead: float = 1e-4

    def __post_init__(self) -> None:
        _real("joules_per_byte_tx", self.joules_per_byte_tx)
        _real("joules_per_message_overhead", self.joules_per_message_overhead)


@dataclass(frozen=True)
class PipelineConfig:
    inference: InferenceConfig
    suite: CipherSuite
    key: bytes
    dp: DpParams
    queries: tuple[DpQuery, ...]
    batch_samples: int = 60
    master_seed: int = 0
    energy: EnergyModel = EnergyModel()

    def __post_init__(self) -> None:
        object.__setattr__(self, "batch_samples", message_batch("batch_samples", self.batch_samples))
        _integer("master_seed", self.master_seed, 0)
        _cipher(self.suite, self.key)  # the suite's own key-length rule


@dataclass
class PipelineReport:
    inference_metrics: InferenceMetrics
    log: tuple[HopLog, HopLog]  # (sensor->gateway, gateway->edge)
    energy_baseline: float
    energy_actual: float
    energy_saving_percent: float
    query_results: list[NoisedResult]
    energy_model: EnergyModel

    def to_dict(self) -> dict:
        """The report as plain dicts and lists. The metrics, hops and energy
        model are flat frozen dataclasses of numbers and strings, so each is
        a copy of its field dict: what `dataclasses.asdict` gives, without its
        recursive deep copy."""
        return {
            "inference_metrics": vars(self.inference_metrics).copy(),
            "log": [vars(h).copy() for h in self.log],
            "energy_model": vars(self.energy_model).copy(),
            "energy_baseline_joules": self.energy_baseline,
            "energy_actual_joules": self.energy_actual,
            "energy_saving_percent": self.energy_saving_percent,
            "query_results": [
                {
                    "real_result": q.real_result,
                    "noise": q.noise,
                    "out_result": q.out_result,
                    "epsilon": q.params.epsilon,
                    "sensitivity": q.params.sensitivity,
                }
                for q in self.query_results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def log_csv(self) -> str:
        lines = ["hop,messages,payload_bytes,ciphertext_bytes"]
        for h in self.log:
            lines.append(f"{h.hop},{h.messages},{h.payload_bytes},{h.ciphertext_bytes}")
        return "\n".join(lines) + "\n"


def energy_estimate(hops: Iterable[HopLog], model: EnergyModel) -> float:
    """Linear model: bytes on the wire plus a per-message overhead.

    Encrypted hops are charged for ciphertext bytes, plain hops for payload
    bytes.
    """
    total = 0.0
    for hop in hops:
        wire_bytes = hop.ciphertext_bytes if hop.ciphertext_bytes > 0 else hop.payload_bytes
        total += wire_bytes * model.joules_per_byte_tx
        total += hop.messages * model.joules_per_message_overhead
    return total


def hop_log(record_count: int, batch: int, suite: CipherSuite) -> tuple[HopLog, HopLog]:
    """The (sensor->gateway, gateway->edge) hops of sending `record_count`
    records, `batch` to a message, from `frame_sizes` alone. `_transmit`
    checks the bytes it really sends against them, and the unfiltered
    baseline is `hop_log(n, ...)`."""
    messages, payload_bytes, ciphertext_bytes = frame_sizes(record_count, batch, suite)
    return (HopLog(HOP_SENSOR_GATEWAY, messages, payload_bytes),
            HopLog(HOP_GATEWAY_EDGE, messages, payload_bytes, ciphertext_bytes))


def _transmit(
    trace: Trace,
    tx: TransmissionSet,
    config: PipelineConfig,
) -> tuple[HopLog, HopLog]:
    """Run the selected records through both hops and check at the edge that
    every message comes back bit-exactly; return `hop_log` of the records.

    The records go out in chunks of whole messages, about `BLOCK_SAMPLES`
    records each (one header-only message when there are none). Each chunk's
    messages are laid end to end in one buffer (`frame_records`), enciphered
    by one `encrypt` call and deciphered by one `decrypt` call. ECB enciphers
    each block on its own, so chunks of whole blocks, each under a cipher of
    its own, give the bytes of one pass over the run. Because every message
    is whole blocks once padded, and a chunk's last message is full except
    in the last chunk, that is byte for byte what a call per message would
    send. The edge hands `read_frames` the last t of the chunk before, so t
    must increase across chunks as within one. Raises RuntimeError if
    `read_frames` refuses a chunk at the edge, if what it reads differs from
    what was sent, or if the messages and bytes it read, or the ciphertext
    bytes, summed over the chunks, differ from `hop_log`.
    """
    batch, suite = config.batch_samples, config.suite
    log = hop_log(len(tx), batch, suite)
    chunk = batch * max(1, BLOCK_SAMPLES // batch)
    messages = payload_bytes = ciphertext_bytes = 0
    last_t = None
    for start in range(0, max(len(tx), 1), chunk):
        records = transmitted_records(trace, tx, start, start + chunk)
        sent = frame_records(trace.kind, trace.unit, records, batch, suite)
        encrypted = encrypt(sent, suite, config.key)
        # edge side
        decrypted = decrypt(encrypted, config.key)
        if decrypted != sent:
            raise RuntimeError("decryption mismatch: cipher or codec bug")
        try:
            kind, unit, received, count, size = read_frames(decrypted, batch, suite, last_t)
        except PayloadError as exc:
            raise RuntimeError(f"edge-side records differ from transmitted records: {exc}") from exc
        if ((kind, unit) != (trace.kind, trace.unit)
                or not np.array_equal(received.view(np.uint8), records.view(np.uint8))):
            raise RuntimeError("edge-side records differ from transmitted records")
        if len(received):  # empty only in a run of no records, which is one chunk
            last_t = int(received["t"][-1])
        messages += count
        payload_bytes += size
        ciphertext_bytes += len(encrypted.ciphertext)
    uplink = log[1]
    read = (messages, payload_bytes, ciphertext_bytes)
    if read != (uplink.messages, uplink.payload_bytes, uplink.ciphertext_bytes):
        raise RuntimeError(f"read (messages, payload, ciphertext bytes) {read} "
                           f"differ from hop_log's")
    return log


def run_pipeline(
    trace: Trace,
    config: PipelineConfig,
    dataset: np.ndarray,
) -> PipelineReport:
    """Execute both tiers deterministically and assemble the report."""
    if len(trace) < 1:
        raise ValueError("pipeline requires a non-empty trace")
    # Tier 2 first, each query on its own stream: a bad dataset is refused before Tier 1
    streams = derive_streams(config.master_seed, len(config.queries))
    results = [
        noisy_query(dataset, query, config.dp, stream)
        for query, stream in zip(config.queries, streams)
    ]
    tx = select_samples(trace, config.inference)
    log = _transmit(trace, tx, config)
    recon = reconstruct(trace, tx, config.inference.recon_mode)
    metrics = compute_metrics(trace, tx, recon)

    # Baseline sends all N samples through the identical wire format and
    # cipher, so the savings isolate the filter's effect.
    energy_actual = energy_estimate(log, config.energy)
    energy_baseline = energy_estimate(
        hop_log(len(trace), config.batch_samples, config.suite), config.energy)
    saving = (
        100.0 * (energy_baseline - energy_actual) / energy_baseline
        if energy_baseline > 0
        else 0.0
    )
    return PipelineReport(
        inference_metrics=metrics,
        log=log,
        energy_baseline=energy_baseline,
        energy_actual=energy_actual,
        energy_saving_percent=saving,
        query_results=results,
        energy_model=config.energy,
    )
