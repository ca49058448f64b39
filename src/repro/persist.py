"""Persistence: deployable rule tables, trained models, campaign records.

Three artifact kinds cross process boundaries in a real deployment of this
system, and each gets a stable on-disk format:

* **compiled rule tables** (JSON) — the artifact that would be compiled into
  the hypervisor; training happens offline (the paper trains in WEKA from
  Simics traces, then implements the rules in Xen);
* **trained models** (JSON) — a rule table bundled with the held-out
  evaluation it shipped with (``repro-xentry train --save-model``);
* **campaign records** (JSON lines) — one fault-injection trial per line, so
  multi-hour campaigns can be analyzed incrementally and merged.

A fourth kind, the **golden artifact** (:mod:`repro.artifacts`), is binary
(checkpoint pages and numpy columns dominate it), but its structured rim —
activations and activation results — round-trips through the
JSON codecs below, so the artifact header stays greppable and the binary
layer stays a pure blob index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.faults.outcomes import (
    BurstFaultSpec,
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    MemoryFaultSpec,
    MultiBitFaultSpec,
    RecoveryRecord,
    TrialRecord,
    UndetectedKind,
)
from repro.ml.export import CompiledRules

__all__ = [
    "ModelArtifact",
    "save_rules",
    "load_rules",
    "save_model",
    "load_model",
    "save_records",
    "load_records",
    "activation_to_dict",
    "activation_from_dict",
    "activation_result_to_dict",
    "activation_result_from_dict",
]

_RULES_FORMAT = "xentry-rules-v1"
_MODEL_FORMAT = "xentry-model-v1"
_RECORDS_FORMAT = "xentry-records-v1"


# -- compiled rules -----------------------------------------------------------


def save_rules(rules: CompiledRules, path: str | Path) -> None:
    """Serialize a compiled rule table to JSON."""
    payload = {
        "format": _RULES_FORMAT,
        "feature_names": list(rules.feature_names),
        "feature": rules.feature.tolist(),
        "threshold": rules.threshold.tolist(),
        "left": rules.left.tolist(),
        "right": rules.right.tolist(),
        "prediction": rules.prediction.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_rules(path: str | Path) -> CompiledRules:
    """Load a rule table saved by :func:`save_rules`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _RULES_FORMAT:
        raise DatasetError(f"{path}: not a {_RULES_FORMAT} file")
    return _rules_from_payload(payload)


def _rules_from_payload(payload: dict) -> CompiledRules:
    return CompiledRules(
        feature=np.array(payload["feature"], dtype=np.int16),
        threshold=np.array(payload["threshold"], dtype=np.int64),
        left=np.array(payload["left"], dtype=np.int32),
        right=np.array(payload["right"], dtype=np.int32),
        prediction=np.array(payload["prediction"], dtype=np.int8),
        feature_names=tuple(payload["feature_names"]),
    )


# -- trained models -----------------------------------------------------------


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model loaded back from disk: rules + evaluation metadata.

    The deployable half of a :class:`~repro.xentry.training.TrainedModel`
    (the fitted Python tree object does not round-trip, the compiled table
    does) plus the held-out evaluation it shipped with.  Implements the
    detector protocol, so a loaded artifact drops straight into campaigns.
    """

    name: str
    rules: CompiledRules
    evaluation: dict

    def flags_incorrect(self, features) -> bool:
        """Detector protocol: delegate to the compiled rule table."""
        return self.rules.flags_incorrect(features)

    def classify_batch(self, X) -> tuple:
        """Batch detector protocol: ``(labels, comparisons)`` for a matrix.

        Delegates to :meth:`CompiledRules.classify_batch`, so a loaded
        artifact drops straight into the streaming scorer's micro-batch
        path with labels bit-identical to the in-memory model it was
        saved from.
        """
        return self.rules.classify_batch(X)

    def predict_batch(self, X):
        """Batch labels only (delegates to the compiled table)."""
        return self.rules.predict_batch(X)

    def flags_incorrect_batch(self, X):
        """Vectorized detector predicate (delegates to the compiled table)."""
        return self.rules.flags_incorrect_batch(X)


def save_model(model, path: str | Path) -> None:
    """Serialize a trained model (duck-typed ``TrainedModel``) as JSON.

    Stores the compiled rule table plus the evaluation headline — confusion
    counts, accuracy, detection/false-positive rates, and the train/test set
    summaries — so a saved model documents the numbers it was shipped with.
    """
    rules = model.rules
    if rules is None:
        raise DatasetError("model has no compiled rules to save")
    confusion = model.confusion
    payload = {
        "format": _MODEL_FORMAT,
        "name": model.name,
        "feature_names": list(rules.feature_names),
        "feature": rules.feature.tolist(),
        "threshold": rules.threshold.tolist(),
        "left": rules.left.tolist(),
        "right": rules.right.tolist(),
        "prediction": rules.prediction.tolist(),
        "evaluation": {
            "train": model.train_set.describe(),
            "test": model.test_set.describe(),
            "accuracy": confusion.accuracy,
            "detection_rate": confusion.detection_rate,
            "false_positive_rate": confusion.false_positive_rate,
            "confusion": {
                "true_negative": confusion.true_negative,
                "false_positive": confusion.false_positive,
                "false_negative": confusion.false_negative,
                "true_positive": confusion.true_positive,
            },
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_model(path: str | Path) -> ModelArtifact:
    """Load a model saved by :func:`save_model`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _MODEL_FORMAT:
        raise DatasetError(f"{path}: not a {_MODEL_FORMAT} file")
    return ModelArtifact(
        name=payload["name"],
        rules=_rules_from_payload(payload),
        evaluation=payload["evaluation"],
    )


# -- campaign records -----------------------------------------------------------


def _recovery_to_dict(recovery: RecoveryRecord) -> dict:
    return {
        "policy": recovery.policy,
        "action": recovery.action,
        "recovered": recovery.recovered,
        "attempts": recovery.attempts,
        "downtime": recovery.downtime_instructions,
        "divergent_words": recovery.divergent_words,
        "outputs_divergent": recovery.outputs_divergent,
        "state_digest": recovery.state_digest,
        "golden_digest": recovery.golden_digest,
        "detail": recovery.detail,
    }


def _recovery_from_dict(data: dict) -> RecoveryRecord:
    return RecoveryRecord(
        policy=data["policy"],
        action=data["action"],
        recovered=data["recovered"],
        attempts=data["attempts"],
        downtime_instructions=data["downtime"],
        divergent_words=data["divergent_words"],
        outputs_divergent=data["outputs_divergent"],
        state_digest=data["state_digest"],
        golden_digest=data["golden_digest"],
        detail=data.get("detail", ""),
    )


def _record_to_dict(record: TrialRecord) -> dict:
    payload = {
        "benchmark": record.benchmark,
        "vmer": record.vmer,
        "register": record.fault.register,
        "bit": record.fault.bit,
        "index": record.fault.dynamic_index,
        "activated": record.activated,
        "failure": record.failure_class.value,
        "detected_by": record.detected_by.value,
        "latency": record.detection_latency,
        "undetected_kind": record.undetected_kind.value if record.undetected_kind else None,
        "detail": record.detail,
    }
    # Non-register fault classes carry a discriminator plus their extra
    # coordinates; plain FaultSpec records omit them, so single-bit record
    # streams stay byte-identical to the pre-scenario format (just as
    # detection-only streams stay pre-recovery-identical below).
    fault = record.fault
    if isinstance(fault, MemoryFaultSpec):
        payload["fault"] = "memory"
        payload["address"] = fault.address
    elif isinstance(fault, MultiBitFaultSpec):
        payload["fault"] = "multibit"
        payload["bits"] = list(fault.bits)
    elif isinstance(fault, BurstFaultSpec):
        payload["fault"] = "burst"
        payload["flips"] = [[reg, bit] for reg, bit in fault.flips]
    # Only recovery-mode campaigns emit the key: detection-only record
    # streams stay byte-identical to the pre-recovery format.
    if record.recovery is not None:
        payload["recovery"] = _recovery_to_dict(record.recovery)
    return payload


def _fault_from_dict(data: dict):
    kind = data.get("fault", "register")
    if kind == "memory":
        return MemoryFaultSpec(data["address"], data["bit"])
    if kind == "multibit":
        return MultiBitFaultSpec(
            data["register"], tuple(data["bits"]), data["index"]
        )
    if kind == "burst":
        return BurstFaultSpec(
            tuple((reg, bit) for reg, bit in data["flips"]), data["index"]
        )
    if kind != "register":
        raise DatasetError(f"unknown fault class {kind!r} in record")
    return FaultSpec(data["register"], data["bit"], data["index"])


def _record_from_dict(data: dict) -> TrialRecord:
    recovery = data.get("recovery")
    return TrialRecord(
        benchmark=data["benchmark"],
        vmer=data["vmer"],
        fault=_fault_from_dict(data),
        activated=data["activated"],
        failure_class=FailureClass(data["failure"]),
        detected_by=DetectionTechnique(data["detected_by"]),
        detection_latency=data["latency"],
        undetected_kind=(
            UndetectedKind(data["undetected_kind"]) if data["undetected_kind"] else None
        ),
        detail=data.get("detail", ""),
        recovery=_recovery_from_dict(recovery) if recovery else None,
    )


def save_records(records, path: str | Path) -> int:
    """Write trial records as JSON lines (header line first); returns count."""
    records = list(records)
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": _RECORDS_FORMAT, "count": len(records)}) + "\n")
        for record in records:
            fh.write(json.dumps(_record_to_dict(record)) + "\n")
    return len(records)


def load_records(path: str | Path) -> tuple[TrialRecord, ...]:
    """Read trial records saved by :func:`save_records`."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != _RECORDS_FORMAT:
            raise DatasetError(f"{path}: not a {_RECORDS_FORMAT} file")
        records = tuple(_record_from_dict(json.loads(line)) for line in fh if line.strip())
    if header.get("count") is not None and header["count"] != len(records):
        raise DatasetError(
            f"{path}: header says {header['count']} records, found {len(records)} "
            "(truncated file?)"
        )
    return records


# -- golden-artifact structural codecs ----------------------------------------
#
# The JSON-able rim of a golden artifact (repro.artifacts.codec): everything
# except page contents and numpy columns.  Kept here with the other on-disk
# formats so one module owns every serialization contract.  Imports are local
# to the functions — persist is imported by training code that must not pull
# the machine simulator in.


def activation_to_dict(activation) -> dict:
    """Serialize an :class:`~repro.hypervisor.xen.Activation`."""
    return {
        "vmer": activation.vmer,
        "args": list(activation.args),
        "domain_id": activation.domain_id,
        "vcpu_id": activation.vcpu_id,
        "seq": activation.seq,
    }


def activation_from_dict(data: dict):
    """Rebuild an activation serialized by :func:`activation_to_dict`."""
    from repro.hypervisor.xen import Activation

    return Activation(
        vmer=data["vmer"],
        args=tuple(data["args"]),
        domain_id=data["domain_id"],
        vcpu_id=data["vcpu_id"],
        seq=data["seq"],
    )


def activation_result_to_dict(result) -> dict:
    """Serialize an :class:`~repro.hypervisor.xen.ActivationResult`.

    The exit reason is stored by VMER (rebuilt from the registry) and the
    exit op by name, so the payload is plain JSON scalars throughout.
    """
    return {
        "activation": activation_to_dict(result.activation),
        "vmer": result.reason.vmer,
        "exit_op": result.exit_op.name,
        "instructions": result.instructions,
        "path_hash": result.path_hash,
        "sample": list(result.sample.as_tuple()),
        "tsc_end": result.tsc_end,
    }


def activation_result_from_dict(data: dict, *, registry):
    """Rebuild a result serialized by :func:`activation_result_to_dict`."""
    from repro.hypervisor.xen import ActivationResult
    from repro.machine.isa import Op
    from repro.machine.perfcounters import CounterSample

    return ActivationResult(
        activation=activation_from_dict(data["activation"]),
        reason=registry.by_vmer(data["vmer"]),
        exit_op=Op[data["exit_op"]],
        instructions=data["instructions"],
        path_hash=data["path_hash"],
        sample=CounterSample(*data["sample"]),
        tsc_end=data["tsc_end"],
    )
