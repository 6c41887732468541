"""Output checks on what the dgn CLI writes. Each raises CheckFailed
with a reason; the benchmark counts the operation as failed."""

from __future__ import annotations

import hashlib
import math
import os

REPORT_KEYS = (
    "epoch", "tce", "vmf", "dis", "con", "total",
    "train_miou", "val_miou", "em_iters", "degenerate",
)
LOSS_KEYS = ("tce", "vmf", "dis", "con", "total")
PRINTED_DIGITS = 6   # dgn writes probabilities with "%.6g"


class CheckFailed(Exception):
    pass


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_report(path: str, epochs: int) -> list[dict[str, float]]:
    """Every line of report.txt parses, with finite losses. Returns the
    values of every line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != epochs:
        raise CheckFailed(f"{path}: {len(lines)} lines for {epochs} epochs")
    parsed = []
    for line_no, line in enumerate(lines, start=1):
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        if tuple(fields) != REPORT_KEYS or len(line.split()) != len(REPORT_KEYS):
            raise CheckFailed(f"{path}:{line_no}: fields {tuple(fields)}")
        try:
            values = {k: float(v) for k, v in fields.items()}
        except ValueError:
            raise CheckFailed(f"{path}:{line_no}: malformed number") from None
        if not all(math.isfinite(values[k]) for k in LOSS_KEYS):
            raise CheckFailed(f"{path}:{line_no}: non-finite loss")
        if not all(0.0 <= values[k] <= 1.0 for k in ("train_miou", "val_miou")):
            raise CheckFailed(f"{path}:{line_no}: mIoU outside [0, 1]")
        parsed.append(values)
    return parsed


def check_checkpoint(path: str) -> str:
    """model.ckpt loads through network.load_checkpoint and saves back
    to the same bytes. Returns its SHA-256."""
    from dgn import network
    from dgn.errors import DgnError

    again = path + ".roundtrip"
    try:
        params, bank = network.load_checkpoint(path)
        network.save_checkpoint(again, params, bank)
        same = sha256(again) == sha256(path)
    except (DgnError, ValueError, OSError) as exc:
        raise CheckFailed(f"{path}: {type(exc).__name__}: {exc}") from None
    finally:
        if os.path.exists(again):
            os.remove(again)
    if not same:
        raise CheckFailed(f"{path}: bytes change on a load/save round trip")
    return sha256(path)


def rounding_bound(value: float) -> float:
    """Largest error of a nonzero value printed with PRINTED_DIGITS
    significant digits: half a unit in the last printed digit."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - PRINTED_DIGITS + 1)


def check_posteriors(path: str, rows: int, k: int) -> str:
    """``rows`` lines of k probabilities, each line summing to 1 within
    the rounding of its printed digits. That rounding alone can move a
    row sum of k = 8 values by more than 1e-6. Returns the file's SHA-256."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != rows:
        raise CheckFailed(f"{path}: {len(lines)} rows, expected {rows}")
    for line_no, line in enumerate(lines, start=1):
        try:
            probs = [float(t) for t in line.split()]
        except ValueError:
            raise CheckFailed(f"{path}:{line_no}: malformed number") from None
        if len(probs) != k or min(probs) < 0.0:
            raise CheckFailed(f"{path}:{line_no}: not {k} probabilities")
        tol = math.fsum(rounding_bound(p) for p in probs) + 1e-12
        if abs(math.fsum(probs) - 1.0) > tol:
            raise CheckFailed(f"{path}:{line_no}: row sums to {math.fsum(probs)!r}")
    return sha256(path)


def check_assignments(path: str, rows: int, k: int) -> str:
    """``rows`` integers in [0, k). Returns the file's SHA-256."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != rows:
        raise CheckFailed(f"{path}: {len(lines)} rows, expected {rows}")
    for line_no, line in enumerate(lines, start=1):
        if not line.isdigit() or int(line) >= k:
            raise CheckFailed(f"{path}:{line_no}: assignment {line!r} not in [0, {k})")
    return sha256(path)


def count_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def scene_points(path: str) -> int:
    """Point count from a dgn/1 scene header."""
    with open(path) as fh:
        return int(fh.readline().split()[1])
