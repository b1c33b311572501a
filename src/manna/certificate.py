"""Self-contained solve certificates and the instance file format.

Both files are JSON with every rational carried as an exact 'p/q'
string; no binary floats exist anywhere, so serialization round-trips
bit-exactly and byte-identical output is reproducible across machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import InputError, VerificationError
from .model import Allocation, Instance, format_rat, parse_rat

AUX_MARK = "aux"


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "agents": inst.n,
        "items": inst.m,
        "values": [[_num(v) for v in row] for row in inst.values],
    }


def instance_from_dict(data: dict[str, Any]) -> Instance:
    try:
        n, m, values = data["agents"], data["items"], data["values"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"instance file missing field: {exc}") from None
    inst = Instance.from_rows(values)
    if inst.n != n or inst.m != m:
        raise InputError("instance file dimensions disagree with its value matrix")
    return inst


def instance_digest(inst: Instance) -> str:
    canonical = json.dumps(
        {
            "agents": inst.n,
            "items": inst.m,
            "values": [[format_rat(v) for v in row] for row in inst.values],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _num(v: Fraction) -> int | str:
    return int(v) if v.denominator == 1 else format_rat(v)


def _rat_or_none(v: Fraction | None) -> str | None:
    return None if v is None else format_rat(v)


def _encode_bundle(bundle: frozenset[int], aux: int | None) -> list:
    out: list = []
    for t in sorted(bundle):
        out.append(AUX_MARK if aux is not None and t == aux else t + 1)
    return out


def _decode_bundle(items: list, aux: int | None) -> frozenset[int]:
    if not isinstance(items, list):
        raise VerificationError(f"bundle {items!r} is not a list of item ids")
    decoded: set[int] = set()
    for entry in items:
        if entry == AUX_MARK:
            if aux is None:
                raise VerificationError("aux marker present in an original-instance bundle")
            decoded.add(aux)
        elif isinstance(entry, int) and not isinstance(entry, bool):
            decoded.add(entry - 1)
        else:
            raise VerificationError(f"bundle entry {entry!r} is not an item id")
    return frozenset(decoded)


_REQUIRED = object()


def _field(data: dict[str, Any], key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``data[key]``, which must be a ``kind`` (a bool is no int here).

    An absent key, or a null where a default exists, gives ``default``;
    without one it is an error.
    """
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise VerificationError(f"certificate field {key!r} is missing or null")
        return default
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise VerificationError(
            f"certificate field {key!r} must be {kind.__name__}, not {type(value).__name__}"
        )
    return value


def _rat(key: str, value: Any) -> Fraction:
    """``parse_rat`` for a value of certificate field ``key``."""
    try:
        return parse_rat(value)
    except InputError as exc:
        raise VerificationError(f"certificate field {key!r}: {exc}") from None


def _opt_rat(data: dict[str, Any], key: str) -> Fraction | None:
    value = data.get(key)
    return None if value is None else _rat(key, value)


def _rat_list(data: dict[str, Any], key: str) -> tuple[Fraction, ...] | None:
    values = _field(data, key, list, default=None)
    return None if values is None else tuple(_rat(key, v) for v in values)


def _rat_matrix(data: dict[str, Any], key: str) -> tuple[tuple[Fraction, ...], ...] | None:
    rows = _field(data, key, list, default=None)
    if rows is None:
        return None
    if not rows or not all(isinstance(row, list) and row and len(row) == len(rows[0]) for row in rows):
        raise VerificationError(f"certificate field {key!r} must be a non-empty rectangular matrix")
    return tuple(tuple(_rat(key, v) for v in row) for row in rows)


def _bundles(
    data: dict[str, Any], key: str, aux: int | None, default: Any = _REQUIRED
) -> tuple[frozenset[int], ...] | None:
    bundles = _field(data, key, list, default=default)
    return None if bundles is None else tuple(_decode_bundle(b, aux) for b in bundles)


@dataclass(frozen=True)
class Certificate:
    """Everything needed to re-check a solve, given the instance file.

    ``allocation_perturbed`` lives on the auxiliary instance (the extra
    item marked explicitly); ``allocation_original`` is its restriction.
    Trivial certificates (all-zero instances) carry only the original
    allocation. ``verification`` is the report dictionary produced by
    the certifier at solve time.
    """

    instance_digest: str
    seed: int
    mode: str
    strategy: str
    trivial: bool
    lam: Fraction | None
    omega: Fraction | None
    omega_exact: bool
    epsilon: Fraction | None
    eta: Fraction | None
    perturbed_values: tuple[tuple[Fraction, ...], ...] | None
    w_star: tuple[Fraction, ...] | None
    prices: tuple[Fraction, ...] | None
    tau: Fraction | None
    allocation_perturbed: Allocation | None
    allocation_original: Allocation
    swaps_perturbed: tuple[frozenset[int], ...] | None
    swaps_original: tuple[frozenset[int], ...]
    verification: dict[str, Any] = field(default_factory=dict)
    trace: tuple[dict, ...] = ()

    @property
    def aux_item(self) -> int | None:
        if self.perturbed_values is None:
            return None
        return len(self.perturbed_values[0]) - 1

    def to_dict(self) -> dict[str, Any]:
        aux = self.aux_item
        return {
            "format": "manna-certificate/1",
            "instance_digest": self.instance_digest,
            "seed": self.seed,
            "mode": self.mode,
            "strategy": self.strategy,
            "trivial": self.trivial,
            "lambda": _rat_or_none(self.lam),
            "omega": "inf" if (not self.trivial and self.omega is None) else _rat_or_none(self.omega),
            "omega_exact": self.omega_exact,
            "epsilon": _rat_or_none(self.epsilon),
            "eta": _rat_or_none(self.eta),
            "perturbed_values": None
            if self.perturbed_values is None
            else [[format_rat(v) for v in row] for row in self.perturbed_values],
            "w_star": None if self.w_star is None else [format_rat(x) for x in self.w_star],
            "prices": None if self.prices is None else [format_rat(x) for x in self.prices],
            "tau": _rat_or_none(self.tau),
            "allocation_perturbed": None
            if self.allocation_perturbed is None
            else [_encode_bundle(b, aux) for b in self.allocation_perturbed],
            "allocation_original": [_encode_bundle(b, None) for b in self.allocation_original],
            "swaps_perturbed": None
            if self.swaps_perturbed is None
            else [_encode_bundle(s, aux) for s in self.swaps_perturbed],
            "swaps_original": [_encode_bundle(s, None) for s in self.swaps_original],
            "verification": self.verification,
            "trace": list(self.trace),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Certificate:
        if not isinstance(data, dict) or data.get("format") != "manna-certificate/1":
            raise VerificationError("unrecognized certificate format")
        perturbed = _rat_matrix(data, "perturbed_values")
        aux = None if perturbed is None else len(perturbed[0]) - 1
        omega = None if data.get("omega") == "inf" else _opt_rat(data, "omega")
        return cls(
            instance_digest=_field(data, "instance_digest", str),
            seed=_field(data, "seed", int),
            mode=_field(data, "mode", str),
            strategy=_field(data, "strategy", str),
            trivial=_field(data, "trivial", bool),
            lam=_opt_rat(data, "lambda"),
            omega=omega,
            omega_exact=_field(data, "omega_exact", bool, default=True),
            epsilon=_opt_rat(data, "epsilon"),
            eta=_opt_rat(data, "eta"),
            perturbed_values=perturbed,
            w_star=_rat_list(data, "w_star"),
            prices=_rat_list(data, "prices"),
            tau=_opt_rat(data, "tau"),
            allocation_perturbed=_bundles(data, "allocation_perturbed", aux, default=None),
            allocation_original=_bundles(data, "allocation_original", None),
            swaps_perturbed=_bundles(data, "swaps_perturbed", aux, default=None),
            swaps_original=_bundles(data, "swaps_original", None),
            verification=_field(data, "verification", dict, default={}),
            trace=tuple(_field(data, "trace", list, default=[])),
        )

    @classmethod
    def from_json(cls, text: str) -> Certificate:
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise VerificationError(f"certificate is not valid JSON: {exc}") from None
