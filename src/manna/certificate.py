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


def _parse_opt(v: str | None) -> Fraction | None:
    return None if v is None else parse_rat(v)


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
        if data.get("format") != "manna-certificate/1":
            raise VerificationError("unrecognized certificate format")
        pv = data.get("perturbed_values")
        perturbed = None if pv is None else tuple(tuple(parse_rat(v) for v in row) for row in pv)
        aux = None if perturbed is None else len(perturbed[0]) - 1
        omega_raw = data.get("omega")
        omega = None if omega_raw in (None, "inf") else parse_rat(omega_raw)
        try:
            return cls(
                instance_digest=data["instance_digest"],
                seed=data["seed"],
                mode=data["mode"],
                strategy=data["strategy"],
                trivial=data["trivial"],
                lam=_parse_opt(data.get("lambda")),
                omega=omega,
                omega_exact=bool(data.get("omega_exact", True)),
                epsilon=_parse_opt(data.get("epsilon")),
                eta=_parse_opt(data.get("eta")),
                perturbed_values=perturbed,
                w_star=None
                if data.get("w_star") is None
                else tuple(parse_rat(x) for x in data["w_star"]),
                prices=None
                if data.get("prices") is None
                else tuple(parse_rat(x) for x in data["prices"]),
                tau=_parse_opt(data.get("tau")),
                allocation_perturbed=None
                if data.get("allocation_perturbed") is None
                else tuple(_decode_bundle(b, aux) for b in data["allocation_perturbed"]),
                allocation_original=tuple(
                    _decode_bundle(b, None) for b in data["allocation_original"]
                ),
                swaps_perturbed=None
                if data.get("swaps_perturbed") is None
                else tuple(_decode_bundle(s, aux) for s in data["swaps_perturbed"]),
                swaps_original=tuple(_decode_bundle(s, None) for s in data["swaps_original"]),
                verification=data.get("verification", {}),
                trace=tuple(data.get("trace", ())),
            )
        except KeyError as exc:
            raise VerificationError(f"certificate missing field {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> Certificate:
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise VerificationError(f"certificate is not valid JSON: {exc}") from None
