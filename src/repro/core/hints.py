"""Generic hint framework for client-informed caching (CLIC, Section 2).

A storage client attaches a *hint set* to every I/O request it sends to the
storage server.  Each client defines its own *hint types* (named, categorical
attributes) and, for each hint type, a *hint value domain*.  A hint set is one
value drawn from each of the client's hint types.

CLIC treats hint values as opaque categorical labels: it neither assumes nor
exploits any ordering or semantics.  Hint types belonging to different clients
are always distinct, even if two clients are instances of the same application
and use identical hint-type names.  This module encodes that namespacing by
making the client identifier part of every :class:`HintSet`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

__all__ = [
    "HintType",
    "HintSchema",
    "HintSet",
    "EMPTY_HINT_SET",
    "make_hint_set",
]


@dataclass(frozen=True)
class HintType:
    """Description of one hint type exposed by a storage client.

    Parameters
    ----------
    name:
        Name of the hint type (e.g. ``"pool_id"`` or ``"request_type"``).
    domain:
        The set of values the hint may take.  CLIC only requires the domain to
        be categorical; the domain recorded here is used for validation,
        documentation (the paper's Figure 2 reports domain cardinalities) and
        by the synthetic workload generators.  ``None`` means the domain is
        open-ended (values are still categorical but not enumerated up front).
    description:
        Human-readable description, mirroring Figure 2 of the paper.
    """

    name: str
    domain: tuple | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("hint type name must be non-empty")
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))

    @property
    def cardinality(self) -> int | None:
        """Number of values in the domain, or ``None`` for open domains."""
        return None if self.domain is None else len(self.domain)

    def validate(self, value: object) -> None:
        """Raise ``ValueError`` if *value* is outside a closed domain."""
        if self.domain is not None and value not in self.domain:
            raise ValueError(
                f"value {value!r} not in domain of hint type {self.name!r}"
            )


class HintSchema:
    """The ordered collection of hint types defined by one storage client.

    A schema fixes the order of hint types, so a hint set can be represented
    compactly as a tuple of values aligned with the schema.  The schema also
    owns the client identifier used to namespace hint sets (Section 2: hint
    types of different clients are always treated as distinct).
    """

    def __init__(self, client_id: str, hint_types: Sequence[HintType]):
        if not client_id:
            raise ValueError("client_id must be non-empty")
        names = [ht.name for ht in hint_types]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate hint type names in schema: {names}")
        self._client_id = client_id
        self._hint_types = tuple(hint_types)
        self._names = tuple(names)
        self._index = {ht.name: i for i, ht in enumerate(self._hint_types)}
        # One shared HintSet per distinct value tuple (see make_hint_set).
        self._interned: dict[tuple, HintSet] = {}

    @property
    def client_id(self) -> str:
        return self._client_id

    @property
    def hint_types(self) -> tuple[HintType, ...]:
        return self._hint_types

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._hint_types)

    def __iter__(self):
        return iter(self._hint_types)

    def __getitem__(self, name: str) -> HintType:
        return self._hint_types[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HintSchema(client_id={self._client_id!r}, names={self.names})"

    def max_hint_sets(self) -> int | None:
        """Upper bound on the number of distinct hint sets (Section 5).

        The number of distinct hint sets from a client can be as large as the
        product of the cardinalities of its hint value domains.  Returns
        ``None`` if any domain is open-ended.
        """
        total = 1
        for ht in self._hint_types:
            if ht.cardinality is None:
                return None
            total *= ht.cardinality
        return total

    def make_hint_set(
        self, values: Mapping[str, object] | Sequence[object], validate: bool = False
    ) -> "HintSet":
        """Build a :class:`HintSet` for this schema.

        ``values`` may be a mapping from hint-type name to value, or a
        sequence of values in schema order.  With ``validate=True`` each value
        is checked against its (closed) domain.

        Equal values give the same (immutable) instance: a generated trace
        repeats a few hundred distinct hint sets over every request, so the
        schema builds each one once.
        """
        names = self._names
        if isinstance(values, Mapping):
            if values.keys() != self._index.keys():
                missing = [n for n in names if n not in values]
                if missing:
                    raise ValueError(f"missing hint values for {missing}")
                extra = [n for n in values if n not in self._index]
                raise ValueError(f"unknown hint types {extra}")
            ordered = tuple([values[n] for n in names])
        else:
            ordered = tuple(values)
            if len(ordered) != len(self._hint_types):
                raise ValueError(
                    f"expected {len(self._hint_types)} hint values, got {len(ordered)}"
                )
        if validate:
            for ht, value in zip(self._hint_types, ordered):
                ht.validate(value)
        hint_set = self._interned.get(ordered)
        if hint_set is None:
            hint_set = HintSet(client_id=self._client_id, names=names, values=ordered)
            self._interned[ordered] = hint_set
        return hint_set

    def describe(self) -> list[dict]:
        """Figure 2-style description: name, domain cardinality, description."""
        return [
            {
                "hint_type": ht.name,
                "cardinality": ht.cardinality,
                "description": ht.description,
            }
            for ht in self._hint_types
        ]


@dataclass(frozen=True)
class HintSet:
    """An immutable, hashable hint set attached to one I/O request.

    The ``client_id`` participates in equality and hashing so that hint sets
    from different clients never collide, as required by Section 2 of the
    paper.
    """

    client_id: str
    names: tuple[str, ...]
    values: tuple

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values):
            raise ValueError("names and values must have equal length")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def get(self, name: str, default: object = None) -> object:
        """Return the value of hint type *name*, or *default* if absent."""
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            return default

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def key(self) -> tuple:
        """Compact hashable key: ``(client_id, values)``.

        The hint-type names are implied by the client's schema, so the key
        omits them.  This is the representation used in the hint table and in
        the Space-Saving summary, where memory per tracked hint set matters.

        The key is memoised on the instance: traces reuse hint-set objects
        heavily and every policy asks for the key on every request, so a
        multi-policy replay pays the tuple construction once per distinct
        hint set rather than once per request per policy.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = (self.client_id, self.values)
            object.__setattr__(self, "_key", key)
        return key

    def identity(self) -> tuple:
        """Full identity: ``(client_id, names, values)``.

        Unlike :meth:`key`, the hint-type names are included.  Trace
        serialization keys its hint-set dictionaries on this, so two hint
        sets that differ only in their names never collide on disk.
        """
        return (self.client_id, self.names, self.values)

    def extended(self, extra_names: Iterable[str], extra_values: Iterable[object]) -> "HintSet":
        """Return a new hint set with additional hint types appended.

        Used by the noise-injection experiment (Section 6.3), which adds ``T``
        synthetic hint types to every request of an existing trace.
        """
        extra_names = tuple(extra_names)
        extra_values = tuple(extra_values)
        if len(extra_names) != len(extra_values):
            raise ValueError("extra names and values must have equal length")
        clashes = set(extra_names) & set(self.names)
        if clashes:
            raise ValueError(f"hint types already present: {sorted(clashes)}")
        return HintSet(
            client_id=self.client_id,
            names=self.names + extra_names,
            values=self.values + extra_values,
        )

    def __str__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.names, self.values))
        return f"<{self.client_id}: {pairs}>"


#: A hint set carrying no information, used for hint-oblivious request streams.
EMPTY_HINT_SET = HintSet(client_id="", names=(), values=())


def make_hint_set(client_id: str, **values: object) -> HintSet:
    """Convenience constructor: ``make_hint_set("db2", pool_id=1, ...)``.

    Hint types are ordered by keyword order.  Prefer
    :meth:`HintSchema.make_hint_set` when a schema is available, since it
    fixes the ordering and can validate domains.
    """
    return HintSet(
        client_id=client_id,
        names=tuple(values.keys()),
        values=tuple(values.values()),
    )
