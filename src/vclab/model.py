"""Core domain types for binary classification over discrete sample spaces.

Instances, labeled samples, multi-samples, hypotheses and hypothesis spaces
with finite restriction oracles, and finitely supported distributions,
together with the elementary error quantities (pointwise loss, sample error,
true error, optimal errors) that the rest of the package builds on.

Every minimum over a space that the package computes (best true error,
minimal sample error, the sample-error minimizer) is the space's
:meth:`HypothesisSpace.least_wrong`, over its family's ``_least``; every
supremum (the U, V and sign-flipped deviations) and the UCP windows score
each realized labeling under a finite, signed measure through
:func:`restriction_errors`.  Neither reads a witness it does not return, and
the space's ``_witness`` builds the ``Hypothesis`` of each one read
(:class:`LazyWitnesses`) or returned.  ``loss``, ``sample_error`` and
``true_error`` score a given output.

All probabilities and error values are exact ``fractions.Fraction``s.  Floats
appearing in inputs are converted to their exact binary rational value, so
equality assertions downstream are meaningful.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import (accumulate, chain, combinations_with_replacement,
                       groupby, product, repeat)
from operator import getitem

if "hashlib" in sys.modules:  # loaded with OpenSSL: no second SHA-256
    from hashlib import sha256
else:  # the builtin SHA-256, as ``random`` does: hashlib loads OpenSSL
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

Labeling = tuple[int, ...]

_WEIGHT_SUM_TOL = Fraction(1, 10**9)

# Tables an ExplicitSpace keeps, least recently used dropped first.
EXPLICIT_TABLE_MEMO = 2048


class InexactOracleError(Exception):
    """A computation required an exact restriction oracle but got an
    under-approximating one."""


class BudgetError(Exception):
    """An exact enumeration would exceed its configured state budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


def to_fraction(value) -> Fraction:
    """Convert int/float/str/Fraction to an exact Fraction.

    Floats convert to their exact binary value; strings accept "p/q" and
    decimal forms.  An infinite or NaN float, a zero denominator ("1/0")
    and any other value are a ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("bool is not a numeric value")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise ValueError(f"cannot interpret {value!r} as a rational number")


def to_bit(value, what: str = "bit") -> int:
    """0 or 1 from a value equal to it (``1.0`` and ``True`` included);
    anything else, ``1.5`` or ``"1"``, is a ``ValueError`` naming
    ``what``."""
    if value in (0, 1):
        return int(value)
    raise ValueError(f"{what} must be 0 or 1, got {value!r}")


# ---------------------------------------------------------------------------
# Records, instances and samples


class Record:
    """Base of the package's immutable value classes.  On CPython 3.11 a
    frozen dataclass compiles its methods with ``exec`` at import, about
    1 ms per class; a record builds nothing.  Its fields are the names a
    subclass annotates, after its bases'; a class attribute of that name
    is a default.  ``_not_compared`` fields are left out of ``==`` (by
    exact class) and ``hash``, ``_not_shown`` ones out of the repr.
    Classes built thousands of times per run write their own ``__init__``."""

    _fields = _not_compared = _not_shown = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields
                         if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes {fields}")
        for f in fields:
            object.__setattr__(self, f, values[f])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields
                      if f not in self._not_compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields
            if f not in self._not_shown))

    def _replace(self, **changes):
        return type(self)(**{**{f: getattr(self, f) for f in self._fields},
                             **changes})


class Instance(Record):
    """A point of the instance space: a symbolic atom or a rational vector.

    ``hash(self.value)`` is computed once, at construction, and returned by
    ``__hash__``; hashing a tuple of ``Fraction``s otherwise takes a modular
    inverse per coordinate on every lookup.  So is the sort key, (0, name)
    or (1, d, f_1, c_1, ..., f_d, c_d), f_i = ``_rounded(c_i)``: the floats
    order unequal c_i (rounding is monotone) and c_i break ties, so the order
    is exact.  Neither is a field, nor in ``repr``, ``==`` or ``_replace``.
    Pickling goes back through ``Instance(value)``, so an atom's hash,
    which depends on the process's ``PYTHONHASHSEED``, is recomputed in
    the process that loads it.
    """

    value: str | tuple[Fraction, ...]

    def __post_init__(self):
        value = self.value
        object.__setattr__(self, "_hash", hash(value))
        object.__setattr__(self, "_key", (0, value) if isinstance(
            value, str) else (1, len(value), *chain.from_iterable(
                (_rounded(c), c) for c in value)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Instance, (self.value,)

    @staticmethod
    def atom(name: str) -> "Instance":
        if not isinstance(name, str) or not name:
            raise ValueError("atom name must be a non-empty string")
        return Instance(name)

    @staticmethod
    def point(*coords) -> "Instance":
        if not coords:
            raise ValueError("vector instances need dimension >= 1")
        return Instance(tuple(to_fraction(c) for c in coords))

    @property
    def is_atom(self) -> bool:
        return isinstance(self.value, str)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        if self.is_atom:
            raise ValueError(f"instance {self.value!r} is symbolic, not numeric")
        return self.value  # type: ignore[return-value]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def scalar(self) -> Fraction:
        coords = self.coords
        if len(coords) != 1:
            raise ValueError(f"instance {self} is not one-dimensional")
        return coords[0]

    def sort_key(self) -> tuple:
        # Kind tag first so atoms and vectors never compare element-wise.
        return self._key

    def __repr__(self) -> str:
        if self.is_atom:
            return f"Instance({self.value!r})"
        if len(self.value) == 1:
            return f"Instance.point({self.value[0]})"
        return f"Instance.point{tuple(map(str, self.value))}"


def _rounded(c: Fraction) -> float:
    """c correctly rounded, or an infinity past the largest float."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def as_instance(value) -> Instance:
    """Coerce a bare atom name, number, or coordinate tuple to an Instance."""
    if isinstance(value, Instance):
        return value
    if isinstance(value, str):
        return Instance.atom(value)
    if isinstance(value, (list, tuple)):
        return Instance.point(*value)
    return Instance.point(value)


class Sample(Record):
    """A labeled example (x, y), y in {0, 1}, its hash kept as Instance's."""

    instance: Instance
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        object.__setattr__(self, "_hash", hash((self.instance, self.label)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.label == other.label and (
                self.instance is other.instance
                or self.instance == other.instance)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Sample, (self.instance, self.label)

    def sort_key(self):
        return (self.instance.sort_key(), self.label)

    def canonical_bytes(self) -> bytes:
        """``a:NAME:LABEL`` or ``v:C1,...,Cd:LABEL``, UTF-8 encoded."""
        v = self.instance.value
        if isinstance(v, str):
            return f"a:{v}:{self.label}".encode()
        return ("v:" + ",".join(map(str, v)) + f":{self.label}").encode()


def as_sample(value) -> Sample:
    if isinstance(value, Sample):
        return value
    instance, label = value
    return Sample(as_instance(instance), to_bit(label, "label"))


class MultiSample(Record):
    """An ordered sequence of samples of length m >= 1 (repeats allowed),
    held in exactly one form: its ``samples`` (a caller's, an NFL training
    sample, or a draw for an order-dependent learner, in draw order), or a
    ``support`` with ``counts``, how often each entry was drawn (a draw for
    the UCP test or an order-invariant learner), whose ``samples`` are
    built on first read, in canonical support order.  The UCP test reads
    ``counts``; ``m`` and :meth:`tally` (sem, the U and V statistics, the
    empirical distribution) read either form; the rest reads ``samples``,
    as do equality and hashing.
    """

    samples: tuple[Sample, ...]
    support = counts = None

    def __init__(self, samples):
        if not samples:
            raise ValueError("a multi-sample must contain at least one sample")
        if not all(isinstance(z, Sample) for z in samples):
            raise TypeError("multi-sample entries must be Samples")
        object.__setattr__(self, "samples", samples)

    @staticmethod
    def of(*entries) -> "MultiSample":
        return MultiSample(tuple(as_sample(z) for z in entries))

    @staticmethod
    def unchecked(**fields) -> "MultiSample":
        """The multi-sample of the given ``samples``, or of ``support`` and
        ``counts``, unchecked: for callers that built them themselves."""
        drawn = object.__new__(MultiSample)
        drawn.__dict__.update(fields)
        return drawn

    @property
    def m(self) -> int:
        return len(self.samples) if self.counts is None else sum(self.counts)

    def __len__(self) -> int:
        return self.m

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def tally(self) -> Iterable[tuple[Sample, int]]:
        """(sample, count) pairs of the distinct samples drawn, each count
        >= 1; of the counts form, in support order, zero counts left
        out."""
        if self.counts is None:
            return Counter(self.samples).items()
        return ((z, c) for z, c in zip(self.support, self.counts) if c)

    def canonical_bytes(self, encode: Callable[[Sample], bytes]
                        = Sample.canonical_bytes) -> bytes:
        """Stable byte encoding for hashing-based lookup learners: each
        sample's :meth:`Sample.canonical_bytes` (``encode``, or a memo of
        it), joined by ``|``."""
        return b"|".join(map(encode, self.samples))


class _CanonicalSamples:
    """The ``samples`` of a multi-sample held as counts, built in canonical
    support order on first access and then stored on the instance, where
    they shadow this non-data descriptor.  Installed after the class is
    built, so that ``samples`` has no default; unlike a ``__getattr__``
    hook it adds nothing to other attribute lookups."""

    def __get__(self, zbar, owner=None):
        if zbar is None:
            return self
        samples = tuple(chain.from_iterable(map(repeat, zbar.support,
                                                zbar.counts)))
        zbar.__dict__["samples"] = samples
        return samples


MultiSample.samples = _CanonicalSamples()


def index_states(k: int, m: int, ordered: bool
                 ) -> Iterator[tuple[tuple[int, ...], int]]:
    """The m-tuples of indices into k entries, each with the number of
    ordered tuples it stands for: every ordered tuple with weight 1, or,
    unless ``ordered``, every sorted multiset with its multinomial
    coefficient.  The weights always sum to k^m."""
    if ordered:
        for idx in product(range(k), repeat=m):
            yield idx, 1
        return
    for idx in combinations_with_replacement(range(k), m):
        counts = [len(tuple(run)) for _, run in groupby(idx)]
        yield idx, math.prod(map(math.comb, accumulate(counts), counts))


# ---------------------------------------------------------------------------
# Hypotheses and hypothesis spaces


class Hypothesis(Record):
    """A total binary classifier with a canonical identity key.

    Equality and hashing go through the key; two hypotheses with equal
    keys must evaluate identically everywhere.
    """

    key: tuple
    fn: Callable[[Instance], int]
    _not_shown = ("fn",)

    def __init__(self, key, fn):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "fn", fn)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.key,))

    def __call__(self, x: Instance) -> int:
        return self.fn(x)


class LazyWitnesses(Mapping):
    """Read-only witnesses: each labeling of ``instances`` has a witness
    key, turned into a ``Hypothesis`` by ``witness(instances, labeling,
    key)`` (a space's ``_witness``) on the labeling's first read and kept.
    ``in``, ``len`` and iteration go to ``witness_keys``, building none."""

    def __init__(self, witness_keys: Mapping[Labeling, object],
                 witness: Callable, instances: tuple[Instance, ...]):
        self.witness_keys, self._witness = witness_keys, witness
        self._instances, self._built = instances, {}

    def __getitem__(self, labeling: Labeling) -> Hypothesis:
        h = self._built.get(labeling)
        if h is None:
            h = self._built[labeling] = self._witness(
                self._instances, labeling, self.witness_keys[labeling])
        return h

    def __contains__(self, labeling) -> bool:
        return isinstance(labeling, tuple) and labeling in self.witness_keys

    def __iter__(self) -> Iterator[Labeling]:
        return iter(self.witness_keys)

    def __len__(self) -> int:
        return len(self.witness_keys)


def check_instance_tuple(instances: Sequence[Instance]) -> tuple[Instance, ...]:
    out = tuple(instances)
    if not out:
        raise ValueError("instance set must be non-empty")
    if not all(isinstance(x, Instance) for x in out):
        raise TypeError("expected Instance elements")
    if len(set(out)) != len(out):
        raise ValueError("instance set must not contain duplicates")
    return out


class HypothesisSpace:
    """Base class: an enumerable family of classifiers with a finite
    restriction oracle.

    Subclasses provide :meth:`dichotomies`, and may replace the least-wrong
    search (:meth:`_least`), the witness build (:meth:`_witness`) and
    :meth:`known_vc`; the counts and :meth:`least_wrong` derive from these.
    """

    kind: str = "abstract"

    @property
    def oracle_exact(self) -> bool:
        """True when dichotomies() returns exactly the restriction of the
        family on every finite instance set; otherwise a verified subset."""
        return True

    def dichotomies(self, instances: Sequence[Instance]
                    ) -> Mapping[Labeling, Hypothesis]:
        """The restrictions of the space to the ordered instance tuple: a
        read-only mapping from each realized labeling (aligned with the
        instances) to one hypothesis that gives it.  ``in`` takes tuples.
        The hypothesis is built when first read from a witness key chosen
        deterministically by the family (:class:`LazyWitnesses`):

        * ``ExplicitSpace``: the least bit-vector; the mapping is shared by
          every later call on the same instance tuple;
        * thresholds, intervals, co-singletons: the first key of the
          family's list (its ``_keys``) that gives the labeling;
        * halfspaces: the point Fourier-Motzkin back-substitution picks on
          the labeling's full system, which is not least in any order,
          kept if the table's tree found it and else solved when first
          read (``spaces.AffineWitnesses``);
        * formulas: the least parameter tuple of a finite source; over a
          sampled source on the exact backend, the key of a recognized
          closed form's space (native, or affine in the parameters by the
          halfspaces' rule) in declared parameter order, checked by the
          formula when first read; else the first tuple the seeded search
          finds.

        Each "least" or "first" there is the least index in a candidate
        list, which :func:`split_columns` finds."""
        raise NotImplementedError

    def dichotomy_count(self, instances: Sequence[Instance]) -> int:
        return len(self.dichotomies(instances))

    def known_vc(self) -> int | None:
        """A proven upper bound on the family's VC dimension, when it has a
        closed form; a search that reaches it has found the VC dimension."""
        return None

    def least_wrong(self, weighted: Iterable[tuple],
                    require_exact: bool = True) -> tuple:
        """(wrong, labeling, witness): ``min(restriction_errors(self,
        weighted, require_exact)[1])`` and ``witness()``, the table's
        hypothesis for it, by :meth:`_least`.  Weights are >= 0, as a
        distribution's or a sample's."""
        instances, costs = label_costs(self, weighted, require_exact)
        labeling, key = self._least(instances, costs)
        return (sum(map(getitem, costs, labeling)), labeling,
                lambda: self._witness(instances, labeling, key()))

    def _least(self, instances: tuple[Instance, ...], costs: list[tuple]
               ) -> tuple[Labeling, Callable[[], object]]:
        """The labeling of the least (weight wrong, labeling) of the
        instances' table, label y of instance j costing costs[j][y] >= 0,
        and a thunk of its witness key, the table's.  Line families sweep,
        affine ones search label prefixes best-first; this scans."""
        keys = self.dichotomies(instances).witness_keys
        labeling = min((sum(map(getitem, costs, lab)), lab) for lab in keys)[1]
        return labeling, lambda: keys[labeling]

    def _witness(self, instances, labeling, key) -> Hypothesis:
        """A witness key's hypothesis, for table reads and ``least_wrong``."""
        return self.hypothesis_from_key(key)

    def hypotheses(self) -> Iterator[Hypothesis]:
        raise NotImplementedError(f"{self.kind} space is not finitely enumerable")

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis(key)


class ExplicitSpace(HypothesisSpace):
    """A finite hypothesis space given by bit-vectors over a finite domain.

    Hypothesis i labels domain instance j with bit j of its vector, and
    labels everything outside the domain 0.  Duplicate bit-vectors collapse;
    hypotheses enumerate in lexicographic bit-vector order (the canonical
    order used for tie-breaking); each vector's ``Hypothesis`` is built on
    its first request and kept, so every later request, witness reads
    included, returns the same object.  Restrictions are computed on one
    label column per domain instance (bit i = vector i's label there, see
    :func:`split_columns`).  The space keeps the tables of the last
    ``EXPLICIT_TABLE_MEMO`` instance tuples it was asked about, and returns
    the same table object when a tuple comes again.
    """

    kind = "finite-explicit"

    def __init__(self, instances: Sequence, bitvectors: Iterable[Sequence[int]]):
        domain = check_instance_tuple([as_instance(x) for x in instances])
        vectors = set()
        for bits in bitvectors:
            row = tuple(to_bit(b, "a bit-vector entry") for b in bits)
            if len(row) != len(domain):
                raise ValueError("bit-vector length must equal domain size")
            vectors.add(row)
        if not vectors:
            raise ValueError("hypothesis space must be non-empty")
        self.domain = domain
        index = self._index = {x: i for i, x in enumerate(domain)}
        self._vectors = sorted(vectors)
        # Each vector keyed by itself until its Hypothesis is first asked
        # for, then by that Hypothesis: a lookup by a tuple equal to the
        # vector, such as (1.0, True), finds the same entry.
        hypotheses = self._hypotheses = {row: row for row in self._vectors}

        # Not methods: a memoized table referring to the space is a cycle.
        def hypothesis(bits: Labeling) -> Hypothesis:
            h = hypotheses[bits]
            if h.__class__ is not Hypothesis:
                def fn(x: Instance, _bits=h, _index=index) -> int:
                    i = _index.get(x)
                    return 0 if i is None else _bits[i]

                h = hypotheses[bits] = Hypothesis(key=("explicit", h), fn=fn)
            return h

        vectors = self._vectors
        columns = self._columns = {
            x: int("".join(str(row[j]) for row in reversed(vectors)), 2)
            for j, x in enumerate(domain)}

        @lru_cache(maxsize=EXPLICIT_TABLE_MEMO)
        def table(instances: tuple) -> LazyWitnesses:
            instances = check_instance_tuple(instances)
            return LazyWitnesses(split_columns(
                [columns.get(x, 0) for x in instances], vectors),
                lambda xs, lab, bits: hypothesis(bits), instances)

        self._hypothesis, self._table = hypothesis, table

    @classmethod
    def full(cls, instances: Sequence) -> "ExplicitSpace":
        domain = [as_instance(x) for x in instances]
        n = len(domain)
        rows = [[(i >> j) & 1 for j in range(n)] for i in range(2 ** n)]
        return cls(domain, rows)

    def __len__(self) -> int:
        return len(self._vectors)

    def hypotheses(self) -> Iterator[Hypothesis]:
        return map(self._hypothesis, self._vectors)

    def hypothesis_from_bits(self, bits: Sequence[int]) -> Hypothesis:
        bits = tuple(bits)
        if bits not in self._hypotheses:
            row = tuple(to_bit(b, "a bit-vector entry") for b in bits)
            raise ValueError(f"bit-vector {row} is not in the space")
        return self._hypothesis(bits)

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis_from_bits(key)

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        """Each distinct restriction with the least vector that gives it as
        witness, in order of that vector; instances outside the domain are
        labeled 0.  A tuple asked about before gets its memoized table."""
        return self._table(tuple(instances))

    def dichotomy_count(self, instances: Sequence[Instance]) -> int:
        return len(split_columns([self._columns.get(x, 0) for x
                                  in check_instance_tuple(instances)],
                                 self._vectors))


def split_columns(columns: Iterable[int], keys: Sequence
                  ) -> dict[Labeling, object]:
    """Each labeling of the points that one of the candidates ``keys``
    gives, mapped to the first such key, in the keys' order; bit i of the
    j-th column is key i's label on point j.  The keys are split point by
    point into the groups that agree on the points so far: one integer AND
    per group and point."""
    groups = [((), (1 << len(keys)) - 1)]
    for column in columns:
        split = []
        for lab, mask in groups:
            ones = mask & column
            if ones:
                split.append((lab + (1,), ones))
            if ones != mask:
                split.append((lab + (0,), mask ^ ones))
        groups = split
    # mask & -mask is the lowest set bit: the group's first key.
    return {lab: keys[i] for i, lab in sorted(
        [((mask & -mask).bit_length() - 1, lab) for lab, mask in groups])}


# ---------------------------------------------------------------------------
# Distributions


class DiscreteDistribution:
    """A finitely supported probability measure on the sample space.

    Weights are exact rationals summing to exactly 1.  Float weights are
    accepted when they sum to 1 within 1e-9 and are then renormalized to an
    exact unit total, so all downstream arithmetic stays exact.
    """

    def __init__(self, weighted_samples: Mapping | Iterable):
        items = (weighted_samples.items()
                 if isinstance(weighted_samples, Mapping) else weighted_samples)
        acc: dict[Sample, Fraction] = {}
        had_float = False
        for z, w in items:
            z = as_sample(z)
            if isinstance(w, float):
                had_float = True
            w = to_fraction(w)
            if w <= 0:
                raise ValueError("support weights must be positive")
            acc[z] = acc.get(z, Fraction(0)) + w
        if not acc:
            raise ValueError("distribution support must be non-empty")
        total = sum(acc.values())
        if total != 1:
            if not had_float or abs(total - 1) > _WEIGHT_SUM_TOL:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
            acc = {z: w / total for z, w in acc.items()}
        self._weights = acc
        self.support: tuple[Sample, ...] = tuple(
            sorted(acc, key=Sample.sort_key))

    @classmethod
    def uniform(cls, samples: Iterable) -> "DiscreteDistribution":
        zs = [as_sample(z) for z in samples]
        if not zs:
            raise ValueError("uniform distribution needs at least one sample")
        w = Fraction(1, len(zs))
        return cls([(z, w) for z in zs])

    @classmethod
    def point_mass(cls, sample) -> "DiscreteDistribution":
        return cls([(as_sample(sample), Fraction(1))])

    def weight(self, z: Sample) -> Fraction:
        return self._weights.get(z, Fraction(0))

    def items(self) -> Iterator[tuple[Sample, Fraction]]:
        for z in self.support:
            yield z, self._weights[z]

    def instances(self) -> tuple[Instance, ...]:
        return tuple(sorted({z.instance for z in self.support},
                            key=Instance.sort_key))

    def __len__(self) -> int:
        return len(self.support)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiscreteDistribution)
                and self._weights == other._weights)

    def __repr__(self) -> str:
        inner = ", ".join(f"{z}: {w}" for z, w in self.items())
        return f"DiscreteDistribution({{{inner}}})"


def common_denominator(weights: Sequence[int | Fraction]
                       ) -> tuple[int, list[int]]:
    """The least common denominator D of the rationals, and each one
    times D."""
    denom = math.lcm(*(w.denominator for w in weights))
    return denom, [w.numerator * (denom // w.denominator) for w in weights]


# ---------------------------------------------------------------------------
# Elementary error quantities


def loss(h: Hypothesis, z: Sample) -> int:
    """0/1 misclassification loss: 1 iff h(x) != y."""
    return 1 if h(z.instance) != z.label else 0


def sample_error(h: Hypothesis, zbar: MultiSample) -> Fraction:
    """Average loss of h on the multi-sample, as an exact k/m."""
    return Fraction(sum(loss(h, z) for z in zbar), zbar.m)


def true_error(h: Hypothesis, dist: DiscreteDistribution) -> Fraction:
    """Probability of misclassification under the distribution."""
    return sum((w for z, w in dist.items() if loss(h, z)), Fraction(0))


def empirical_distribution(zbar: MultiSample) -> DiscreteDistribution:
    """The uniform distribution over the multi-sample's entries, with
    repeated samples' weights accumulated."""
    m = zbar.m
    return DiscreteDistribution(
        {z: Fraction(c, m) for z, c in zbar.tally()})


def label_costs(space: HypothesisSpace, weighted: Iterable[tuple],
                require_exact: bool = True) -> tuple[tuple, list[tuple]]:
    """The pairs' distinct instances in canonical order, and the weight
    each one's labels 0 and 1 get wrong (``InexactOracleError`` first)."""
    if require_exact and not space.oracle_exact:
        raise InexactOracleError(
            f"{space.kind} space has no exact restriction oracle here; "
            "pass require_exact=False to accept a verified-subset bound")
    mass: dict[Instance, list] = {}
    for z, w in weighted:
        mass.setdefault(z.instance, [0, 0])[z.label] += w
    if not mass:
        raise ValueError("instance set must be non-empty")
    instances = tuple(sorted(mass, key=Instance.sort_key))
    return instances, [(mass[x][1], mass[x][0]) for x in instances]


def restriction_errors(space: HypothesisSpace,
                       weighted: Iterable[tuple[Sample, int | Fraction]],
                       require_exact: bool = True
                       ) -> tuple[Mapping[Labeling, Hypothesis], Iterator]:
    """The table's witnesses, and (wrong, labeling) for each realized
    labeling of the pairs' instances in table order; no witness is read.

    ``weighted`` is a finite signed measure on the sample space, as
    (sample, weight) pairs with int or ``Fraction`` weights (repeats add
    up).  The table is built once, on the instances of
    :func:`label_costs`, so every pair's instance is in it, zero weight or
    not.  The weight a labeling gets wrong is the sum over those instances
    of the weight on the label it does not give; with int weights it is an
    int, and it may be the int 0 with ``Fraction`` weights.  With
    ``require_exact`` a space whose oracle is inexact raises
    ``InexactOracleError`` before any table is built.
    """
    instances, costs = label_costs(space, weighted, require_exact)
    table = space.dichotomies(instances)
    return table, ((sum(map(getitem, costs, labeling)), labeling)
                   for labeling in table)


def approximation_error(space: HypothesisSpace, dist: DiscreteDistribution,
                        require_exact: bool = True) -> Fraction:
    """Best achievable true error of the space under the distribution.

    Equals the minimum over realized restrictions to the support instances,
    since the true error depends on a hypothesis only through that
    restriction.  With an inexact oracle (and ``require_exact=False``) the
    result is an upper bound only.  Labelings are scored in integer
    numerators over the weights' common denominator, with one ``Fraction``
    at the end; no witness is read.
    """
    denom, nums = common_denominator([w for _, w in dist.items()])
    return Fraction(space.least_wrong(zip(dist.support, nums),
                                      require_exact)[0], denom)


def empirical_opt(space: HypothesisSpace, zbar: MultiSample,
                  require_exact: bool = True) -> Fraction:
    """Minimal sample error over the space (attained, since restrictions to
    the sample instances are finite); no witness is read."""
    return Fraction(space.least_wrong(zbar.tally(), require_exact)[0], zbar.m)
