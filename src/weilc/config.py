"""Project configuration: named algebras, expressions, fields, and bivectors.

The file is YAML; expressions are stored as grammar strings and parsed at
load, so a config is diffable and language-agnostic.  Monomial relations
use the same syntax as the element rendering: ``eps^2``, ``x*y``.  An
unknown key at the root, in an algebra entry or under ``suites`` is a
``ConfigError``: a misspelt setting would otherwise fall back to its default
unseen.  So is a key written twice in one mapping, which YAML would
otherwise settle silently for the later value, an entry whose name YAML
reads as no string, which no command line could name, and a generator or
relation that YAML reads as no string.  One loader reads every file.
"""

from __future__ import annotations

from functools import cache

from .algebra import AlgebraPresentation, Monomial, WeilAlgebra, build_algebra
from .errors import ConfigError, Record, WeilcError, cut_repr
from .expr import Expr, parse
from .poisson import MAX_CHART_DIM, PoissonStructure, check_settings
from .prolongation import VectorField


class SuiteSettings(Record):
    __match_args__ = ("seed", "trials", "tol")
    __hash__ = None

    def __init__(self, seed: int = 42, trials: int = 100, tol: float = 1e-9):
        self.seed = seed
        self.trials = trials
        self.tol = tol


class ProjectConfig(Record):
    """What a config file names; each mapping left out starts empty."""

    __match_args__ = ("chart_dim", "algebras", "expressions", "vector_fields", "bivectors",
                      "suites")
    __hash__ = None

    def __init__(
        self,
        chart_dim: int,
        algebras: dict[str, WeilAlgebra] | None = None,
        expressions: dict[str, Expr] | None = None,
        vector_fields: dict[str, VectorField] | None = None,
        bivectors: dict[str, PoissonStructure] | None = None,
        suites: SuiteSettings | None = None,
    ):
        self.chart_dim = chart_dim
        self.algebras = {} if algebras is None else algebras
        self.expressions = {} if expressions is None else expressions
        self.vector_fields = {} if vector_fields is None else vector_fields
        self.bivectors = {} if bivectors is None else bivectors
        self.suites = SuiteSettings() if suites is None else suites


def parse_relation(text: str, generators: tuple[str, ...]) -> Monomial:
    exponents = [0] * len(generators)
    for factor in text.split("*"):
        factor = factor.strip()
        name, sep, power = factor.partition("^")
        name = name.strip()
        if name not in generators:
            raise ConfigError(f"relation {cut_repr(text)} uses unknown generator {cut_repr(name)}")
        digits = power.strip() if sep else "1"
        # ASCII digits, as in the expression grammar: int() alone would also
        # read x^1_0, x^+2 and the digits of other scripts
        try:
            k = int(digits) if digits.isascii() and digits.isdigit() else 0
        except ValueError:  # more digits than int() converts
            k = 0
        if k < 1:
            raise ConfigError(f"bad exponent in relation {cut_repr(text)}")
        exponents[generators.index(name)] += k
    return tuple(exponents)


def _expect_mapping(data, prefix: str) -> dict:
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix}must be a mapping, got {type(data).__name__}")
    return data


def _check_keys(data: dict, prefix: str, known: tuple[str, ...]):
    for key in data:
        if key not in known:
            raise ConfigError(
                f"{prefix}unknown key {cut_repr(key)} (known keys: {', '.join(known)})")


def load_config(path: str) -> ProjectConfig:
    # the Python composer recurses per level of a value, and raises
    # RecursionError at a few hundred
    try:
        return _read_config(_load_yaml(path))
    except RecursionError:
        raise ConfigError(f"config {path} nests a value too deeply") from None


@cache
def _loader():
    """PyYAML's safe loader with libyaml's parser under PyYAML's Python
    composer, or its pure-Python one where PyYAML has no libyaml, made to
    refuse a key written twice in one mapping, a mapping given to a ``<<``
    merge key included.  Each mapping's keys are checked once, as written,
    when it is composed: before any merge rewrites its pairs, and once per
    anchor, as an alias is not composed again.  A ``<<`` key is no key, and a
    key that overrides a merged one is no repeat.  The class is built once: a
    config is loaded per command."""
    import yaml  # here, not at module level: only a config load reads YAML
    from yaml.composer import Composer

    try:
        from yaml.cyaml import CSafeLoader
    except ImportError:  # PyYAML built without libyaml
        base = yaml.SafeLoader
    else:
        # libyaml's C composer recurses on the C stack and crashed on a
        # value nested about 30,000 deep; the Python one raises RecursionError
        class base(Composer, CSafeLoader):
            def __init__(self, stream):
                CSafeLoader.__init__(self, stream)
                Composer.__init__(self)

    class Loader(base):
        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)
            keys = set()
            for key_node, _ in node.value:
                # a key that is not a scalar builds no hashable key, and the
                # constructor refuses it
                if (key_node.tag == "tag:yaml.org,2002:merge"
                        or not isinstance(key_node, yaml.ScalarNode)):
                    continue
                # a = key has no constructor until flatten_mapping retags it
                # as the string of its text
                key = (key_node.value if key_node.tag == "tag:yaml.org,2002:value"
                       else self.construct_object(key_node))
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found key {cut_repr(key)} written twice", key_node.start_mark)
                keys.add(key)
            return node

    return Loader


def _load_yaml(path: str):
    import yaml

    try:
        # the loader reads the file, so its errors name it
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_loader())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # ValueError: an integer longer than Python's limit on int digits, or
    # (UnicodeDecodeError) a file that is not UTF-8
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc


def _read_algebra(entry, n: int) -> WeilAlgebra:
    entry = _expect_mapping(entry, "")
    _check_keys(entry, "", ("generators", "relations"))
    # a string would be taken letter by letter, and YAML reads 1, true and ~
    # as no string
    lists = {key: entry.get(key, []) for key in ("generators", "relations")}
    for key, value in lists.items():
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {cut_repr(value)}")
        for item in value:
            if not isinstance(item, str):
                raise ConfigError(f"{key[:-1]} {cut_repr(item)} must be a string (quote it)")
    generators = tuple(lists["generators"])
    relations = tuple(parse_relation(r, generators) for r in lists["relations"])
    return build_algebra(AlgebraPresentation(generators, relations))


def _read_field(comps, n: int) -> VectorField:
    if not isinstance(comps, list) or len(comps) != n:
        raise ConfigError(f"needs {n} component expressions")
    return VectorField(tuple(parse(str(c), n) for c in comps))


def _read_bivector(entries, n: int) -> PoissonStructure:
    parsed: dict[tuple[int, int], Expr] = {}
    for key, text in _expect_mapping(entries, "").items():
        try:
            i_s, j_s = str(key).split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise ConfigError(f"key {cut_repr(key)} is not 'i,j'") from None
        if not 1 <= i < j <= n:
            raise ConfigError(f"entry ({i},{j}) is not upper-triangle in 1..{n}")
        # "1,2", "01,2" and "1, 2" are three YAML keys for one entry
        if (i - 1, j - 1) in parsed:
            raise ConfigError(f"entry ({i},{j}) is given twice")
        try:
            parsed[(i - 1, j - 1)] = parse(str(text), n)
        except WeilcError as exc:
            raise ConfigError(f"entry ({i},{j}): {exc}") from exc
    return PoissonStructure(n, parsed)


# each named section of a config, in the order read: the noun of its
# entries in an error, and the reader of one entry's value
_SECTIONS = {
    "algebras": ("algebra", _read_algebra),
    "expressions": ("expression", lambda text, n: parse(str(text), n)),
    "vector_fields": ("vector field", _read_field),
    "bivectors": ("bivector", _read_bivector),
}


def _read_config(data) -> ProjectConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, "config root: ", ("chart_dim", *_SECTIONS, "suites"))

    n = data.get("chart_dim")
    # YAML reads yes and true as bools, and a bool is an int to Python
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"chart_dim must be a positive integer, got {cut_repr(n)}")
    if n > MAX_CHART_DIM:
        raise ConfigError(f"chart_dim {n} is more than {MAX_CHART_DIM} (MAX_CHART_DIM)")
    cfg = ProjectConfig(chart_dim=n)

    for section, (noun, read) in _SECTIONS.items():
        entries = getattr(cfg, section)
        for name, value in _expect_mapping(data.get(section), f"{section} ").items():
            try:
                # YAML reads 1, true, ~ and 1.5 as no string, which no command names
                if not isinstance(name, str):
                    raise ConfigError("a name must be a string (quote it)")
                entries[name] = read(value, n)
            except (WeilcError, ValueError) as exc:
                raise ConfigError(f"{noun} {cut_repr(name)}: {exc}") from exc

    suites = _expect_mapping(data.get("suites"), "suites ")
    _check_keys(suites, "suites settings: ", ("seed", "trials", "tol"))
    seed, trials, tol = (
        suites.get(key, getattr(cfg.suites, key)) for key in ("seed", "trials", "tol")
    )
    # YAML reads 1e-9 (no dot) as a string and yes as a bool; neither is a number
    for key, value, kinds in (("seed", seed, int), ("trials", trials, int),
                              ("tol", tol, (int, float))):
        if isinstance(value, bool) or not isinstance(value, kinds):
            kind = "an integer" if kinds is int else "a number"
            raise ConfigError(f"suites settings: {key} must be {kind}, got {cut_repr(value)}")
    try:
        check_settings(seed, trials, tol)
    except WeilcError as exc:
        raise ConfigError(f"suites settings: {exc}") from exc
    cfg.suites = SuiteSettings(seed, trials, float(tol))
    return cfg
