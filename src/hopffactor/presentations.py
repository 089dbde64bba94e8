"""H4 and H8 from generators and relations, via confluent rewriting.

Words over the generators are rewritten to linear combinations of
normal-form monomials.  Rule orientation moves group generators left past
z (z*g -> h*z, z*h -> g*z), reduces z^2 to its group-algebra value and
moves G left past X (X*G -> -G*X), which lands exactly on the ordered
monomial bases (1, G, X, GX) and (1, g, h, gh, z, gz, hz, ghz).

The coproduct, counit and antipode are assigned on generators and extended
multiplicatively (anti-multiplicatively for the antipode); nothing here is
trusted: the tabulated structure constants are pushed through the full
axiom battery before an algebra is handed out, and local confluence of the
rules is checked exhaustively on all words up to length four.
"""

from functools import lru_cache

from hopffactor.hopf import HopfAlgebraData, _acc, _dense, verify_axioms
from hopffactor.scalar import HALF, NEG_ONE, ONE, Scalar

_REWRITE_BUDGET = 10_000


class RewriteError(ValueError):
    """Rewriting exceeded its step budget (bad rule set) or failed confluence."""


class Presentation:
    """Generators, oriented rules and Hopf assignments on generators.

    rules: word -> ((coefficient, word), ...) linear combination.
    coproduct: generator -> ((coefficient, left word, right word), ...).
    antipode: generator -> ((coefficient, word), ...).
    """

    def __init__(self, name, generators, rules, basis_words, coproduct, counit, antipode):
        self.name = name
        self.generators = tuple(generators)
        self.rules = tuple(rules)
        self.basis_words = tuple(basis_words)
        self.coproduct = dict(coproduct)
        self.counit = dict(counit)
        self.antipode = dict(antipode)

    def label(self, word):
        return "".join(word) if word else "1"


def normalize(pres, combo):
    """Rewrite a word (or {word: Scalar} combination) to normal form.

    The result maps normal-form words to coefficients; normalizing again is
    a fixed point.
    """
    if isinstance(combo, tuple):
        combo = {combo: ONE}
    work = {w: c for w, c in combo.items() if not c.is_zero()}
    steps = 0
    while True:
        target = None
        for word in work:
            hit = _find_redex(pres, word)
            if hit is not None:
                target = (word, hit)
                break
        if target is None:
            return dict(work)
        steps += 1
        if steps > _REWRITE_BUDGET:
            raise RewriteError(
                f"rewriting exceeded {_REWRITE_BUDGET} steps in {pres.name}; rules do not terminate"
            )
        word, (pos, lhs, rhs) = target
        coeff = work.pop(word)
        prefix, suffix = word[:pos], word[pos + len(lhs):]
        for c, repl in rhs:
            _acc(work, prefix + repl + suffix, coeff * c)


def _find_redex(pres, word):
    for pos in range(len(word)):
        for lhs, rhs in pres.rules:
            if word[pos:pos + len(lhs)] == lhs:
                return pos, lhs, rhs
    return None


def check_local_confluence(pres):
    """All one-step reducts of every word of up to four letters must share
    one normal form; raises RewriteError with a witness otherwise."""
    words = [()]
    for _ in range(4):
        words = [w + (g,) for w in words for g in pres.generators]
        for word in words:
            reducts = []
            for pos in range(len(word)):
                for lhs, rhs in pres.rules:
                    if word[pos:pos + len(lhs)] != lhs:
                        continue
                    combo = {}
                    for c, repl in rhs:
                        _acc(combo, word[:pos] + repl + word[pos + len(lhs):], c)
                    reducts.append(normalize(pres, combo))
            if not reducts:
                continue
            first = normalize(pres, word)
            for other in reducts:
                if other != first:
                    raise RewriteError(
                        f"rules for {pres.name} are not confluent on {''.join(word)}"
                    )


def _as_row(pres, combo, index):
    """A normal form as {basis index: coefficient}."""
    for word in combo:
        if word not in index:
            raise RewriteError(
                f"normal form {''.join(word) or '1'} outside the declared basis of {pres.name}"
            )
    return {index[word]: c for word, c in combo.items()}


def tabulate(pres):
    """Structure constants from a presentation; verified before release."""
    check_local_confluence(pres)
    index = {w: i for i, w in enumerate(pres.basis_words)}
    dim = len(pres.basis_words)

    for word in pres.basis_words:
        nf = normalize(pres, word)
        if nf != {word: ONE}:
            raise RewriteError(f"declared basis word {''.join(word)} is not in normal form")

    mul = [
        [_as_row(pres, normalize(pres, wi + wj), index) for wj in pres.basis_words]
        for wi in pres.basis_words
    ]
    unit = _dense(_as_row(pres, normalize(pres, ()), index), dim)

    comul = []
    for wi in pres.basis_words:
        # delta is multiplicative: expand generator by generator
        pairs = {((), ()): ONE}
        for g in wi:
            new_pairs = {}
            for (lw, rw), c in pairs.items():
                for cg, gl, gr in pres.coproduct[g]:
                    _acc(new_pairs, (lw + gl, rw + gr), c * cg)
            pairs = new_pairs
        acc = {}
        for (lw, rw), c in pairs.items():
            for lword, lc in normalize(pres, lw).items():
                for rword, rc in normalize(pres, rw).items():
                    _acc(acc, (index[lword], index[rword]), c * lc * rc)
        comul.append(tuple((c, j, k) for (j, k), c in sorted(acc.items())))

    counit = []
    for wi in pres.basis_words:
        e = ONE
        for g in wi:
            e = e * pres.counit[g]
        counit.append(e)

    antipode = []
    for wi in pres.basis_words:
        combo = {(): ONE}
        for g in reversed(wi):
            new_combo = {}
            for word, c in combo.items():
                for cg, im in pres.antipode[g]:
                    _acc(new_combo, word + im, c * cg)
            combo = new_combo
        antipode.append(_as_row(pres, normalize(pres, combo), index))

    H = HopfAlgebraData(pres.name, [pres.label(w) for w in pres.basis_words],
                        mul, unit, comul, counit, antipode)
    report = verify_axioms(H)
    if not report.all_passed:
        failing = ", ".join(c.name for c in report.failing())
        raise RewriteError(f"presentation {pres.name} violates Hopf axioms: {failing}")
    return H


def h4_presentation():
    G, X = "G", "X"
    return Presentation(
        name="H4",
        generators=(G, X),
        rules=(
            ((G, G), ((ONE, ()),)),
            ((X, X), ()),
            ((X, G), ((NEG_ONE, (G, X)),)),
        ),
        basis_words=((), (G,), (X,), (G, X)),
        coproduct={
            G: ((ONE, (G,), (G,)),),
            X: ((ONE, (X,), (G,)), (ONE, (), (X,))),
        },
        counit={G: ONE, X: Scalar(0)},
        antipode={
            G: ((ONE, (G,)),),
            X: ((ONE, (G, X)),),
        },
    )


def h8_presentation():
    g, h, z = "g", "h", "z"
    return Presentation(
        name="H8",
        generators=(g, h, z),
        rules=(
            ((g, g), ((ONE, ()),)),
            ((h, h), ((ONE, ()),)),
            ((h, g), ((ONE, (g, h)),)),
            ((z, g), ((ONE, (h, z)),)),
            ((z, h), ((ONE, (g, z)),)),
            ((z, z), ((HALF, ()), (HALF, (g,)), (HALF, (h,)), (-HALF, (g, h)))),
        ),
        basis_words=((), (g,), (h,), (g, h), (z,), (g, z), (h, z), (g, h, z)),
        coproduct={
            g: ((ONE, (g,), (g,)),),
            h: ((ONE, (h,), (h,)),),
            # delta(z) = J (z (x) z) with J = (1/2)(1(x)1 + g(x)1 + 1(x)h - g(x)h)
            z: (
                (HALF, (z,), (z,)),
                (HALF, (g, z), (z,)),
                (HALF, (z,), (h, z)),
                (-HALF, (g, z), (h, z)),
            ),
        },
        counit={g: ONE, h: ONE, z: ONE},
        antipode={
            g: ((ONE, (g,)),),
            h: ((ONE, (h,)),),
            z: ((ONE, (z,)),),
        },
    )


@lru_cache(maxsize=None)
def build_H4():
    """Sweedler's four-dimensional Hopf algebra on the basis (1, G, X, GX)."""
    return tabulate(h4_presentation())


@lru_cache(maxsize=None)
def build_H8():
    """The eight-dimensional Kac-Paljutkin Hopf algebra on (1, g, h, gh, z, gz, hz, ghz)."""
    return tabulate(h8_presentation())
