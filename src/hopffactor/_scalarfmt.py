"""Text and JSON format for Gaussian-rational scalars.

The wire format for a scalar a/b + (c/d)i is the 4-integer list
[a, b, c, d] with b, d > 0 and both fractions reduced; the text format is
e.g. "0", "-3/2", "i", "-i", "2*i", "1/2-1/2*i".
"""

import re

_TERM = re.compile(
    r"""^(?P<sign>[+-]?)
        (?:
          (?P<imunit>i)                                  # bare i
          |
          (?P<num>\d+)(?:/(?P<den>\d+))?(?P<istar>\*i)?  # n, n/d, n*i, n/d*i
        )$""",
    re.VERBOSE,
)


def render_gaussian(rn, rd, imn, imd):
    """Canonical text form; assumes the components are already reduced."""
    parts = []
    if rn != 0:
        parts.append(_render_rat(rn, rd))
    if imn != 0:
        if imn == 1 and imd == 1:
            im = "i"
        elif imn == -1 and imd == 1:
            im = "-i"
        else:
            im = _render_rat(imn, imd) + "*i"
        if parts and not im.startswith("-"):
            parts.append("+" + im)
        else:
            parts.append(im)
    if not parts:
        return "0"
    return "".join(parts)


def _render_rat(n, d):
    return str(n) if d == 1 else f"{n}/{d}"


def parse_gaussian(text):
    """Inverse of render_gaussian; returns (rn, rd, imn, imd), unreduced."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    # split into terms at top-level +/- (no parentheses in this grammar)
    terms = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    rn, rd, imn, imd = 0, 1, 0, 1
    seen_re = seen_im = False
    for term in terms:
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"bad scalar literal: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("imunit"):
            num, den, is_im = 1, 1, True
        else:
            num = int(m.group("num"))
            den = int(m.group("den") or 1)
            is_im = m.group("istar") is not None
        if is_im:
            if seen_im:
                raise ValueError(f"bad scalar literal: {text!r}")
            imn, imd, seen_im = sign * num, den, True
        else:
            if seen_re:
                raise ValueError(f"bad scalar literal: {text!r}")
            rn, rd, seen_re = sign * num, den, True
    return rn, rd, imn, imd
