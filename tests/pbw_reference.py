"""PBW rewriting by plain recursion, with no memo and one Exact operation
per term: the reference the tests hold lie's kept rewriting against."""

from ptsphere.exact import ONE, ZERO
from ptsphere.lie import EnvElement


def rewrite_word(word, basis):
    """X_a X_b = X_b X_a + [X_a, X_b] at the first descent, recursively."""
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a > b:
            out = {}
            for w, c in rewrite_word(word[:t] + (b, a) + word[t + 2:], basis).items():
                out[w] = out.get(w, ZERO) + c
            for k, coeff in basis.bracket_coeffs(a, b).items():
                for w, c in rewrite_word(word[:t] + (k,) + word[t + 2:], basis).items():
                    out[w] = out.get(w, ZERO) + coeff * c
            return out
    return {word: ONE}


def pbw_normal_form(e, basis):
    out = {}
    for word, c in e.terms.items():
        for w, f in rewrite_word(word, basis).items():
            out[w] = out.get(w, ZERO) + c * f
    return EnvElement(out)
