"""Porter suffix-stripping stemmer (the original 1980 algorithm).

Self-contained implementation of the classic five-step suffix stripper. Words
are lowercased ASCII; anything of length <= 2 is returned unchanged, matching
the reference implementation. The rule tables below are the original ones,
without the later "revised" amendments, so published reference cases hold:
``caresses -> caress``, ``ponies -> poni``, ``ending -> end``,
``generalizations -> gener``, ``oscillators -> oscil``.

Within a step the longest matching suffix wins; if its condition fails, no
other rule of that step applies. Steps 2-4 keep their tables sorted longest
first and indexed by the suffix's last letter, so a step tests only the
suffixes that can match. The conditions read one consonant/vowel string per
word state (``c``/``v`` per letter): the measure ``m`` is its count of
``vc``, ``*v*`` is a ``v`` in it, and ``*d``/``*o`` look at its tail.
:func:`stem` keeps no cache; callers stem each distinct word once.
"""

from __future__ import annotations


# One byte per character: b"v" for a vowel, b"c" for anything else. A
# character outside ASCII encodes as one "?", so positions still line up.
_CV_TABLE = bytes(ord("v") if chr(i) in "aeiou" else ord("c") for i in range(256))
_C, _V = ord("c"), ord("v")


def _cv(word: str) -> bytes:
    """``c``/``v`` per letter; y is a vowel after a consonant ("syzygy")."""
    cv = word.encode("ascii", "replace").translate(_CV_TABLE)
    i = word.find("y", 1)
    if i < 0:
        return cv
    marks = bytearray(cv)
    while i >= 0:
        if marks[i - 1] == _C:
            marks[i] = _V
        i = word.find("y", i + 1)
    return bytes(marks)


def _measure(cv: bytes) -> int:
    """Number of vowel-consonant alternations: m in [C](VC)^m[V]."""
    return cv.count(b"vc")


def _ends_double_consonant(word: str, cv: bytes) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and cv[-1] == _C


def _ends_cvc(word: str, cv: bytes) -> bool:
    """Consonant-vowel-consonant ending where the last is not w, x or y."""
    return cv[-3:] == b"cvc" and word[-1] not in "wxy"


def _by_last_letter(rules: list[tuple[str, str]]) -> dict[str, tuple]:
    """Last letter -> (its suffixes as one tuple, its rules longest first)."""
    table: dict[str, list[tuple[str, str]]] = {}
    for rule in sorted(rules, key=lambda r: -len(r[0])):
        table.setdefault(rule[0][-1], []).append(rule)
    return {
        last: (tuple(suffix for suffix, _ in group), tuple(group))
        for last, group in table.items()
    }


# (suffix, replacement); the stem before the suffix must have m > 0
_STEP2 = _by_last_letter([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("alli", "al"), ("entli", "ent"), ("eli", "e"),
    ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _by_last_letter([
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
])

# suffixes removed when the stem before them has m > 1
_STEP4 = _by_last_letter([(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)])


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(_cv(word)[:-3]) > 0 else word
    if word.endswith("ed"):
        cut = 2
    elif word.endswith("ing"):
        cut = 3
    else:
        return word
    if b"v" not in _cv(word)[:-cut]:
        return word
    stripped = word[:-cut]
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    cv = _cv(stripped)
    if _ends_double_consonant(stripped, cv) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(cv) == 1 and _ends_cvc(stripped, cv):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and b"v" in _cv(word)[:-1]:
        return word[:-1] + "i"
    return word


def _replace_longest(word: str, table: dict, min_m: int) -> str:
    """Replace the longest suffix in ``table`` if the stem has m > ``min_m``."""
    suffixes, rules = table.get(word[-1:], ((), ()))
    if not word.endswith(suffixes):
        return word
    for suffix, repl in rules:
        if word.endswith(suffix):
            cut = len(word) - len(suffix)
            if _measure(_cv(word)[:cut]) > min_m:
                return word[:cut] + repl
            return word
    return word


def _step4(word: str) -> str:
    # -ion goes only after s or t; no other step 4 suffix ends in n
    if word.endswith("ion") and not word[:-3].endswith(("s", "t")):
        return word
    return _replace_longest(word, _STEP4, 1)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        cv = _cv(stem)
        m = _measure(cv)
        if m > 1:
            return stem
        if m == 1 and not _ends_cvc(stem, cv):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(_cv(word)) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
