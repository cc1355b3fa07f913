#!/usr/bin/env python3
"""Source model of the gdisim lint pass (``gdisim_lint.py``).

Each C++ file is lexed once into a ``SourceFile``:

  * comment- and literal-stripped code lines (positions preserved, so a
    banned token inside a string never fires) next to the raw lines;
  * the brace depth and namespace-scope flag at the start of every line;
  * every struct/class definition as a ``TypeDef``: its bases, body span,
    enclosing type and data members.

A ``Model`` holds the files of one run plus what crosses file boundaries:
which type names declare an ``archive*`` path, the archive bodies attributed
to each, and the closure of a seed set over inheritance (and, for
snapshotability, over lexical nesting). Types are keyed by their simple
name; the lexer resolves no namespaces.

The NOLINT protocol lives here too: ``// NOLINT(gdisim-<rule>) <reason>`` on
the finding line or ``// NOLINTNEXTLINE(...)`` on the line above; a bare
marker or ``gdisim-*`` covers every rule.
"""

from __future__ import annotations

import re

NOLINT = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


def suppresses(nolint_rules: str | None, rule: str) -> bool:
    """True when a NOLINT rule list covers `rule` (empty list = all)."""
    if nolint_rules is None:
        return True
    names = [r.strip() for r in nolint_rules.split(",")]
    return rule in names or "gdisim-*" in names


def line_suppressed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """Whether `rule` at `lineno` (1-based) is suppressed by a same-line
    NOLINT or a NOLINTNEXTLINE on the line above."""
    m = NOLINT.search(raw_lines[lineno - 1])
    if m and not m.group(1) and suppresses(m.group(2), rule):
        return True
    if lineno >= 2:
        m = NOLINT.search(raw_lines[lineno - 2])
        if m and m.group(1) and suppresses(m.group(2), rule):
            return True
    return False


# --------------------------------------------------------------------------
# Lexical helpers
# --------------------------------------------------------------------------


def strip_comments(text: str) -> tuple[list[str], list[str]]:
    """Return (code_lines, raw_lines) with comments and string/char literals
    blanked out of code_lines. Line count and column positions preserved."""
    raw_lines = text.splitlines()
    out = []
    in_block = False
    for line in raw_lines:
        buf = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif c == "/" and i + 1 < n and line[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            elif c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(c)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out, raw_lines


def strip_angles(s: str) -> str:
    """Remove balanced <...> template-argument regions (handles nesting)."""
    out = []
    depth = 0
    for ch in s:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def balanced(text: str, start: int, open_ch: str = "(", close_ch: str = ")") -> int:
    """Given text[start] == open_ch, return index one past the matching
    close_ch, or -1 when unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def line_of(offsets: list[int], pos: int) -> int:
    """1-based line number for a character offset (offsets = line starts)."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


# Statement starts that never declare a variable or data member.
NON_DECL_START = re.compile(
    r"^(?:using|typedef|friend|template|extern|class|struct|enum|union|"
    r"namespace|return|if|else|for|while|switch|case|break|continue|"
    r"public|private|protected|goto|do|static_assert|explicit|virtual|"
    r"operator)\b")


def declaration(code_line: str) -> str | None:
    """Declaration portion (before any initializer, template arguments
    stripped) when `code_line` plausibly declares a variable; None for
    functions, keyword statements and non-declarations."""
    s = code_line.strip()
    if not s or s.startswith("#") or not s.endswith(";"):
        return None
    if NON_DECL_START.match(s):
        return None
    decl = re.split(r"[={]", strip_angles(s[:-1]), 1)[0]
    if "(" in decl or ")" in decl:
        return None
    return decl


def field_name(code_line: str) -> str | None:
    """Member name when `code_line` (at class-body depth) declares a
    non-static data member; None otherwise."""
    decl = declaration(code_line)
    if decl is None or re.match(r"\s*static\b", code_line):
        return None
    if ":" in decl.replace("::", "") or "," in decl or "operator" in decl:
        return None  # member-init lists, bitfields, labels, wrapped params
    decl = re.sub(r"\[[^\]]*\]", " ", decl)  # array extents
    all_toks = re.findall(r"[A-Za-z_]\w*", decl)
    toks = [t for t in all_toks if t not in ("const", "mutable", "volatile",
                                             "unsigned", "signed", "long",
                                             "short", "struct", "class")]
    if len(toks) < 2:
        toks = all_toks  # `unsigned servers_;`: the qualifier is the type
        if len(toks) < 2:
            return None
    if not re.search(r"[*&\s]" + toks[-1] + r"\s*$", decl):
        return None
    return toks[-1]


# --------------------------------------------------------------------------
# Files and types
# --------------------------------------------------------------------------


class TypeDef:
    """One struct/class definition. `open`/`close` are the code offsets of
    its body braces, `start`/`end` their lines; `depth` is the brace depth
    of the body; `fields` holds (name, line) per data member."""

    def __init__(self, src: "SourceFile", name: str, bases: list[str],
                 parent: "TypeDef | None", open_pos: int, line: int, depth: int):
        self.src = src
        self.name = name
        self.bases = bases
        self.parent = parent
        self.open = open_pos
        self.close = len(src.code)
        self.start = line
        self.end = len(src.code_lines)
        self.depth = depth
        self.fields: list[tuple[str, int]] = []


_TYPE_HEADER = re.compile(r"\b(?:struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?"
                          r"([A-Za-z_]\w*)")
_BASE_KEYWORDS = ("public", "private", "protected", "virtual", "final", "std")


def _base_names(tail: str) -> list[str]:
    """Simple names of the bases in the text after a type's name."""
    m = re.match(r"\s*(?:final\s*)?:\s*(.*)$", tail, re.S)
    if not m:
        return []
    bases = []
    for part in strip_angles(m.group(1)).split(","):
        ids = [t for t in re.findall(r"[A-Za-z_]\w*", part)
               if t not in _BASE_KEYWORDS]
        if ids:
            bases.append(ids[-1])
    return bases


class SourceFile:
    def __init__(self, path: str, rel: str):
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.code_lines, self.raw_lines = strip_comments(text)
        self.code = "\n".join(self.code_lines)
        self.raw = "\n".join(self.raw_lines)
        self.offsets = [0]
        for line in self.code_lines[:-1]:
            self.offsets.append(self.offsets[-1] + len(line) + 1)
        self.line_depth: list[int] = []
        # Whether a line starts at namespace (or global) scope: every
        # enclosing brace opens a namespace or extern block and no
        # parenthesis is open (a parameter list is no declaration site).
        self.ns_scope: list[bool] = []
        self.types: list[TypeDef] = []
        self._scan_braces()
        for t in self.types:
            for lineno in range(t.start, t.end + 1):
                if self.line_depth[lineno - 1] == t.depth:
                    name = field_name(self.code_lines[lineno - 1])
                    if name is not None:
                        t.fields.append((name, lineno))

    def _scan_braces(self) -> None:
        stack: list[TypeDef | str | None] = []  # per open brace: its type, "ns", or None
        pending = ""  # text since the last brace or semicolon
        paren = 0
        pos = 0
        for lineno, line in enumerate(self.code_lines, start=1):
            self.line_depth.append(len(stack))
            self.ns_scope.append(paren == 0 and all(k == "ns" for k in stack))
            paren = max(0, paren + line.count("(") - line.count(")"))
            for col, ch in enumerate(line):
                if ch == "{":
                    stack.append(self._open(pending, stack, pos + col, lineno))
                    pending = ""
                elif ch == "}":
                    if stack:
                        t = stack.pop()
                        if isinstance(t, TypeDef):
                            t.close, t.end = pos + col, lineno
                    pending = ""
                elif ch == ";":
                    pending = ""
                else:
                    pending += ch
            pending += " "
            pos += len(line) + 1

    def _open(self, pending: str, stack: list, pos: int, lineno: int):
        # `template <class T>` introduces type keywords that are not type
        # definitions; drop template intros before matching.
        intro = re.sub(r"\btemplate\s*<[^<>]*>", " ", pending)
        if re.search(r"\b(?:namespace|extern)\b", intro):
            return "ns"
        if re.search(r"\benum\b", intro):
            return None
        header = None
        for m in _TYPE_HEADER.finditer(intro):
            header = m  # last struct/class before the brace
        if header is None:
            return None
        parent = next((t for t in reversed(stack) if isinstance(t, TypeDef)), None)
        t = TypeDef(self, header.group(1), _base_names(intro[header.end():]),
                    parent, pos, lineno, len(stack) + 1)
        self.types.append(t)
        return t

    def type_at(self, pos: int) -> TypeDef | None:
        """Innermost type whose body contains code offset `pos`."""
        best = None
        for t in self.types:
            if t.open < pos < t.close and (best is None or t.open > best.open):
                best = t
        return best

    def finding(self, line: int, rule: str, message: str,
                suppressible: bool = True) -> dict:
        return {
            "file": self.rel,
            "line": line,
            "rule": rule,
            "message": message,
            "snippet": self.raw_lines[line - 1].strip()[:160],
            "suppressed": suppressible and line_suppressed(self.raw_lines, line, rule),
        }


# --------------------------------------------------------------------------
# Archive paths and the cross-file model
# --------------------------------------------------------------------------

# A declaration, definition or call of an archive* function, optionally
# qualified by its owner type (out-of-line `Type::archive_state`).
_ARCHIVE_FN = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?\b(archive\w*)\s*\(")
_FN_TAIL = re.compile(r"(?:\s*\b(?:const|noexcept|override|final)\b)*\s*")

# Types never treated as archive-body owners when taken by reference.
_INFRA_TYPES = {"StateArchive", "HandlerRegistry", "JobCtxEncoder",
                "JobCtxDecoder", "Fn", "T", "Queue"}


def _param_owner_types(params: str) -> list[str]:
    """Type names taken by reference/pointer in a free archive_* function's
    parameter list, excluding the codec infrastructure types."""
    depth = 0
    part = ""
    parts = []
    for ch in params:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    parts.append(part)
    owners = []
    for p in parts:
        if "&" not in p and "*" not in p:
            continue
        ids = re.findall(r"[A-Za-z_]\w*",
                         strip_angles(p.split("&")[0].split("*")[0]))
        ids = [t for t in ids if t not in ("const", "std", "gdisim")]
        if ids and ids[-1] not in _INFRA_TYPES:
            owners.append(ids[-1])
    return owners


class Model:
    """The files of one run and the facts that cross file boundaries.

    A type name declares an archive path when a type of that name declares
    an ``archive*`` method (inline or out-of-line) or an ``archive_*`` free
    function takes it by reference or pointer; each definition found is
    one of the name's archive bodies ({src, line, code, raw, method})."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self.types = [t for src in files for t in src.types]
        self.by_name: dict[str, list[TypeDef]] = {}
        for t in self.types:
            self.by_name.setdefault(t.name, []).append(t)
        self.archive_decls: set[str] = set()
        self.archive_bodies: dict[str, list[dict]] = {}
        for src in files:
            self._collect_archive(src)

    def _declare(self, owner: str, body: dict | None) -> None:
        self.archive_decls.add(owner)
        if body is not None:
            self.archive_bodies.setdefault(owner, []).append(body)

    def _collect_archive(self, src: SourceFile) -> None:
        code = src.code
        for m in _ARCHIVE_FN.finditer(code):
            owner, method = m.group(1), m.group(2)
            # Skip member-access calls (x.archive_state, x->archive_state)
            # and call arguments; an unqualified declaration is preceded by
            # its return type.
            j = m.start() - 1
            while j >= 0 and code[j] in " \t\n":
                j -= 1
            if j >= 0 and (code[j] in ".(" or code[j - 1:j + 1] == "->"):
                continue
            if owner is None:
                if j < 0 or not (code[j].isalnum() or code[j] == "_"):
                    continue  # expression-statement call, not a declaration
                k = j
                while k >= 0 and (code[k].isalnum() or code[k] == "_"):
                    k -= 1
                if code[k + 1:j + 1] in ("return", "co_return", "new"):
                    continue
            paren = m.end() - 1
            close = balanced(code, paren)
            if close < 0:
                continue
            k = _FN_TAIL.match(code, close).end()
            body = None
            if code.startswith("{", k):
                bend = balanced(code, k, "{", "}")
                if bend < 0:
                    continue
                body = {"src": src, "line": line_of(src.offsets, m.start()),
                        "code": code[k:bend], "raw": src.raw[k:bend],
                        "method": method}
            if owner is not None:
                self._declare(owner, body)  # out-of-line Type::archive_x
                continue
            if body is None and not code.startswith(";", k):
                continue
            region = src.type_at(m.start())
            if region is not None:
                self._declare(region.name, body)
            else:
                for name in _param_owner_types(code[paren + 1:close - 1]):
                    self._declare(name, body)

    def closure(self, seeds: set[str], nested: bool = False) -> set[str]:
        """`seeds` plus every type name that derives from a member of the
        set or, with `nested`, is lexically nested in one."""
        edges: dict[str, set[str]] = {}
        for t in self.types:
            e = edges.setdefault(t.name, set())
            e.update(t.bases)
            if nested and t.parent is not None:
                e.add(t.parent.name)
        out = set(seeds)
        changed = True
        while changed:
            changed = False
            for name, targets in edges.items():
                if name not in out and not targets.isdisjoint(out):
                    out.add(name)
                    changed = True
        return out
