"""Parse the LISP-like wirelist syntax back into the model.

The format "is easy to parse and extend because of its LISP like syntax"
(section 3); this module is the proof.  The reader is a standard
S-expression tokenizer; strings are double-quoted and may contain
semicolons (inline CIF).
"""

from __future__ import annotations

from .model import (
    DefPart,
    DeviceInstance,
    NetDecl,
    SubpartInstance,
    Wirelist,
)


class WirelistParseError(Exception):
    """Raised when wirelist text does not follow the format."""


# ----------------------------------------------------------------------
# S-expressions
# ----------------------------------------------------------------------


def read_sexpr(text: str):
    """Parse one S-expression; atoms are strings, lists are Python lists."""
    tokens = _tokenize(text)
    expr, rest = _read(tokens, 0)
    if rest != len(tokens):
        raise WirelistParseError("trailing tokens after top-level expression")
    return expr


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j == -1:
                raise WirelistParseError("unterminated string")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise WirelistParseError("unexpected end of input")
    token = tokens[pos]
    if token == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise WirelistParseError("unbalanced '('")
        return items, pos + 1
    if token == ")":
        raise WirelistParseError("unbalanced ')'")
    return token, pos + 1


# ----------------------------------------------------------------------
# wirelist structure
# ----------------------------------------------------------------------


def parse_wirelist(text: str) -> Wirelist:
    """Parse wirelist text produced by :mod:`repro.wirelist.writer`."""
    expr = read_sexpr(text)
    if not isinstance(expr, list) or not expr or expr[0] != "DefPart":
        raise WirelistParseError("wirelist must start with (DefPart ...)")
    name = _unquote(expr[1])
    primitives: dict = {}
    wirelist = Wirelist(name=name, primitives=primitives)

    # The outer DefPart may contain nested DefParts (the primitive
    # prolog, then windows), Part instances, Nets and a Local list; any
    # Part/Net/Local content at the outer level forms an implicit
    # DefPart of the same name (the flat form of Figure 3-4).
    outer = DefPart(name=name)
    outer_used = False
    top: str | None = None
    for item in expr[2:]:
        if not isinstance(item, list) or not item:
            raise WirelistParseError(f"unexpected atom {item!r} in DefPart")
        head = item[0]
        if head == "DefPart":
            if _is_primitive_decl(item):
                primitives[_unquote(item[1])] = tuple(
                    a for sub in item[2:] for a in sub[1:]
                    if isinstance(a, str)
                )
            else:
                wirelist.defparts.append(_parse_defpart(item, primitives))
        elif head == "Part":
            parsed = _parse_part(item, outer, primitives)
            if parsed is not None:
                top = parsed
            outer_used = True
        elif head in ("Net", "Local", "Exports", "Export"):
            _parse_body_item(item, outer)
            outer_used = True
        else:
            raise WirelistParseError(f"unknown form ({head} ...)")
    if outer_used and (outer.devices or outer.nets or outer.subparts):
        wirelist.defparts.append(outer)
        top = top or name
    wirelist.top = top or (wirelist.defparts[-1].name if wirelist.defparts else None)
    for part in wirelist.defparts:
        attach_net_equivalences(part)
    return wirelist


def _is_primitive_decl(item: list) -> bool:
    """A prolog part: a body of ``(Export ...)`` forms only.

    Windows always carry an ``(Exports ...)`` list and a ``(Local ...)``
    one, so a window is never taken for a primitive.
    """
    return len(item) > 2 and all(
        isinstance(sub, list) and sub and sub[0] == "Export"
        for sub in item[2:]
    )


def _parse_defpart(expr: list, primitives: dict) -> DefPart:
    part = DefPart(name=_unquote(expr[1]))
    for item in expr[2:]:
        if not isinstance(item, list) or not item:
            raise WirelistParseError(f"unexpected atom {item!r}")
        if item[0] == "Part":
            _parse_part(item, part, primitives)
        else:
            _parse_body_item(item, part)
    return part


def _parse_body_item(item: list, part: DefPart) -> None:
    head = item[0]
    if head in ("Exports", "Export"):
        part.exports.extend(a for a in item[1:] if isinstance(a, str))
    elif head == "Local":
        part.locals_.extend(a for a in item[1:] if isinstance(a, str))
    elif head == "Net":
        names = [a for a in item[1:] if isinstance(a, str)]
        location = None
        cif = None
        for sub in item[1:]:
            if isinstance(sub, list) and sub:
                if sub[0] == "Location":
                    location = (int(sub[1]), int(sub[2]))
                elif sub[0] == "CIF":
                    cif = _unquote(sub[1]).strip()
        part.nets.append(NetDecl(names=names, location=location, cif=cif))
    else:
        raise WirelistParseError(f"unknown form ({head} ...) in DefPart body")


def _parse_part(item: list, part: DefPart, primitives: dict) -> str | None:
    """Parse a Part instance into ``part``.

    An instance of a part the prolog declared in ``primitives`` is a
    device.  Returns the part name when this is the bare
    top-instantiation form ``(Part X (Name Top))``; otherwise None.
    """
    kind = item[1]
    attrs = {sub[0]: sub for sub in item[2:] if isinstance(sub, list) and sub}
    name_attr = attrs.get("Name") or attrs.get("InstName")
    inst_name = name_attr[1] if name_attr else f"anon{len(part.devices)}"

    if kind in primitives:
        terminals: dict[str, str | None] = {"Gate": None, "Source": None, "Drain": None}
        for sub in item[2:]:
            if isinstance(sub, list) and sub and sub[0] == "T":
                role, net = sub[1], sub[2]
                role = {"G": "Gate", "S": "Source", "D": "Drain"}.get(role, role)
                terminals[role] = None if net == "NONE" else net
        location = None
        if "Location" in attrs:
            location = (int(attrs["Location"][1]), int(attrs["Location"][2]))
        elif "Loc" in attrs:
            location = (int(attrs["Loc"][1]), int(attrs["Loc"][2]))
        length = width = None
        channel_cif = None
        if "Channel" in attrs:
            for sub in attrs["Channel"][1:]:
                if isinstance(sub, list) and sub:
                    if sub[0] == "Length":
                        length = float(sub[1])
                    elif sub[0] == "Width":
                        width = float(sub[1])
                    elif sub[0] == "CIF":
                        channel_cif = _unquote(sub[1]).strip()
        part.devices.append(
            DeviceInstance(
                kind=kind,
                inst_name=inst_name,
                gate=terminals["Gate"],
                source=terminals["Source"],
                drain=terminals["Drain"],
                location=location,
                length=length,
                width=width,
                channel_cif=channel_cif,
            )
        )
        return None

    if inst_name == "Top" and len(item) == 3:
        return kind

    loc_offset = None
    if "LocOffset" in attrs:
        loc_offset = (int(attrs["LocOffset"][1]), int(attrs["LocOffset"][2]))
    part.subparts.append(
        SubpartInstance(part=kind, inst_name=inst_name, loc_offset=loc_offset)
    )
    return None


def attach_net_equivalences(part: DefPart) -> None:
    """Move ``inst/child -> parent`` Net declarations into subpart maps.

    The writer emits subpart net maps as ``(Net P1/N0 N13)`` lines; after
    parsing they sit in ``part.nets`` and this pass relocates them.
    """
    remaining: list[NetDecl] = []
    by_inst = {sub.inst_name: sub for sub in part.subparts}
    for decl in part.nets:
        if (
            len(decl.names) == 2
            and "/" in decl.names[0]
            and decl.location is None
            and decl.cif is None
        ):
            inst, child = decl.names[0].split("/", 1)
            sub = by_inst.get(inst)
            if sub is not None:
                sub.net_map[child] = decl.names[1]
                continue
        remaining.append(decl)
    part.nets = remaining


def _unquote(atom) -> str:
    if not isinstance(atom, str):
        raise WirelistParseError(f"expected atom, got {atom!r}")
    if atom.startswith('"') and atom.endswith('"') and len(atom) >= 2:
        return atom[1:-1]
    return atom
