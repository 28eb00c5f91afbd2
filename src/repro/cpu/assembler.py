"""A two-pass RV32 assembler.

Supports labels, decimal/hex immediates, ``.word`` data, ``%hi``/``%lo``
splitting via the ``li`` pseudo-instruction, comments (``#`` and ``//``),
and the usual pseudo-instructions (``li``, ``mv``, ``j``, ``call``,
``ret``, ``nop``, ``beqz``, ``bnez``, ``ble``, ``bgt``, ``not``, ``neg``,
``seqz``, ``snez``).

Branch/jump targets may be labels or absolute byte addresses.  Programs are
position 0-based: the CPU's reset PC is 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import isa
from .isa import EncodingError, REG_NAMES


class AsmError(Exception):
    """Raised with file/line context on assembly failures."""


@dataclass(slots=True)
class AsmResult:
    words: list[int]
    labels: dict[str, int]
    source_lines: list[tuple[int, str]] = field(default_factory=list)


_LINE_COMMENT = re.compile(r"(#|//).*$")


def _parse_reg(token: str) -> int:
    reg = REG_NAMES.get(token.strip().lower())
    if reg is None:
        raise AsmError(f"unknown register {token!r}")
    return reg


def _parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AsmError(f"bad integer {token!r}") from exc


_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")


class Assembler:
    """Two-pass assembler: pass 1 sizes and collects labels, pass 2 encodes."""

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}

    # -- public API ------------------------------------------------------

    def assemble(self, source: str) -> AsmResult:
        lines = self._clean(source)
        self.labels = {}
        self._measure(lines)
        words, src_map = self._encode(lines)
        return AsmResult(words, dict(self.labels), src_map)

    # -- pass 1 ------------------------------------------------------------

    def _clean(self, source: str) -> list[tuple[int, str]]:
        out = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = _LINE_COMMENT.sub("", raw).strip()
            if text:
                out.append((lineno, text))
        return out

    def _measure(self, lines: list[tuple[int, str]]) -> None:
        pc = 0
        for lineno, text in lines:
            while True:
                label, sep, rest = text.partition(":")
                if sep and re.fullmatch(r"[A-Za-z_.$][\w.$]*", label.strip()):
                    name = label.strip()
                    if name in self.labels:
                        raise AsmError(f"line {lineno}: duplicate label {name!r}")
                    self.labels[name] = pc
                    text = rest.strip()
                    if not text:
                        break
                    continue
                break
            if not text:
                continue
            pc += 4 * self._width(lineno, text)

    def _width(self, lineno: int, text: str) -> int:
        mnemonic = text.split(None, 1)[0].lower()
        if mnemonic == ".word":
            return len(text.split(None, 1)[1].split(","))
        if mnemonic == ".space":
            n = _parse_int(text.split(None, 1)[1])
            if n % 4:
                raise AsmError(f"line {lineno}: .space must be word aligned")
            return n // 4
        if mnemonic == "li":
            # Width must be identical in both passes: integer literals are
            # sized by value; label operands always use the wide (lui+addi)
            # form so forward references cannot shift later labels.
            args = text.split(None, 1)[1]
            parts = [p.strip() for p in args.split(",")]
            if len(parts) != 2:
                raise AsmError(f"line {lineno}: li needs 2 operands")
            try:
                value = int(parts[1], 0)
            except ValueError:
                return 2
            return 1 if -2048 <= value <= 2047 else 2
        if mnemonic == "call":
            return 1
        return 1

    # -- pass 2 -----------------------------------------------------------------

    def _encode(self, lines: list[tuple[int, str]]):
        words: list[int] = []
        src_map: list[tuple[int, str]] = []
        pc = 0
        for lineno, text in lines:
            while True:
                label, sep, rest = text.partition(":")
                if sep and re.fullmatch(r"[A-Za-z_.$][\w.$]*", label.strip()):
                    text = rest.strip()
                    if not text:
                        break
                    continue
                break
            if not text:
                continue
            try:
                encoded = self._encode_one(text, pc)
            except (AsmError, EncodingError, KeyError, IndexError) as exc:
                raise AsmError(f"line {lineno}: {text!r}: {exc}") from exc
            for w in encoded:
                words.append(w & 0xFFFFFFFF)
                src_map.append((lineno, text))
                pc += 4
        return words, src_map

    def _target(self, token: str, pc: int) -> int:
        """Branch/jump offset from a label or absolute address."""
        token = token.strip()
        if token in self.labels:
            return self.labels[token] - pc
        return _parse_int(token) - pc

    def _resolve(self, token: str) -> int:
        token = token.strip()
        if token in self.labels:
            return self.labels[token]
        return _parse_int(token)

    def _encode_one(self, text: str, pc: int) -> list[int]:
        mnemonic, _, rest = text.partition(" ")
        mnemonic = mnemonic.lower()
        args = [a.strip() for a in rest.split(",")] if rest.strip() else []

        if mnemonic == ".word":
            return [self._resolve(a) & 0xFFFFFFFF for a in args]
        if mnemonic == ".space":
            return [0] * (_parse_int(args[0]) // 4)

        # Pseudo-instructions.
        if mnemonic == "nop":
            return [isa.encode_i("addi", 0, 0, 0)]
        if mnemonic == "li":
            rd = _parse_reg(args[0])
            is_label = args[1].strip() in self.labels
            value = self._resolve(args[1]) & 0xFFFFFFFF
            value_s = value - (1 << 32) if value & 0x80000000 else value
            if not is_label and -2048 <= value_s <= 2047:
                return [isa.encode_i("addi", rd, 0, value_s)]
            upper = ((value + 0x800) >> 12) & 0xFFFFF
            lower = ((value & 0xFFF) + 0x800) % 0x1000 - 0x800
            return [
                isa.encode_u("lui", rd, upper),
                isa.encode_i("addi", rd, rd, lower),
            ]
        if mnemonic == "mv":
            return [isa.encode_i("addi", _parse_reg(args[0]), _parse_reg(args[1]), 0)]
        if mnemonic == "not":
            return [isa.encode_i("xori", _parse_reg(args[0]), _parse_reg(args[1]), -1)]
        if mnemonic == "neg":
            return [isa.encode_r("sub", _parse_reg(args[0]), 0, _parse_reg(args[1]))]
        if mnemonic == "seqz":
            return [isa.encode_i("sltiu", _parse_reg(args[0]), _parse_reg(args[1]), 1)]
        if mnemonic == "snez":
            return [isa.encode_r("sltu", _parse_reg(args[0]), 0, _parse_reg(args[1]))]
        if mnemonic == "j":
            return [isa.encode_j(0, self._target(args[0], pc))]
        if mnemonic == "jal" and len(args) == 1:
            return [isa.encode_j(1, self._target(args[0], pc))]
        if mnemonic == "call":
            return [isa.encode_j(1, self._target(args[0], pc))]
        if mnemonic == "jr":
            return [isa.encode_i("jalr", 0, _parse_reg(args[0]), 0)]
        if mnemonic == "ret":
            return [isa.encode_i("jalr", 0, 1, 0)]
        if mnemonic == "beqz":
            return [isa.encode_b("beq", _parse_reg(args[0]), 0, self._target(args[1], pc))]
        if mnemonic == "bnez":
            return [isa.encode_b("bne", _parse_reg(args[0]), 0, self._target(args[1], pc))]
        if mnemonic == "ble":
            return [
                isa.encode_b(
                    "bge", _parse_reg(args[1]), _parse_reg(args[0]), self._target(args[2], pc)
                )
            ]
        if mnemonic == "bgt":
            return [
                isa.encode_b(
                    "blt", _parse_reg(args[1]), _parse_reg(args[0]), self._target(args[2], pc)
                )
            ]
        if mnemonic == "ecall":
            return [isa.encode_ecall()]

        # Real instructions.
        if mnemonic in isa.R_TYPE:
            rd, rs1, rs2 = (_parse_reg(a) for a in args)
            return [isa.encode_r(mnemonic, rd, rs1, rs2)]
        if mnemonic in isa.SHIFT_IMM:
            return [
                isa.encode_shift(
                    mnemonic, _parse_reg(args[0]), _parse_reg(args[1]), _parse_int(args[2])
                )
            ]
        if mnemonic in ("lw",):
            rd = _parse_reg(args[0])
            m = _MEM_OPERAND.match(args[1].replace(" ", ""))
            if m is None:
                raise AsmError(f"bad memory operand {args[1]!r}")
            return [isa.encode_i("lw", rd, _parse_reg(m.group(2)), self._resolve_or_int(m.group(1)))]
        if mnemonic in ("sw",):
            rs2 = _parse_reg(args[0])
            m = _MEM_OPERAND.match(args[1].replace(" ", ""))
            if m is None:
                raise AsmError(f"bad memory operand {args[1]!r}")
            return [isa.encode_s("sw", rs2, _parse_reg(m.group(2)), self._resolve_or_int(m.group(1)))]
        if mnemonic == "jalr":
            if len(args) == 1:
                return [isa.encode_i("jalr", 1, _parse_reg(args[0]), 0)]
            return [isa.encode_i("jalr", _parse_reg(args[0]), _parse_reg(args[1]), _parse_int(args[2]))]
        if mnemonic in isa.I_TYPE:
            return [
                isa.encode_i(
                    mnemonic, _parse_reg(args[0]), _parse_reg(args[1]), self._resolve_or_int(args[2])
                )
            ]
        if mnemonic in isa.B_TYPE:
            return [
                isa.encode_b(
                    mnemonic, _parse_reg(args[0]), _parse_reg(args[1]), self._target(args[2], pc)
                )
            ]
        if mnemonic in ("lui", "auipc"):
            return [isa.encode_u(mnemonic, _parse_reg(args[0]), _parse_int(args[1]))]
        if mnemonic == "jal":
            return [isa.encode_j(_parse_reg(args[0]), self._target(args[1], pc))]
        raise AsmError(f"unknown mnemonic {mnemonic!r}")

    def _resolve_or_int(self, token: str) -> int:
        token = token.strip()
        if token in self.labels:
            return self.labels[token]
        return _parse_int(token)


def assemble(source: str) -> AsmResult:
    """Assemble RV32 source text into 32-bit words."""
    return Assembler().assemble(source)
