//! Bytes → module.

use std::fmt;

use crate::instr::{BlockType, Instr, LoadOp, MemArg, StoreOp};
use crate::leb::{self, LebError};
use crate::module::{Data, Elem, Export, ExportKind, Function, Global, Import, ImportKind, Module};
use crate::numeric;
use crate::types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

use super::{cage_op, misc_op, CAGE_PREFIX, MAGIC, MISC_PREFIX};

/// A binary-decoding error with a byte offset for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset at which decoding failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl DecodeError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        DecodeError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error at offset {:#x}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

/// Maximum `block`/`loop`/`if` nesting the decoder accepts. Decoding
/// itself is iterative, but the `Instr` tree it builds is consumed (and
/// eventually dropped) by recursive walkers, so the nesting of what we
/// hand out must stay bounded; this is above the default
/// [`crate::CompileLimits`] nesting bound and far above anything the
/// toolchain emits.
const MAX_DECODE_DEPTH: usize = 400;

/// Maximum declared locals the decoder expands. A local run is two bytes
/// of input but declares up to 2^32 locals, so the expansion must be
/// capped independently of input length.
const MAX_DECODE_LOCALS: usize = 1_000_000;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::new(self.pos, message)
    }

    /// A `Vec` capacity claim bounded by the input actually left: every
    /// decoded element consumes at least one byte, so a hostile count
    /// cannot reserve more memory than the input could ever fill.
    fn capacity_hint(&self, claimed: usize) -> usize {
        claimed.min(self.bytes.len() - self.pos)
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        leb::read_u32(self.bytes, &mut self.pos).map_err(|LebError| self.err("bad u32"))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        leb::read_u64(self.bytes, &mut self.pos).map_err(|LebError| self.err("bad u64"))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        leb::read_i32(self.bytes, &mut self.pos).map_err(|LebError| self.err("bad i32"))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        leb::read_i64(self.bytes, &mut self.pos).map_err(|LebError| self.err("bad i64"))
    }

    fn name(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("name is not UTF-8"))
    }

    fn valtype(&mut self) -> Result<ValType, DecodeError> {
        let b = self.byte()?;
        ValType::from_byte(b).ok_or_else(|| self.err(format!("bad value type {b:#x}")))
    }

    fn limits(&mut self) -> Result<(Limits, bool), DecodeError> {
        let flags = self.byte()?;
        if flags & !0x05 != 0 {
            return Err(self.err(format!("unsupported limits flags {flags:#x}")));
        }
        let memory64 = flags & 0x04 != 0;
        let min = self.u64()?;
        let max = if flags & 0x01 != 0 {
            Some(self.u64()?)
        } else {
            None
        };
        Ok((Limits { min, max }, memory64))
    }

    fn memory_type(&mut self) -> Result<MemoryType, DecodeError> {
        let (limits, memory64) = self.limits()?;
        Ok(MemoryType { limits, memory64 })
    }

    fn table_type(&mut self) -> Result<TableType, DecodeError> {
        let elem = self.byte()?;
        if elem != 0x70 {
            return Err(self.err("only funcref tables supported"));
        }
        let (limits, m64) = self.limits()?;
        if m64 {
            return Err(self.err("tables cannot be 64-bit"));
        }
        Ok(TableType { limits })
    }

    fn global_type(&mut self) -> Result<GlobalType, DecodeError> {
        let value = self.valtype()?;
        let mutable = match self.byte()? {
            0 => false,
            1 => true,
            b => return Err(self.err(format!("bad mutability {b:#x}"))),
        };
        Ok(GlobalType { value, mutable })
    }

    fn block_type(&mut self) -> Result<BlockType, DecodeError> {
        let b = self.byte()?;
        if b == 0x40 {
            return Ok(BlockType::Empty);
        }
        ValType::from_byte(b)
            .map(BlockType::Value)
            .ok_or_else(|| self.err(format!("bad block type {b:#x}")))
    }

    fn memarg(&mut self) -> Result<MemArg, DecodeError> {
        let align = self.u32()?;
        let offset = self.u64()?;
        Ok(MemArg { align, offset })
    }

    /// Parses a constant expression (one const instruction + `end`) and
    /// returns its integer value (for offsets) plus the raw instruction.
    fn const_expr(&mut self) -> Result<Instr, DecodeError> {
        let instr = match self.byte()? {
            0x41 => Instr::I32Const(self.i32()?),
            0x42 => Instr::I64Const(self.i64()?),
            0x43 => {
                let b = self.take(4)?;
                Instr::F32Const(u32::from_le_bytes(b.try_into().expect("4 bytes")))
            }
            0x44 => {
                let b = self.take(8)?;
                Instr::F64Const(u64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
            b => return Err(self.err(format!("unsupported const expr opcode {b:#x}"))),
        };
        if self.byte()? != 0x0B {
            return Err(self.err("const expr not terminated by end"));
        }
        Ok(instr)
    }

    fn const_offset(&mut self) -> Result<u64, DecodeError> {
        match self.const_expr()? {
            Instr::I32Const(v) => Ok(v as u32 as u64),
            Instr::I64Const(v) => Ok(v as u64),
            _ => Err(self.err("offset expr must be an integer constant")),
        }
    }

    /// Parses a full instruction sequence up to (and consuming) its
    /// terminating `end`, with an explicit stack for `block`/`loop`/`if`
    /// nesting — no host-stack recursion, however deep the input nests.
    fn instr_seq(&mut self) -> Result<Vec<Instr>, DecodeError> {
        enum Open {
            Block(BlockType),
            Loop(BlockType),
            /// `if` whose then-arm is still being decoded.
            Then(BlockType),
            /// `if` whose else-arm is being decoded (then-arm finished).
            Else(BlockType, Vec<Instr>),
        }
        let mut open: Vec<(Open, Vec<Instr>)> = Vec::new();
        let mut cur: Vec<Instr> = Vec::new();
        loop {
            let op = self.byte()?;
            match op {
                0x0B => {
                    // `end`: close the innermost construct, or finish.
                    let Some((kind, outer)) = open.pop() else {
                        return Ok(cur);
                    };
                    let inner = std::mem::replace(&mut cur, outer);
                    cur.push(match kind {
                        Open::Block(bt) => Instr::Block(bt, inner),
                        Open::Loop(bt) => Instr::Loop(bt, inner),
                        Open::Then(bt) => Instr::If(bt, inner, Vec::new()),
                        Open::Else(bt, then_arm) => Instr::If(bt, then_arm, inner),
                    });
                }
                0x05 => match open.pop() {
                    Some((Open::Then(bt), outer)) => {
                        let then_arm = std::mem::take(&mut cur);
                        open.push((Open::Else(bt, then_arm), outer));
                    }
                    _ => return Err(self.err("else outside if")),
                },
                0x02..=0x04 => {
                    if open.len() >= MAX_DECODE_DEPTH {
                        return Err(self.err(format!(
                            "instruction nesting exceeds the {MAX_DECODE_DEPTH}-level \
                             decode limit"
                        )));
                    }
                    let bt = self.block_type()?;
                    let kind = match op {
                        0x02 => Open::Block(bt),
                        0x03 => Open::Loop(bt),
                        _ => Open::Then(bt),
                    };
                    open.push((kind, std::mem::take(&mut cur)));
                }
                _ => cur.push(self.instr(op)?),
            }
        }
    }

    fn instr(&mut self, op: u8) -> Result<Instr, DecodeError> {
        use Instr::*;
        Ok(match op {
            0x00 => Unreachable,
            0x01 => Nop,
            0x0C => Br(self.u32()?),
            0x0D => BrIf(self.u32()?),
            0x0E => {
                let n = self.u32()? as usize;
                let mut targets = Vec::with_capacity(self.capacity_hint(n));
                for _ in 0..n {
                    targets.push(self.u32()?);
                }
                BrTable(targets, self.u32()?)
            }
            0x0F => Return,
            0x10 => Call(self.u32()?),
            0x11 => {
                let ty = self.u32()?;
                let table = self.byte()?;
                if table != 0 {
                    return Err(self.err("call_indirect table index must be 0"));
                }
                CallIndirect(ty)
            }
            0x1A => Drop,
            0x1B => Select,
            0x20 => LocalGet(self.u32()?),
            0x21 => LocalSet(self.u32()?),
            0x22 => LocalTee(self.u32()?),
            0x23 => GlobalGet(self.u32()?),
            0x24 => GlobalSet(self.u32()?),
            0x28..=0x35 => {
                let load = match op {
                    0x28 => LoadOp::I32Load,
                    0x29 => LoadOp::I64Load,
                    0x2A => LoadOp::F32Load,
                    0x2B => LoadOp::F64Load,
                    0x2C => LoadOp::I32Load8S,
                    0x2D => LoadOp::I32Load8U,
                    0x2E => LoadOp::I32Load16S,
                    0x2F => LoadOp::I32Load16U,
                    0x30 => LoadOp::I64Load8S,
                    0x31 => LoadOp::I64Load8U,
                    0x32 => LoadOp::I64Load16S,
                    0x33 => LoadOp::I64Load16U,
                    0x34 => LoadOp::I64Load32S,
                    _ => LoadOp::I64Load32U,
                };
                Load(load, self.memarg()?)
            }
            0x36..=0x3E => {
                let store = match op {
                    0x36 => StoreOp::I32Store,
                    0x37 => StoreOp::I64Store,
                    0x38 => StoreOp::F32Store,
                    0x39 => StoreOp::F64Store,
                    0x3A => StoreOp::I32Store8,
                    0x3B => StoreOp::I32Store16,
                    0x3C => StoreOp::I64Store8,
                    0x3D => StoreOp::I64Store16,
                    _ => StoreOp::I64Store32,
                };
                Store(store, self.memarg()?)
            }
            0x3F => {
                self.expect_zero_byte()?;
                MemorySize
            }
            0x40 => {
                self.expect_zero_byte()?;
                MemoryGrow
            }
            0x41 => I32Const(self.i32()?),
            0x42 => I64Const(self.i64()?),
            0x43 => {
                let b = self.take(4)?;
                F32Const(u32::from_le_bytes(b.try_into().expect("4 bytes")))
            }
            0x44 => {
                let b = self.take(8)?;
                F64Const(u64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
            MISC_PREFIX => {
                let sub = self.u32()?;
                match sub {
                    misc_op::MEMORY_COPY => {
                        self.expect_zero_byte()?;
                        self.expect_zero_byte()?;
                        MemoryCopy
                    }
                    misc_op::MEMORY_FILL => {
                        self.expect_zero_byte()?;
                        MemoryFill
                    }
                    _ => return Err(self.err(format!("unknown 0xFC sub-opcode {sub}"))),
                }
            }
            CAGE_PREFIX => {
                let sub = self.u32()?;
                match sub {
                    cage_op::SEGMENT_NEW => SegmentNew(self.u64()?),
                    cage_op::SEGMENT_SET_TAG => SegmentSetTag(self.u64()?),
                    cage_op::SEGMENT_FREE => SegmentFree(self.u64()?),
                    cage_op::POINTER_SIGN => PointerSign,
                    cage_op::POINTER_AUTH => PointerAuth,
                    _ => return Err(self.err(format!("unknown Cage sub-opcode {sub}"))),
                }
            }
            // What is left is one byte with no immediates: the numeric table's.
            _ => numeric::decode(op).ok_or_else(|| self.err(format!("unknown opcode {op:#x}")))?,
        })
    }

    fn expect_zero_byte(&mut self) -> Result<(), DecodeError> {
        if self.byte()? != 0 {
            return Err(self.err("expected zero index byte"));
        }
        Ok(())
    }
}

/// Decodes a binary module.
///
/// # Errors
///
/// Returns [`DecodeError`] with the failing byte offset for malformed input.
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(DecodeError::new(0, "bad magic/version header"));
    }

    let mut module = Module::new();
    let mut func_type_indices: Vec<u32> = Vec::new();

    while r.peek().is_some() {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let section_end = r.pos + size;
        if section_end > bytes.len() {
            return Err(r.err("section extends past end of input"));
        }
        match id {
            1 => {
                let n = r.u32()?;
                for _ in 0..n {
                    if r.byte()? != 0x60 {
                        return Err(r.err("function type must start with 0x60"));
                    }
                    let np = r.u32()? as usize;
                    let mut params = Vec::with_capacity(r.capacity_hint(np));
                    for _ in 0..np {
                        params.push(r.valtype()?);
                    }
                    let nr = r.u32()? as usize;
                    let mut results = Vec::with_capacity(r.capacity_hint(nr));
                    for _ in 0..nr {
                        results.push(r.valtype()?);
                    }
                    module.types.push(FuncType { params, results });
                }
            }
            2 => {
                let n = r.u32()?;
                for _ in 0..n {
                    let mod_name = r.name()?;
                    let field = r.name()?;
                    let kind = match r.byte()? {
                        0x00 => ImportKind::Func(r.u32()?),
                        0x01 => ImportKind::Table(r.table_type()?),
                        0x02 => ImportKind::Memory(r.memory_type()?),
                        0x03 => ImportKind::Global(r.global_type()?),
                        b => return Err(r.err(format!("bad import kind {b:#x}"))),
                    };
                    module.imports.push(Import {
                        module: mod_name,
                        name: field,
                        kind,
                    });
                }
            }
            3 => {
                let n = r.u32()?;
                for _ in 0..n {
                    func_type_indices.push(r.u32()?);
                }
            }
            4 => {
                let n = r.u32()?;
                for _ in 0..n {
                    module.tables.push(r.table_type()?);
                }
            }
            5 => {
                let n = r.u32()?;
                for _ in 0..n {
                    module.memories.push(r.memory_type()?);
                }
            }
            6 => {
                let n = r.u32()?;
                for _ in 0..n {
                    let ty = r.global_type()?;
                    let init = r.const_expr()?;
                    module.globals.push(Global { ty, init });
                }
            }
            7 => {
                let n = r.u32()?;
                for _ in 0..n {
                    let name = r.name()?;
                    let kind = match r.byte()? {
                        0x00 => ExportKind::Func(r.u32()?),
                        0x01 => ExportKind::Table(r.u32()?),
                        0x02 => ExportKind::Memory(r.u32()?),
                        0x03 => ExportKind::Global(r.u32()?),
                        b => return Err(r.err(format!("bad export kind {b:#x}"))),
                    };
                    module.exports.push(Export { name, kind });
                }
            }
            8 => {
                module.start = Some(r.u32()?);
            }
            9 => {
                let n = r.u32()?;
                for _ in 0..n {
                    let table = r.u32()?;
                    let offset = r.const_offset()?;
                    let count = r.u32()? as usize;
                    let mut funcs = Vec::with_capacity(r.capacity_hint(count));
                    for _ in 0..count {
                        funcs.push(r.u32()?);
                    }
                    module.elems.push(Elem {
                        table,
                        offset,
                        funcs,
                    });
                }
            }
            10 => {
                let n = r.u32()? as usize;
                if n != func_type_indices.len() {
                    return Err(r.err("code section count != function section count"));
                }
                for &type_idx in &func_type_indices {
                    let body_size = r.u32()? as usize;
                    let body_end = r.pos + body_size;
                    let runs = r.u32()? as usize;
                    let mut locals = Vec::new();
                    for _ in 0..runs {
                        let count = r.u32()?;
                        let ty = r.valtype()?;
                        if locals.len() + count as usize > MAX_DECODE_LOCALS {
                            return Err(r.err(format!(
                                "local declarations exceed the {MAX_DECODE_LOCALS} decode limit"
                            )));
                        }
                        for _ in 0..count {
                            locals.push(ty);
                        }
                    }
                    let body = r.instr_seq()?;
                    if r.pos != body_end {
                        return Err(r.err("function body size mismatch"));
                    }
                    module.funcs.push(Function {
                        type_idx,
                        locals,
                        body,
                    });
                }
            }
            11 => {
                let n = r.u32()?;
                for _ in 0..n {
                    let memory = r.u32()?;
                    let offset = r.const_offset()?;
                    let len = r.u32()? as usize;
                    let bytes = r.take(len)?.to_vec();
                    module.data.push(Data {
                        memory,
                        offset,
                        bytes,
                    });
                }
            }
            _ => {
                // Unknown/custom sections are skipped.
                r.take(size)?;
            }
        }
        if r.pos != section_end {
            return Err(r.err(format!("section {id} size mismatch")));
        }
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"\0wasm\x01\0\0\0").unwrap_err();
        assert!(err.message.contains("magic"));
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(decode(&MAGIC[..4]).is_err());
    }

    #[test]
    fn skips_custom_sections() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(0); // custom section id
        bytes.push(3); // size
        bytes.extend_from_slice(&[1, b'x', 7]);
        let m = decode(&bytes).unwrap();
        assert_eq!(m, Module::new());
    }

    #[test]
    fn rejects_section_overrun() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(1); // type section
        bytes.push(100); // claims 100 bytes, but input ends
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_hostile_block_nesting_without_overflowing() {
        // One function whose body opens 100k blocks and never closes
        // them: the decoder must reject at its depth limit instead of
        // recursing one host frame per level.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type () -> ()
        bytes.extend_from_slice(&[3, 2, 1, 0]); // one function of type 0
        let mut body = vec![0u8]; // zero local runs
        for _ in 0..100_000 {
            body.extend_from_slice(&[0x02, 0x40]); // block (empty)
        }
        let mut code = Vec::new();
        code.push(1u8); // one body
        crate::leb::write_u32(&mut code, body.len() as u32);
        code.extend_from_slice(&body);
        bytes.push(10);
        crate::leb::write_u32(&mut bytes, code.len() as u32);
        bytes.extend_from_slice(&code);
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn huge_count_claims_do_not_preallocate() {
        // A br_table claiming u32::MAX targets in a 20-byte input: the
        // capacity hint must be bounded by the bytes actually present.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]);
        bytes.extend_from_slice(&[3, 2, 1, 0]);
        let mut body = vec![0u8];
        body.push(0x41); // i32.const
        body.push(0);
        body.push(0x0E); // br_table
        crate::leb::write_u32(&mut body, u32::MAX); // hostile target count
        let mut code = Vec::new();
        code.push(1u8);
        crate::leb::write_u32(&mut code, body.len() as u32);
        code.extend_from_slice(&body);
        bytes.push(10);
        crate::leb::write_u32(&mut bytes, code.len() as u32);
        bytes.extend_from_slice(&code);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_local_count_bombs() {
        // Two bytes of input declaring 2^32 - 1 locals.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]);
        bytes.extend_from_slice(&[3, 2, 1, 0]);
        let mut body = vec![1u8]; // one local run
        crate::leb::write_u32(&mut body, u32::MAX); // count
        body.push(0x7E); // i64
        body.push(0x0B); // end
        let mut code = Vec::new();
        code.push(1u8);
        crate::leb::write_u32(&mut code, body.len() as u32);
        code.extend_from_slice(&body);
        bytes.push(10);
        crate::leb::write_u32(&mut bytes, code.len() as u32);
        bytes.extend_from_slice(&code);
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("local"), "{err}");
    }

    #[test]
    fn rejects_code_function_count_mismatch() {
        let mut bytes = MAGIC.to_vec();
        // function section with one entry (type 0)
        bytes.extend_from_slice(&[3, 2, 1, 0]);
        // code section with zero entries
        bytes.extend_from_slice(&[10, 1, 0]);
        assert!(decode(&bytes).is_err());
    }
}
