//! Module → bytes.

use crate::instr::{BlockType, Instr, LoadOp, MemArg, StoreOp};
use crate::leb;
use crate::module::{ExportKind, ImportKind, Module};
use crate::numeric;
use crate::types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

use super::{cage_op, misc_op, SectionId, CAGE_PREFIX, MAGIC, MISC_PREFIX};

/// Encodes `module` into the binary format.
#[must_use]
pub fn encode(module: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&MAGIC);

    if !module.types.is_empty() {
        section(&mut out, SectionId::Type, |buf| {
            leb::write_u32(buf, module.types.len() as u32);
            for ty in &module.types {
                func_type(buf, ty);
            }
        });
    }
    if !module.imports.is_empty() {
        section(&mut out, SectionId::Import, |buf| {
            leb::write_u32(buf, module.imports.len() as u32);
            for import in &module.imports {
                name(buf, &import.module);
                name(buf, &import.name);
                match &import.kind {
                    ImportKind::Func(t) => {
                        buf.push(0x00);
                        leb::write_u32(buf, *t);
                    }
                    ImportKind::Table(t) => {
                        buf.push(0x01);
                        table_type(buf, t);
                    }
                    ImportKind::Memory(m) => {
                        buf.push(0x02);
                        memory_type(buf, m);
                    }
                    ImportKind::Global(g) => {
                        buf.push(0x03);
                        global_type(buf, g);
                    }
                }
            }
        });
    }
    if !module.funcs.is_empty() {
        section(&mut out, SectionId::Function, |buf| {
            leb::write_u32(buf, module.funcs.len() as u32);
            for f in &module.funcs {
                leb::write_u32(buf, f.type_idx);
            }
        });
    }
    if !module.tables.is_empty() {
        section(&mut out, SectionId::Table, |buf| {
            leb::write_u32(buf, module.tables.len() as u32);
            for t in &module.tables {
                table_type(buf, t);
            }
        });
    }
    if !module.memories.is_empty() {
        section(&mut out, SectionId::Memory, |buf| {
            leb::write_u32(buf, module.memories.len() as u32);
            for m in &module.memories {
                memory_type(buf, m);
            }
        });
    }
    if !module.globals.is_empty() {
        section(&mut out, SectionId::Global, |buf| {
            leb::write_u32(buf, module.globals.len() as u32);
            for g in &module.globals {
                global_type(buf, &g.ty);
                instr(buf, &g.init);
                buf.push(0x0B);
            }
        });
    }
    if !module.exports.is_empty() {
        section(&mut out, SectionId::Export, |buf| {
            leb::write_u32(buf, module.exports.len() as u32);
            for e in &module.exports {
                name(buf, &e.name);
                match e.kind {
                    ExportKind::Func(i) => {
                        buf.push(0x00);
                        leb::write_u32(buf, i);
                    }
                    ExportKind::Table(i) => {
                        buf.push(0x01);
                        leb::write_u32(buf, i);
                    }
                    ExportKind::Memory(i) => {
                        buf.push(0x02);
                        leb::write_u32(buf, i);
                    }
                    ExportKind::Global(i) => {
                        buf.push(0x03);
                        leb::write_u32(buf, i);
                    }
                }
            }
        });
    }
    if let Some(start) = module.start {
        section(&mut out, SectionId::Start, |buf| {
            leb::write_u32(buf, start);
        });
    }
    if !module.elems.is_empty() {
        section(&mut out, SectionId::Elem, |buf| {
            leb::write_u32(buf, module.elems.len() as u32);
            for e in &module.elems {
                leb::write_u32(buf, e.table);
                // Offset expression: i32.const for MVP tables.
                buf.push(0x41);
                leb::write_i32(buf, e.offset as i32);
                buf.push(0x0B);
                leb::write_u32(buf, e.funcs.len() as u32);
                for f in &e.funcs {
                    leb::write_u32(buf, *f);
                }
            }
        });
    }
    if !module.funcs.is_empty() {
        section(&mut out, SectionId::Code, |buf| {
            leb::write_u32(buf, module.funcs.len() as u32);
            for f in &module.funcs {
                let mut body = Vec::new();
                // Locals as (count, type) runs.
                let runs = local_runs(&f.locals);
                leb::write_u32(&mut body, runs.len() as u32);
                for (count, ty) in runs {
                    leb::write_u32(&mut body, count);
                    body.push(ty.to_byte());
                }
                exprs(&mut body, &f.body);
                body.push(0x0B);
                leb::write_u32(buf, body.len() as u32);
                buf.extend_from_slice(&body);
            }
        });
    }
    if !module.data.is_empty() {
        section(&mut out, SectionId::Data, |buf| {
            leb::write_u32(buf, module.data.len() as u32);
            for d in &module.data {
                leb::write_u32(buf, d.memory);
                if module.is_memory64() {
                    buf.push(0x42);
                    leb::write_i64(buf, d.offset as i64);
                } else {
                    buf.push(0x41);
                    leb::write_i32(buf, d.offset as i32);
                }
                buf.push(0x0B);
                leb::write_u32(buf, d.bytes.len() as u32);
                buf.extend_from_slice(&d.bytes);
            }
        });
    }
    out
}

fn section(out: &mut Vec<u8>, id: SectionId, f: impl FnOnce(&mut Vec<u8>)) {
    let mut buf = Vec::new();
    f(&mut buf);
    out.push(id as u8);
    leb::write_u32(out, buf.len() as u32);
    out.extend_from_slice(&buf);
}

fn name(out: &mut Vec<u8>, s: &str) {
    leb::write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn func_type(out: &mut Vec<u8>, ty: &FuncType) {
    out.push(0x60);
    leb::write_u32(out, ty.params.len() as u32);
    for p in &ty.params {
        out.push(p.to_byte());
    }
    leb::write_u32(out, ty.results.len() as u32);
    for r in &ty.results {
        out.push(r.to_byte());
    }
}

fn limits(out: &mut Vec<u8>, l: &Limits, memory64: bool) {
    let mut flags = 0u8;
    if l.max.is_some() {
        flags |= 0x01;
    }
    if memory64 {
        flags |= 0x04;
    }
    out.push(flags);
    leb::write_u64(out, l.min);
    if let Some(max) = l.max {
        leb::write_u64(out, max);
    }
}

fn memory_type(out: &mut Vec<u8>, m: &MemoryType) {
    limits(out, &m.limits, m.memory64);
}

fn table_type(out: &mut Vec<u8>, t: &TableType) {
    out.push(0x70); // funcref
    limits(out, &t.limits, false);
}

fn global_type(out: &mut Vec<u8>, g: &GlobalType) {
    out.push(g.value.to_byte());
    out.push(u8::from(g.mutable));
}

fn block_type(out: &mut Vec<u8>, bt: BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(v) => out.push(v.to_byte()),
    }
}

fn memarg(out: &mut Vec<u8>, m: MemArg) {
    leb::write_u32(out, m.align);
    leb::write_u64(out, m.offset);
}

fn exprs(out: &mut Vec<u8>, body: &[Instr]) {
    for i in body {
        instr(out, i);
    }
}

pub(super) fn load_opcode(op: LoadOp) -> u8 {
    use LoadOp::*;
    match op {
        I32Load => 0x28,
        I64Load => 0x29,
        F32Load => 0x2A,
        F64Load => 0x2B,
        I32Load8S => 0x2C,
        I32Load8U => 0x2D,
        I32Load16S => 0x2E,
        I32Load16U => 0x2F,
        I64Load8S => 0x30,
        I64Load8U => 0x31,
        I64Load16S => 0x32,
        I64Load16U => 0x33,
        I64Load32S => 0x34,
        I64Load32U => 0x35,
    }
}

pub(super) fn store_opcode(op: StoreOp) -> u8 {
    use StoreOp::*;
    match op {
        I32Store => 0x36,
        I64Store => 0x37,
        F32Store => 0x38,
        F64Store => 0x39,
        I32Store8 => 0x3A,
        I32Store16 => 0x3B,
        I64Store8 => 0x3C,
        I64Store16 => 0x3D,
        I64Store32 => 0x3E,
    }
}

fn instr(out: &mut Vec<u8>, i: &Instr) {
    use Instr::*;
    if i.write_cage(out) {
        return;
    }
    match i {
        Unreachable => out.push(0x00),
        Nop => out.push(0x01),
        Block(bt, body) => {
            out.push(0x02);
            block_type(out, *bt);
            exprs(out, body);
            out.push(0x0B);
        }
        Loop(bt, body) => {
            out.push(0x03);
            block_type(out, *bt);
            exprs(out, body);
            out.push(0x0B);
        }
        If(bt, then, els) => {
            out.push(0x04);
            block_type(out, *bt);
            exprs(out, then);
            if !els.is_empty() {
                out.push(0x05);
                exprs(out, els);
            }
            out.push(0x0B);
        }
        Br(l) => {
            out.push(0x0C);
            leb::write_u32(out, *l);
        }
        BrIf(l) => {
            out.push(0x0D);
            leb::write_u32(out, *l);
        }
        BrTable(targets, default) => {
            out.push(0x0E);
            leb::write_u32(out, targets.len() as u32);
            for t in targets {
                leb::write_u32(out, *t);
            }
            leb::write_u32(out, *default);
        }
        Return => out.push(0x0F),
        Call(f) => {
            out.push(0x10);
            leb::write_u32(out, *f);
        }
        CallIndirect(t) => {
            out.push(0x11);
            leb::write_u32(out, *t);
            out.push(0x00); // table index
        }
        Drop => out.push(0x1A),
        Select => out.push(0x1B),
        LocalGet(i) => {
            out.push(0x20);
            leb::write_u32(out, *i);
        }
        LocalSet(i) => {
            out.push(0x21);
            leb::write_u32(out, *i);
        }
        LocalTee(i) => {
            out.push(0x22);
            leb::write_u32(out, *i);
        }
        GlobalGet(i) => {
            out.push(0x23);
            leb::write_u32(out, *i);
        }
        GlobalSet(i) => {
            out.push(0x24);
            leb::write_u32(out, *i);
        }
        Load(op, m) => {
            out.push(load_opcode(*op));
            memarg(out, *m);
        }
        Store(op, m) => {
            out.push(store_opcode(*op));
            memarg(out, *m);
        }
        MemorySize => {
            out.push(0x3F);
            out.push(0x00);
        }
        MemoryGrow => {
            out.push(0x40);
            out.push(0x00);
        }
        MemoryCopy => {
            out.push(MISC_PREFIX);
            leb::write_u32(out, misc_op::MEMORY_COPY);
            out.push(0x00);
            out.push(0x00);
        }
        MemoryFill => {
            out.push(MISC_PREFIX);
            leb::write_u32(out, misc_op::MEMORY_FILL);
            out.push(0x00);
        }
        I32Const(v) => {
            out.push(0x41);
            leb::write_i32(out, *v);
        }
        I64Const(v) => {
            out.push(0x42);
            leb::write_i64(out, *v);
        }
        F32Const(bits) => {
            out.push(0x43);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        F64Const(bits) => {
            out.push(0x44);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        // What is left has no immediates: one opcode byte from the
        // numeric table.
        other => {
            let op = numeric::classify(other);
            debug_assert!(op.is_some(), "{other:?} has no encoding");
            out.extend(op.map(numeric::Numeric::opcode));
        }
    }
}

impl Instr {
    /// Writes Cage-prefixed instructions; returns `true` if `self` was one.
    fn write_cage(&self, out: &mut Vec<u8>) -> bool {
        let (op, offset) = match self {
            Instr::SegmentNew(o) => (cage_op::SEGMENT_NEW, Some(*o)),
            Instr::SegmentSetTag(o) => (cage_op::SEGMENT_SET_TAG, Some(*o)),
            Instr::SegmentFree(o) => (cage_op::SEGMENT_FREE, Some(*o)),
            Instr::PointerSign => (cage_op::POINTER_SIGN, None),
            Instr::PointerAuth => (cage_op::POINTER_AUTH, None),
            _ => return false,
        };
        out.push(CAGE_PREFIX);
        leb::write_u32(out, op);
        if let Some(o) = offset {
            leb::write_u64(out, o);
        }
        true
    }
}

fn local_runs(locals: &[ValType]) -> Vec<(u32, ValType)> {
    let mut runs: Vec<(u32, ValType)> = Vec::new();
    for l in locals {
        match runs.last_mut() {
            Some((count, ty)) if ty == l => *count += 1,
            _ => runs.push((1, *l)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_runs_compress() {
        use ValType::*;
        assert_eq!(
            local_runs(&[I32, I32, I64, F64, F64, F64]),
            vec![(2, I32), (1, I64), (3, F64)]
        );
        assert!(local_runs(&[]).is_empty());
    }

    #[test]
    fn magic_header_present() {
        let bytes = encode(&Module::new());
        assert_eq!(&bytes[..8], &MAGIC);
    }

    use crate::module::Module;
}
