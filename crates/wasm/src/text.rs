//! A WAT-flavoured pretty printer, for debugging and golden tests.
//!
//! The output is close to the WebAssembly text format; Cage's instructions
//! print with their paper mnemonics (`segment.new`, `i64.pointer_sign`, …).

use std::fmt::{self, Write as _};

use crate::instr::{BlockType, Instr};
use crate::module::Module;

/// Renders a whole module.
#[must_use]
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "(module");
    for (i, ty) in module.types.iter().enumerate() {
        let _ = writeln!(out, "  (type {i} {ty})");
    }
    for import in &module.imports {
        let desc = match &import.kind {
            crate::module::ImportKind::Func(t) => format!("(func (type {t}))"),
            crate::module::ImportKind::Memory(m) => {
                format!(
                    "(memory{} {})",
                    if m.memory64 { " i64" } else { "" },
                    m.limits.min
                )
            }
            crate::module::ImportKind::Table(t) => format!("(table {} funcref)", t.limits.min),
            crate::module::ImportKind::Global(g) => format!(
                "(global {}{})",
                if g.mutable { "mut " } else { "" },
                g.value
            ),
        };
        let _ = writeln!(
            out,
            "  (import \"{}\" \"{}\" {desc})",
            import.module, import.name
        );
    }
    for (i, mem) in module.memories.iter().enumerate() {
        let suffix = if mem.memory64 { " i64" } else { "" };
        let _ = writeln!(out, "  (memory {i}{suffix} {})", mem.limits.min);
    }
    for (i, func) in module.funcs.iter().enumerate() {
        let idx = module.imported_func_count() as usize + i;
        let _ = writeln!(out, "  (func {idx} (type {})", func.type_idx);
        if !func.locals.is_empty() {
            let _ = write!(out, "    (local");
            for l in &func.locals {
                let _ = write!(out, " {l}");
            }
            let _ = writeln!(out, ")");
        }
        let mut body = String::new();
        for instr in &func.body {
            let _ = write_instr(&mut body, instr, 2);
            body.push('\n');
        }
        out.push_str(&body);
        let _ = writeln!(out, "  )");
    }
    for export in &module.exports {
        let desc = match export.kind {
            crate::module::ExportKind::Func(i) => format!("(func {i})"),
            crate::module::ExportKind::Memory(i) => format!("(memory {i})"),
            crate::module::ExportKind::Table(i) => format!("(table {i})"),
            crate::module::ExportKind::Global(i) => format!("(global {i})"),
        };
        let _ = writeln!(out, "  (export \"{}\" {desc})", export.name);
    }
    out.push_str(")\n");
    out
}

/// Writes one instruction at the given indent depth.
pub(crate) fn write_instr<W: fmt::Write>(out: &mut W, instr: &Instr, depth: usize) -> fmt::Result {
    let pad = "  ".repeat(depth);
    match instr {
        Instr::Block(bt, body) => {
            writeln!(out, "{pad}block{}", bt_suffix(*bt))?;
            for i in body {
                write_instr(out, i, depth + 1)?;
                writeln!(out)?;
            }
            write!(out, "{pad}end")
        }
        Instr::Loop(bt, body) => {
            writeln!(out, "{pad}loop{}", bt_suffix(*bt))?;
            for i in body {
                write_instr(out, i, depth + 1)?;
                writeln!(out)?;
            }
            write!(out, "{pad}end")
        }
        Instr::If(bt, then, els) => {
            writeln!(out, "{pad}if{}", bt_suffix(*bt))?;
            for i in then {
                write_instr(out, i, depth + 1)?;
                writeln!(out)?;
            }
            if !els.is_empty() {
                writeln!(out, "{pad}else")?;
                for i in els {
                    write_instr(out, i, depth + 1)?;
                    writeln!(out)?;
                }
            }
            write!(out, "{pad}end")
        }
        other => write!(out, "{pad}{}", leaf_text(other)),
    }
}

fn bt_suffix(bt: BlockType) -> String {
    match bt {
        BlockType::Empty => String::new(),
        BlockType::Value(v) => format!(" (result {v})"),
    }
}

fn leaf_text(instr: &Instr) -> String {
    use Instr::*;
    match instr {
        Unreachable => "unreachable".into(),
        Nop => "nop".into(),
        Br(l) => format!("br {l}"),
        BrIf(l) => format!("br_if {l}"),
        BrTable(ts, d) => format!("br_table {ts:?} {d}"),
        Return => "return".into(),
        Call(f) => format!("call {f}"),
        CallIndirect(t) => format!("call_indirect (type {t})"),
        Drop => "drop".into(),
        Select => "select".into(),
        LocalGet(i) => format!("local.get {i}"),
        LocalSet(i) => format!("local.set {i}"),
        LocalTee(i) => format!("local.tee {i}"),
        GlobalGet(i) => format!("global.get {i}"),
        GlobalSet(i) => format!("global.set {i}"),
        Load(op, m) => format!("{} offset={}", dotted(op), m.offset),
        Store(op, m) => format!("{} offset={}", dotted(op), m.offset),
        MemorySize => "memory.size".into(),
        MemoryGrow => "memory.grow".into(),
        MemoryFill => "memory.fill".into(),
        MemoryCopy => "memory.copy".into(),
        I32Const(v) => format!("i32.const {v}"),
        I64Const(v) => format!("i64.const {v}"),
        F32Const(bits) => format!("f32.const {}", f32::from_bits(*bits)),
        F64Const(bits) => format!("f64.const {}", f64::from_bits(*bits)),
        SegmentNew(o) => format!("segment.new offset={o}"),
        SegmentSetTag(o) => format!("segment.set_tag offset={o}"),
        SegmentFree(o) => format!("segment.free offset={o}"),
        PointerSign => "i64.pointer_sign".into(),
        PointerAuth => "i64.pointer_auth".into(),
        // Numeric instructions.
        other => dotted(other),
    }
}

/// Derives the dotted mnemonic from a type-prefixed variant name:
/// `I64ExtendI32S` -> `i64.extend_i32_s`, `I32Load8S` -> `i32.load8_s`.
fn dotted(variant: &impl fmt::Debug) -> String {
    let debug = format!("{variant:?}");
    let (prefix, rest) = debug.split_at(3);
    let mut out = prefix.to_lowercase();
    out.push('.');
    let mut prev_lower = false;
    for c in rest.chars() {
        if c.is_ascii_uppercase() && prev_lower {
            out.push('_');
        }
        prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
        out.push(c.to_ascii_lowercase());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    #[test]
    fn cage_instructions_print_with_paper_mnemonics() {
        assert_eq!(Instr::SegmentNew(16).to_string(), "segment.new offset=16");
        assert_eq!(Instr::PointerSign.to_string(), "i64.pointer_sign");
        assert_eq!(Instr::PointerAuth.to_string(), "i64.pointer_auth");
    }

    #[test]
    fn structured_control_prints_nested() {
        let instr = Instr::Block(BlockType::Empty, vec![Instr::I32Const(1), Instr::BrIf(0)]);
        let text = instr.to_string();
        assert!(text.starts_with("block"));
        assert!(text.contains("  i32.const 1"));
        assert!(text.trim_end().ends_with("end"));
    }

    #[test]
    fn numeric_mnemonics_are_dotted() {
        assert_eq!(Instr::I32Add.to_string(), "i32.add");
        assert_eq!(Instr::I64ExtendI32S.to_string(), "i64.extend_i32_s");
        assert_eq!(Instr::F64ConvertI64U.to_string(), "f64.convert_i64_u");
        assert_eq!(Instr::F32DemoteF64.to_string(), "f32.demote_f64");
    }

    #[test]
    fn load_and_store_mnemonics_are_dotted() {
        use crate::instr::{LoadOp::*, MemArg, StoreOp::*};
        let loads = [
            (I32Load, "i32.load"),
            (I64Load, "i64.load"),
            (F32Load, "f32.load"),
            (F64Load, "f64.load"),
            (I32Load8S, "i32.load8_s"),
            (I32Load8U, "i32.load8_u"),
            (I32Load16S, "i32.load16_s"),
            (I32Load16U, "i32.load16_u"),
            (I64Load8S, "i64.load8_s"),
            (I64Load8U, "i64.load8_u"),
            (I64Load16S, "i64.load16_s"),
            (I64Load16U, "i64.load16_u"),
            (I64Load32S, "i64.load32_s"),
            (I64Load32U, "i64.load32_u"),
        ];
        for (op, text) in loads {
            let printed = Instr::Load(op, MemArg::offset(8)).to_string();
            assert_eq!(printed, format!("{text} offset=8"));
        }
        let stores = [
            (I32Store, "i32.store"),
            (I64Store, "i64.store"),
            (F32Store, "f32.store"),
            (F64Store, "f64.store"),
            (I32Store8, "i32.store8"),
            (I32Store16, "i32.store16"),
            (I64Store8, "i64.store8"),
            (I64Store16, "i64.store16"),
            (I64Store32, "i64.store32"),
        ];
        for (op, text) in stores {
            let printed = Instr::Store(op, MemArg::none()).to_string();
            assert_eq!(printed, format!("{text} offset=0"));
        }
    }

    #[test]
    fn module_printer_includes_memory_and_exports() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let f = b.add_function(&[], &[ValType::I64], &[], vec![Instr::I64Const(7)]);
        b.export_func("seven", f);
        let text = print_module(&b.build());
        assert!(text.contains("(memory 0 i64 1)"));
        assert!(text.contains("seven"));
        assert!(text.contains("i64.const 7"));
    }
}
