//! The WebAssembly binary format, extended with Cage's `0xFB`-prefixed
//! instructions.
//!
//! [`encode`] and [`decode`] round-trip every module this crate can
//! represent; the property tests in `tests/` drive arbitrary modules
//! through the pair.

mod decode;
mod encode;

pub use decode::{decode, DecodeError};
pub use encode::encode;

/// Section ids of the binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum SectionId {
    Type = 1,
    Import = 2,
    Function = 3,
    Table = 4,
    Memory = 5,
    Global = 6,
    Export = 7,
    Start = 8,
    Elem = 9,
    Code = 10,
    Data = 11,
}

/// The magic header: `\0asm` + version 1.
pub(crate) const MAGIC: [u8; 8] = [0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00];

/// One-byte prefix for Cage's extension opcodes.
pub(crate) const CAGE_PREFIX: u8 = 0xFB;

/// One-byte prefix for the bulk-memory (`0xFC`) opcodes.
pub(crate) const MISC_PREFIX: u8 = 0xFC;

/// Cage sub-opcodes under [`CAGE_PREFIX`].
pub(crate) mod cage_op {
    pub const SEGMENT_NEW: u32 = 0;
    pub const SEGMENT_SET_TAG: u32 = 1;
    pub const SEGMENT_FREE: u32 = 2;
    pub const POINTER_SIGN: u32 = 3;
    pub const POINTER_AUTH: u32 = 4;
}

/// Bulk-memory sub-opcodes under [`MISC_PREFIX`].
pub(crate) mod misc_op {
    pub const MEMORY_COPY: u32 = 10;
    pub const MEMORY_FILL: u32 = 11;
}

#[cfg(test)]
mod tests {
    use crate::builder::ModuleBuilder;
    use crate::instr::{Instr, MemArg};
    use crate::module::Module;
    use crate::types::ValType;

    use super::{decode, encode};

    #[test]
    fn empty_module_roundtrips() {
        let m = Module::new();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn cage_instructions_roundtrip() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let f = b.add_function(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::SegmentNew(32),
                Instr::PointerSign,
                Instr::PointerAuth,
            ],
        );
        b.export_func("seg", f);
        let m = b.build();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn structured_control_roundtrips() {
        let mut b = ModuleBuilder::new();
        let body = vec![
            Instr::Block(
                crate::instr::BlockType::Value(ValType::I32),
                vec![
                    Instr::I32Const(1),
                    Instr::If(
                        crate::instr::BlockType::Value(ValType::I32),
                        vec![Instr::I32Const(2)],
                        vec![Instr::I32Const(3)],
                    ),
                    Instr::Loop(
                        crate::instr::BlockType::Empty,
                        vec![Instr::Br(1), Instr::BrIf(0)],
                    ),
                ],
            ),
            Instr::BrTable(vec![0, 0], 0),
            Instr::Unreachable,
        ];
        let f = b.add_function(&[], &[ValType::I32], &[ValType::I32], body);
        b.export_func("ctl", f);
        let m = b.build();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn memory64_load_store_roundtrips() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(2);
        let f = b.add_function(
            &[ValType::I64],
            &[ValType::F64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::Load(
                    crate::instr::LoadOp::F64Load,
                    MemArg {
                        align: 3,
                        offset: 1024,
                    },
                ),
            ],
        );
        b.export_func("ld", f);
        let m = b.build();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }
}
