//! The 128 immediate-free numeric instructions, pinned from outside.
//!
//! The encoder, the decoder and the validator all read one table
//! (`cage_wasm::numeric`), so a wrong opcode or signature in it
//! round-trips and validates happily. `golden_numeric_table.tsv` is what
//! the three independent hand-written lists that table replaced
//! (`simple_opcode`, `simple_instr`, `numeric_signature`) said, captured
//! while they still existed: opcode, text mnemonic, stack signature.

use cage_wasm::binary::{decode, encode};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{numeric_signature, Instr};

const GOLDEN: &str = include_str!("golden_numeric_table.tsv");

/// A module of one `() -> ()` function whose body is the single byte
/// `opcode`, as the encoder lays it out.
fn one_opcode_module(opcode: u8) -> Vec<u8> {
    let mut bin = b"\0asm\x01\0\0\0".to_vec();
    bin.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type 0: () -> ()
    bin.extend_from_slice(&[3, 2, 1, 0]); // one function of type 0
    bin.extend_from_slice(&[10, 5, 1, 3, 0, opcode, 0x0B]); // no locals, the opcode, end
    bin
}

fn signature_text(instr: &Instr) -> String {
    let (params, result) = numeric_signature(instr).expect("numeric instruction");
    let list = |tys: &[cage_wasm::ValType]| {
        let names: Vec<String> = tys.iter().map(ToString::to_string).collect();
        format!("[{}]", names.join(" "))
    };
    let results: Vec<_> = result.into_iter().collect();
    format!("{} -> {}", list(params), list(&results))
}

#[test]
fn numeric_opcodes_mnemonics_and_signatures_match_the_golden_table() {
    let rows: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(rows.len(), 128, "one row per numeric instruction");
    for (row, opcode) in rows.iter().zip(0x45..=0xC4u8) {
        let bin = one_opcode_module(opcode);
        let body = &decode(&bin).expect("decodes").funcs[0].body;
        let [instr] = body.as_slice() else {
            panic!("{opcode:#04x} decoded to {body:?}");
        };
        // Ascending from 0x45 with no gap, so exactly 0x45..=0xC4.
        assert_eq!(
            format!("{opcode:#04x}\t{instr}\t{}", signature_text(instr)),
            *row
        );
        // The instruction encodes back to the opcode it decoded from.
        let mut b = ModuleBuilder::new();
        b.add_function(&[], &[], &[], vec![instr.clone()]);
        assert_eq!(encode(&b.build()), bin, "{instr} re-encodes");
    }
    // The neighbours on either side are not numeric instructions.
    for opcode in [0x44, 0xC5] {
        let numeric = decode(&one_opcode_module(opcode))
            .ok()
            .and_then(|m| m.funcs[0].body.first().cloned())
            .is_some_and(|i| numeric_signature(&i).is_some());
        assert!(!numeric, "{opcode:#04x}");
    }
}
