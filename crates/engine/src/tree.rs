//! The tree-walking oracle: the reference implementation the register
//! machine is compared against.
//!
//! It executes the *structured* `Instr` tree recursively on an operand
//! stack, one source instruction at a time, and owns everything only that
//! takes: [`Interp::exec_op`] — one hand-written arm, semantics and charge,
//! for every data instruction — its operand-stack helpers, and the control
//! walk. It is reachable from `Store::call_tree` and from nowhere else:
//! `Store::call` and `Store::invoke` run the dispatch loop of
//! `crate::interp`, which holds no `Instr`, builds no operand stack and
//! calls nothing in this file. What the two share is what is not
//! semantics: the [`Interp`] that holds the instance (its `charge`, its
//! memory accessors, the host-call boundary) and the slot encoding of
//! `cage_wasm::numeric`.
//!
//! Property tests — the in-crate difftest, `exec_semantics` and the
//! trap-matrix integration test, which is why this is not `#[cfg(test)]` —
//! assert both paths are bit-identical on results, traps and the whole
//! count vector. For the 128 numeric instructions that compares
//! `exec_op`'s arms with the rows of `cage_wasm::numeric`; for the twelve
//! stateful ones (globals, memory management, the Fig. 11 segment and
//! pointer instructions, `unreachable`) with the register-form bodies of
//! `Env::sys`: argument order, charge class, granule rounding and
//! charge-before-trap order are written down twice.

use cage_wasm::numeric::{
    get_f32, get_f64, get_i32, get_i64, slot_bool, slot_i32, slot_i64, trunc_to_i32, trunc_to_i64,
    trunc_to_u32, trunc_to_u64, wasm_fmax32, wasm_fmax64, wasm_fmin32, wasm_fmin64, IntoSlot,
};
use cage_wasm::Instr;

use crate::cost::ChargeClass;
use crate::interp::{decode_load, Interp};
use crate::store::{CompiledFunc, Precompiled};
use crate::trap::Trap;
use crate::value::Value;

impl Interp<'_> {
    /// Moves the callee's arguments off the operand stack into its frame
    /// in the locals arena, appends zeroed declared locals, and returns
    /// `(locals_base, frame_base)`.
    fn enter(func: &CompiledFunc, stack: &mut Vec<u64>, locals: &mut Vec<u64>) -> (usize, usize) {
        debug_assert!(
            stack.len() >= func.ty.params.len(),
            "arity checked by validation"
        );
        let locals_base = locals.len();
        let args_base = stack.len() - func.ty.params.len();
        locals.extend_from_slice(&stack[args_base..]);
        stack.truncate(args_base);
        // All-zero slots are the zero value of every type.
        locals.resize(locals.len() + func.locals.len(), 0);
        (locals_base, stack.len())
    }

    /// Slides the top `arity` values down to `height` in place — the
    /// allocation-free replacement for `split_off` + `extend` on branch
    /// exits and returns.
    fn collapse(stack: &mut Vec<u64>, height: usize, arity: usize) {
        let result_start = stack.len() - arity;
        if result_start > height {
            for i in 0..arity {
                stack[height + i] = stack[result_start + i];
            }
            stack.truncate(height + arity);
        }
    }

    /// Pops a memory index. Slot encoding already zero-extends i32, so
    /// the raw slot *is* the index for both memory widths.
    fn pop_index(&mut self, stack: &mut Vec<u64>) -> u64 {
        stack.pop().expect("validated")
    }

    /// Executes one data instruction (anything but control flow and
    /// calls): the oracle's own arm, semantics and charge, for each of
    /// them.
    ///
    /// `inline(always)` so the tree walker's control match and this data
    /// match fuse into a single jump table — without it every arithmetic
    /// instruction pays a second dispatch.
    #[inline(always)]
    #[allow(clippy::too_many_lines, clippy::inline_always)]
    fn exec_op(
        &mut self,
        instr: &Instr,
        stack: &mut Vec<u64>,
        locals: &mut [u64],
        lbase: usize,
    ) -> Result<(), Trap> {
        use Instr::*;
        macro_rules! una {
            ($cost:expr, $pop:ident, $push:expr) => {{
                self.charge($cost);
                let a = $pop(stack.pop().expect("validated"));
                stack.push(IntoSlot::into_slot($push(a)));
            }};
        }
        macro_rules! bin {
            ($cost:expr, $pop:ident, $push:expr) => {{
                self.charge($cost);
                let b = $pop(stack.pop().expect("validated"));
                let a = $pop(stack.pop().expect("validated"));
                stack.push(IntoSlot::into_slot($push(a, b)));
            }};
        }
        macro_rules! cmp {
            ($cost:expr, $pop:ident, $op:expr) => {{
                self.charge($cost);
                let b = $pop(stack.pop().expect("validated"));
                let a = $pop(stack.pop().expect("validated"));
                stack.push(slot_bool($op(a, b)));
            }};
        }
        let s = ChargeClass::Simple;
        let fl = ChargeClass::Float;
        let dv = ChargeClass::Div;
        let fdv = ChargeClass::FloatDiv;
        match instr {
            // The caller's own control match keeps these out: the tree
            // walker handles them positionally.
            Block(..) | Loop(..) | If(..) | Br(_) | BrIf(_) | BrTable(..) | Return | Call(_)
            | CallIndirect(_) => unreachable!("control instruction {instr:?} in exec_op"),
            Unreachable => {
                self.charge(s);
                return Err(Trap::Unreachable);
            }
            Nop => self.charge(s),
            Drop => {
                self.charge(s);
                stack.pop();
            }
            Select => {
                self.charge(s);
                let c = get_i32(stack.pop().expect("validated"));
                let b = stack.pop().expect("validated");
                let a = stack.pop().expect("validated");
                stack.push(if c != 0 { a } else { b });
            }
            LocalGet(i) => {
                self.charge(s);
                stack.push(locals[lbase + *i as usize]);
            }
            LocalSet(i) => {
                self.charge(s);
                locals[lbase + *i as usize] = stack.pop().expect("validated");
            }
            LocalTee(i) => {
                self.charge(s);
                locals[lbase + *i as usize] = *stack.last().expect("validated");
            }
            GlobalGet(i) => {
                self.charge(s);
                stack.push(self.inst.globals[*i as usize].to_slot());
            }
            GlobalSet(i) => {
                self.charge(s);
                let raw = stack.pop().expect("validated");
                let g = &mut self.inst.globals[*i as usize];
                // Globals keep their typed API representation; the declared
                // type is recovered from the current value.
                *g = Value::from_slot(g.ty(), raw);
            }
            Load(op, memarg) => {
                self.charge(ChargeClass::Mem);
                let index = self.pop_index(stack);
                let raw = self
                    .memory_mut()?
                    .read_scalar(index, memarg.offset, op.width())?;
                stack.push(decode_load(*op, raw));
            }
            Store(op, memarg) => {
                self.charge(ChargeClass::Mem);
                // Slot encoding is the store encoding: the write truncates
                // to the op's width, which is exactly what every StoreOp
                // did to its typed value.
                let raw = stack.pop().expect("validated");
                let index = self.pop_index(stack);
                self.memory_mut()?
                    .write_scalar(index, memarg.offset, op.width(), raw)?;
            }
            MemorySize => {
                self.charge(ChargeClass::MemManage);
                let (pages, m64) = {
                    let mem = self.memory()?;
                    (mem.size_pages(), mem.is_memory64())
                };
                stack.push(size_value(pages, m64));
            }
            MemoryGrow => {
                self.charge(ChargeClass::MemManage);
                let delta = self.pop_index(stack);
                let (result, m64) = {
                    let mem = self.memory_mut()?;
                    let m64 = mem.is_memory64();
                    (mem.grow(delta), m64)
                };
                match result {
                    Some(old) => stack.push(size_value(old, m64)),
                    None => stack.push(if m64 { slot_i64(-1) } else { slot_i32(-1) }),
                }
            }
            MemoryFill => {
                let len = self.pop_index(stack);
                let val = get_i32(stack.pop().expect("validated")) as u8;
                let dst = self.pop_index(stack);
                self.charge(ChargeClass::Fill);
                self.charge_units(ChargeClass::FillBytes, len);
                self.memory_mut()?.fill(dst, val, len)?;
            }
            MemoryCopy => {
                let len = self.pop_index(stack);
                let src = self.pop_index(stack);
                let dst = self.pop_index(stack);
                self.charge(ChargeClass::Copy);
                self.charge_units(ChargeClass::CopyBytes, len);
                self.memory_mut()?.copy(dst, src, len)?;
            }
            I32Const(v) => {
                self.charge(s);
                stack.push(slot_i32(*v));
            }
            I64Const(v) => {
                self.charge(s);
                stack.push(slot_i64(*v));
            }
            F32Const(bits) => {
                self.charge(s);
                stack.push(u64::from(*bits));
            }
            F64Const(bits) => {
                self.charge(s);
                stack.push(*bits);
            }

            // -- Cage extension (Fig. 11) ---------------------------------
            SegmentNew(offset) => {
                let len = stack.pop().expect("validated");
                let ptr = stack.pop().expect("validated");
                // Partial granules still cost a full stzg/stg (div_ceil).
                self.charge(ChargeClass::SegmentNew);
                self.charge_units(ChargeClass::SegmentNewGranules, len.div_ceil(16));
                let tagged = self
                    .memory_mut()?
                    .segment_new(ptr.wrapping_add(*offset), len)?;
                stack.push(tagged);
            }
            SegmentSetTag(offset) => {
                let len = stack.pop().expect("validated");
                let tagged = stack.pop().expect("validated");
                let ptr = stack.pop().expect("validated");
                self.charge(ChargeClass::Retag);
                self.charge_units(ChargeClass::RetagGranules, len.div_ceil(16));
                self.memory_mut()?
                    .segment_set_tag(ptr.wrapping_add(*offset), tagged, len)?;
            }
            SegmentFree(offset) => {
                let len = stack.pop().expect("validated");
                let ptr = stack.pop().expect("validated");
                self.charge(ChargeClass::Retag);
                self.charge_units(ChargeClass::RetagGranules, len.div_ceil(16));
                self.memory_mut()?
                    .segment_free(ptr.wrapping_add(*offset), len)?;
            }
            PointerSign => {
                self.charge(ChargeClass::Sign);
                let ptr = stack.pop().expect("validated");
                let signed = if self.config.variant.pointer_auth() {
                    self.inst.pac.sign(ptr, self.inst.pac_modifier)
                } else {
                    ptr
                };
                stack.push(signed);
            }
            PointerAuth => {
                self.charge(ChargeClass::Auth);
                let ptr = stack.pop().expect("validated");
                let stripped = if self.config.variant.pointer_auth() {
                    self.inst.pac.auth(ptr, self.inst.pac_modifier)?
                } else {
                    ptr
                };
                stack.push(stripped);
            }

            // -- numeric ----------------------------------------------------
            I32Eqz => una!(s, get_i32, |a: i32| i32::from(a == 0)),
            I32Eq => cmp!(s, get_i32, |a, b| a == b),
            I32Ne => cmp!(s, get_i32, |a, b| a != b),
            I32LtS => cmp!(s, get_i32, |a, b| a < b),
            I32LtU => cmp!(s, get_i32, |a: i32, b: i32| (a as u32) < b as u32),
            I32GtS => cmp!(s, get_i32, |a, b| a > b),
            I32GtU => cmp!(s, get_i32, |a: i32, b: i32| a as u32 > b as u32),
            I32LeS => cmp!(s, get_i32, |a, b| a <= b),
            I32LeU => cmp!(s, get_i32, |a: i32, b: i32| a as u32 <= b as u32),
            I32GeS => cmp!(s, get_i32, |a, b| a >= b),
            I32GeU => cmp!(s, get_i32, |a: i32, b: i32| a as u32 >= b as u32),
            I32Clz => una!(s, get_i32, |a: i32| a.leading_zeros() as i32),
            I32Ctz => una!(s, get_i32, |a: i32| a.trailing_zeros() as i32),
            I32Popcnt => una!(s, get_i32, |a: i32| a.count_ones() as i32),
            I32Add => bin!(s, get_i32, |a: i32, b: i32| a.wrapping_add(b)),
            I32Sub => bin!(s, get_i32, |a: i32, b: i32| a.wrapping_sub(b)),
            I32Mul => bin!(s, get_i32, |a: i32, b: i32| a.wrapping_mul(b)),
            I32DivS => {
                self.charge(dv);
                let b = get_i32(stack.pop().expect("validated"));
                let a = get_i32(stack.pop().expect("validated"));
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                let (q, overflow) = a.overflowing_div(b);
                if overflow {
                    return Err(Trap::IntegerOverflow);
                }
                stack.push(slot_i32(q));
            }
            I32DivU => {
                self.charge(dv);
                let b = get_i32(stack.pop().expect("validated")) as u32;
                let a = get_i32(stack.pop().expect("validated")) as u32;
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i32((a / b) as i32));
            }
            I32RemS => {
                self.charge(dv);
                let b = get_i32(stack.pop().expect("validated"));
                let a = get_i32(stack.pop().expect("validated"));
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i32(a.wrapping_rem(b)));
            }
            I32RemU => {
                self.charge(dv);
                let b = get_i32(stack.pop().expect("validated")) as u32;
                let a = get_i32(stack.pop().expect("validated")) as u32;
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i32((a % b) as i32));
            }
            I32And => bin!(s, get_i32, |a: i32, b: i32| a & b),
            I32Or => bin!(s, get_i32, |a: i32, b: i32| a | b),
            I32Xor => bin!(s, get_i32, |a: i32, b: i32| a ^ b),
            I32Shl => bin!(s, get_i32, |a: i32, b: i32| a.wrapping_shl(b as u32)),
            I32ShrS => bin!(s, get_i32, |a: i32, b: i32| a.wrapping_shr(b as u32)),
            I32ShrU => bin!(
                s,
                get_i32,
                |a: i32, b: i32| ((a as u32).wrapping_shr(b as u32)) as i32
            ),
            I32Rotl => bin!(s, get_i32, |a: i32, b: i32| a.rotate_left(b as u32 & 31)),
            I32Rotr => bin!(s, get_i32, |a: i32, b: i32| a.rotate_right(b as u32 & 31)),

            I64Eqz => {
                self.charge(s);
                let a = get_i64(stack.pop().expect("validated"));
                stack.push(slot_bool(a == 0));
            }
            I64Eq => cmp!(s, get_i64, |a, b| a == b),
            I64Ne => cmp!(s, get_i64, |a, b| a != b),
            I64LtS => cmp!(s, get_i64, |a, b| a < b),
            I64LtU => cmp!(s, get_i64, |a: i64, b: i64| (a as u64) < b as u64),
            I64GtS => cmp!(s, get_i64, |a, b| a > b),
            I64GtU => cmp!(s, get_i64, |a: i64, b: i64| a as u64 > b as u64),
            I64LeS => cmp!(s, get_i64, |a, b| a <= b),
            I64LeU => cmp!(s, get_i64, |a: i64, b: i64| a as u64 <= b as u64),
            I64GeS => cmp!(s, get_i64, |a, b| a >= b),
            I64GeU => cmp!(s, get_i64, |a: i64, b: i64| a as u64 >= b as u64),
            I64Clz => una!(s, get_i64, |a: i64| i64::from(a.leading_zeros())),
            I64Ctz => una!(s, get_i64, |a: i64| i64::from(a.trailing_zeros())),
            I64Popcnt => una!(s, get_i64, |a: i64| i64::from(a.count_ones())),
            I64Add => bin!(s, get_i64, |a: i64, b: i64| a.wrapping_add(b)),
            I64Sub => bin!(s, get_i64, |a: i64, b: i64| a.wrapping_sub(b)),
            I64Mul => bin!(s, get_i64, |a: i64, b: i64| a.wrapping_mul(b)),
            I64DivS => {
                self.charge(dv);
                let b = get_i64(stack.pop().expect("validated"));
                let a = get_i64(stack.pop().expect("validated"));
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                let (q, overflow) = a.overflowing_div(b);
                if overflow {
                    return Err(Trap::IntegerOverflow);
                }
                stack.push(slot_i64(q));
            }
            I64DivU => {
                self.charge(dv);
                let b = get_i64(stack.pop().expect("validated")) as u64;
                let a = get_i64(stack.pop().expect("validated")) as u64;
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i64((a / b) as i64));
            }
            I64RemS => {
                self.charge(dv);
                let b = get_i64(stack.pop().expect("validated"));
                let a = get_i64(stack.pop().expect("validated"));
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i64(a.wrapping_rem(b)));
            }
            I64RemU => {
                self.charge(dv);
                let b = get_i64(stack.pop().expect("validated")) as u64;
                let a = get_i64(stack.pop().expect("validated")) as u64;
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                stack.push(slot_i64((a % b) as i64));
            }
            I64And => bin!(s, get_i64, |a: i64, b: i64| a & b),
            I64Or => bin!(s, get_i64, |a: i64, b: i64| a | b),
            I64Xor => bin!(s, get_i64, |a: i64, b: i64| a ^ b),
            I64Shl => bin!(s, get_i64, |a: i64, b: i64| a.wrapping_shl(b as u32)),
            I64ShrS => bin!(s, get_i64, |a: i64, b: i64| a.wrapping_shr(b as u32)),
            I64ShrU => bin!(
                s,
                get_i64,
                |a: i64, b: i64| ((a as u64).wrapping_shr(b as u32)) as i64
            ),
            I64Rotl => bin!(s, get_i64, |a: i64, b: i64| a.rotate_left(b as u32 & 63)),
            I64Rotr => bin!(s, get_i64, |a: i64, b: i64| a.rotate_right(b as u32 & 63)),

            F32Eq => cmp!(fl, get_f32, |a, b| a == b),
            F32Ne => cmp!(fl, get_f32, |a, b| a != b),
            F32Lt => cmp!(fl, get_f32, |a, b| a < b),
            F32Gt => cmp!(fl, get_f32, |a, b| a > b),
            F32Le => cmp!(fl, get_f32, |a, b| a <= b),
            F32Ge => cmp!(fl, get_f32, |a, b| a >= b),
            F32Abs => una!(fl, get_f32, |a: f32| a.abs()),
            F32Neg => una!(fl, get_f32, |a: f32| -a),
            F32Ceil => una!(fl, get_f32, |a: f32| a.ceil()),
            F32Floor => una!(fl, get_f32, |a: f32| a.floor()),
            F32Trunc => una!(fl, get_f32, |a: f32| a.trunc()),
            F32Nearest => una!(fl, get_f32, |a: f32| a.round_ties_even()),
            F32Sqrt => una!(fdv, get_f32, |a: f32| a.sqrt()),
            F32Add => bin!(fl, get_f32, |a: f32, b: f32| a + b),
            F32Sub => bin!(fl, get_f32, |a: f32, b: f32| a - b),
            F32Mul => bin!(fl, get_f32, |a: f32, b: f32| a * b),
            F32Div => bin!(fdv, get_f32, |a: f32, b: f32| a / b),
            F32Min => bin!(fl, get_f32, wasm_fmin32),
            F32Max => bin!(fl, get_f32, wasm_fmax32),
            F32Copysign => bin!(fl, get_f32, |a: f32, b: f32| a.copysign(b)),

            F64Eq => cmp!(fl, get_f64, |a, b| a == b),
            F64Ne => cmp!(fl, get_f64, |a, b| a != b),
            F64Lt => cmp!(fl, get_f64, |a, b| a < b),
            F64Gt => cmp!(fl, get_f64, |a, b| a > b),
            F64Le => cmp!(fl, get_f64, |a, b| a <= b),
            F64Ge => cmp!(fl, get_f64, |a, b| a >= b),
            F64Abs => una!(fl, get_f64, |a: f64| a.abs()),
            F64Neg => una!(fl, get_f64, |a: f64| -a),
            F64Ceil => una!(fl, get_f64, |a: f64| a.ceil()),
            F64Floor => una!(fl, get_f64, |a: f64| a.floor()),
            F64Trunc => una!(fl, get_f64, |a: f64| a.trunc()),
            F64Nearest => una!(fl, get_f64, |a: f64| a.round_ties_even()),
            F64Sqrt => una!(fdv, get_f64, |a: f64| a.sqrt()),
            F64Add => bin!(fl, get_f64, |a: f64, b: f64| a + b),
            F64Sub => bin!(fl, get_f64, |a: f64, b: f64| a - b),
            F64Mul => bin!(fl, get_f64, |a: f64, b: f64| a * b),
            F64Div => bin!(fdv, get_f64, |a: f64, b: f64| a / b),
            F64Min => bin!(fl, get_f64, wasm_fmin64),
            F64Max => bin!(fl, get_f64, wasm_fmax64),
            F64Copysign => bin!(fl, get_f64, |a: f64, b: f64| a.copysign(b)),

            // Width changes are register renames on the simulated cores
            // (zero-cost move elimination): charged as free so wasm64's
            // extra extend/wrap traffic prices only real work.
            I32WrapI64 => una!(ChargeClass::Zero, get_i64, |a: i64| a as i32),
            I32TruncF32S => {
                self.charge(fl);
                let a = get_f32(stack.pop().expect("validated"));
                stack.push(slot_i32(trunc_to_i32(f64::from(a))?));
            }
            I32TruncF32U => {
                self.charge(fl);
                let a = get_f32(stack.pop().expect("validated"));
                stack.push(slot_i32(trunc_to_u32(f64::from(a))? as i32));
            }
            I32TruncF64S => {
                self.charge(fl);
                let a = get_f64(stack.pop().expect("validated"));
                stack.push(slot_i32(trunc_to_i32(a)?));
            }
            I32TruncF64U => {
                self.charge(fl);
                let a = get_f64(stack.pop().expect("validated"));
                stack.push(slot_i32(trunc_to_u32(a)? as i32));
            }
            I64ExtendI32S => una!(ChargeClass::Zero, get_i32, |a: i32| i64::from(a)),
            I64ExtendI32U => una!(ChargeClass::Zero, get_i32, |a: i32| (a as u32) as i64),
            I64TruncF32S => {
                self.charge(fl);
                let a = get_f32(stack.pop().expect("validated"));
                stack.push(slot_i64(trunc_to_i64(f64::from(a))?));
            }
            I64TruncF32U => {
                self.charge(fl);
                let a = get_f32(stack.pop().expect("validated"));
                stack.push(slot_i64(trunc_to_u64(f64::from(a))? as i64));
            }
            I64TruncF64S => {
                self.charge(fl);
                let a = get_f64(stack.pop().expect("validated"));
                stack.push(slot_i64(trunc_to_i64(a)?));
            }
            I64TruncF64U => {
                self.charge(fl);
                let a = get_f64(stack.pop().expect("validated"));
                stack.push(slot_i64(trunc_to_u64(a)? as i64));
            }
            F32ConvertI32S => una!(fl, get_i32, |a: i32| a as f32),
            F32ConvertI32U => una!(fl, get_i32, |a: i32| (a as u32) as f32),
            F32ConvertI64S => una!(fl, get_i64, |a: i64| a as f32),
            F32ConvertI64U => una!(fl, get_i64, |a: i64| (a as u64) as f32),
            F32DemoteF64 => una!(fl, get_f64, |a: f64| a as f32),
            F64ConvertI32S => una!(fl, get_i32, |a: i32| f64::from(a)),
            F64ConvertI32U => una!(fl, get_i32, |a: i32| f64::from(a as u32)),
            F64ConvertI64S => una!(fl, get_i64, |a: i64| a as f64),
            F64ConvertI64U => una!(fl, get_i64, |a: i64| (a as u64) as f64),
            F64PromoteF32 => una!(fl, get_f32, f64::from),
            I32ReinterpretF32 => una!(s, get_f32, |a: f32| a.to_bits() as i32),
            I64ReinterpretF64 => una!(s, get_f64, |a: f64| a.to_bits() as i64),
            F32ReinterpretI32 => una!(s, get_i32, |a: i32| f32::from_bits(a as u32)),
            F64ReinterpretI64 => una!(s, get_i64, |a: i64| f64::from_bits(a as u64)),
            I32Extend8S => una!(s, get_i32, |a: i32| i32::from(a as i8)),
            I32Extend16S => una!(s, get_i32, |a: i32| i32::from(a as i16)),
            I64Extend8S => una!(s, get_i64, |a: i64| i64::from(a as i8)),
            I64Extend16S => una!(s, get_i64, |a: i64| i64::from(a as i16)),
            I64Extend32S => una!(s, get_i64, |a: i64| i64::from(a as i32)),
        }
        Ok(())
    }
}

/// Control-flow outcome of executing an instruction sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Fell through.
    Next,
    /// Branch to the label `depth` levels up.
    Br(u32),
    /// Return from the function.
    Return,
}

impl Interp<'_> {
    /// Oracle entry point: the structured-tree twin of
    /// [`Interp::call_function_reg`].
    pub(crate) fn call_function_tree(
        &mut self,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.check_entry(func_idx, args)?;
        // Typed values convert at this call boundary exactly like
        // `call_function_reg`, and like it the template is cloned here,
        // once — three reference counts — and borrowed by every frame
        // below: function table, type table and the structured bodies
        // (the compiled form is flat).
        let pre = self.inst.pre.clone();
        let ty = &pre.funcs[func_idx as usize].ty;
        let mut stack: Vec<u64> = Vec::with_capacity(64);
        let mut locals: Vec<u64> = Vec::with_capacity(32);
        stack.extend(args.iter().map(|v| v.to_slot()));
        let result = self.call_frame_tree(&pre, func_idx, &mut stack, &mut locals);
        self.flush_accounting();
        result?;
        debug_assert_eq!(stack.len(), ty.results.len(), "validated result arity");
        Ok(ty
            .results
            .iter()
            .zip(&stack)
            .map(|(ty, raw)| Value::from_slot(*ty, *raw))
            .collect())
    }

    fn call_frame_tree(
        &mut self,
        pre: &Precompiled,
        func_idx: u32,
        stack: &mut Vec<u64>,
        locals: &mut Vec<u64>,
    ) -> Result<(), Trap> {
        if self.depth >= self.max_depth {
            return Err(Trap::CallStackExhausted);
        }
        self.depth += 1;
        let result = self.call_inner_tree(pre, func_idx, stack, locals);
        self.depth -= 1;
        result
    }

    fn call_inner_tree(
        &mut self,
        pre: &Precompiled,
        func_idx: u32,
        stack: &mut Vec<u64>,
        locals: &mut Vec<u64>,
    ) -> Result<(), Trap> {
        let func = &pre.funcs[func_idx as usize];
        if func.is_host {
            return self.call_host(func_idx, func, stack);
        }
        let imported = pre.module.imported_func_count();
        let body = &pre.module.funcs[(func_idx - imported) as usize].body;
        let (locals_base, frame_base) = Self::enter(func, stack, locals);
        // On Next/Return/Br(function level) alike, the results sit on
        // top; slide them down over any abandoned operands.
        self.exec_seq_tree(pre, body, stack, locals, locals_base)?;
        Self::collapse(stack, frame_base, func.ty.results.len());
        locals.truncate(locals_base);
        Ok(())
    }

    fn exec_seq_tree(
        &mut self,
        pre: &Precompiled,
        body: &[Instr],
        stack: &mut Vec<u64>,
        locals: &mut Vec<u64>,
        lbase: usize,
    ) -> Result<Flow, Trap> {
        for instr in body {
            match self.exec_instr_tree(pre, instr, stack, locals, lbase)? {
                Flow::Next => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Next)
    }

    fn exec_instr_tree(
        &mut self,
        pre: &Precompiled,
        instr: &Instr,
        stack: &mut Vec<u64>,
        locals: &mut Vec<u64>,
        lbase: usize,
    ) -> Result<Flow, Trap> {
        match instr {
            Instr::Block(bt, inner) => {
                let height = stack.len();
                let arity = bt.arity();
                match self.exec_seq_tree(pre, inner, stack, locals, lbase)? {
                    Flow::Next => {}
                    Flow::Br(0) => Self::collapse(stack, height, arity),
                    Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                }
            }
            Instr::Loop(_bt, inner) => {
                let height = stack.len();
                loop {
                    match self.exec_seq_tree(pre, inner, stack, locals, lbase)? {
                        Flow::Next => break,
                        Flow::Br(0) => {
                            // Loop labels have no parameters in this
                            // subset: restart with a clean frame.
                            stack.truncate(height);
                        }
                        Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
            }
            Instr::If(bt, then_body, else_body) => {
                self.charge(ChargeClass::Branch);
                let cond = get_i32(stack.pop().expect("validated"));
                let height = stack.len();
                let arity = bt.arity();
                let body = if cond != 0 { then_body } else { else_body };
                match self.exec_seq_tree(pre, body, stack, locals, lbase)? {
                    Flow::Next => {}
                    Flow::Br(0) => Self::collapse(stack, height, arity),
                    Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                }
            }
            Instr::Br(depth) => {
                self.charge(ChargeClass::Branch);
                return Ok(Flow::Br(*depth));
            }
            Instr::BrIf(depth) => {
                self.charge(ChargeClass::Branch);
                let cond = get_i32(stack.pop().expect("validated"));
                if cond != 0 {
                    return Ok(Flow::Br(*depth));
                }
            }
            Instr::BrTable(targets, default) => {
                self.charge(ChargeClass::Branch);
                let i = get_i32(stack.pop().expect("validated")) as usize;
                let target = targets.get(i).copied().unwrap_or(*default);
                return Ok(Flow::Br(target));
            }
            Instr::Return => {
                self.charge(ChargeClass::Branch);
                return Ok(Flow::Return);
            }
            Instr::Call(f) => {
                self.charge(ChargeClass::Call);
                // Arguments are already on the shared stack; the callee
                // consumes them and leaves its results in place.
                self.call_frame_tree(pre, *f, stack, locals)?;
            }
            Instr::CallIndirect(type_idx) => {
                self.charge(ChargeClass::CallIndirect);
                let table_idx = get_i32(stack.pop().expect("validated")) as u32;
                let func_idx = self
                    .inst
                    .table
                    .get(table_idx as usize)
                    .copied()
                    .flatten()
                    .ok_or(Trap::UndefinedElement)?;
                if pre.types[*type_idx as usize] != pre.funcs[func_idx as usize].ty {
                    return Err(Trap::IndirectCallTypeMismatch);
                }
                self.call_frame_tree(pre, func_idx, stack, locals)?;
            }
            other => {
                self.exec_op(other, stack, locals, lbase)?;
            }
        }
        Ok(Flow::Next)
    }
}

fn size_value(pages: u64, memory64: bool) -> u64 {
    if memory64 {
        slot_i64(pages as i64)
    } else {
        slot_i32(pages as i32)
    }
}
