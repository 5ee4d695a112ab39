//! End-to-end: build IR, run the pass pipeline, lower to wasm, validate,
//! and execute in the engine.

use cage_engine::{ExecConfig, Imports, Store, Value, Variant};
use cage_ir::passes::{run_pipeline, HardenConfig};
use cage_ir::{
    lower, BinOp, Callee, Expr, FunctionBuilder, IrModule, IrType, LowerOptions, MemTy, Operand,
    PtrWidth, Stmt, UnOp,
};

fn run_export(
    ir: &IrModule,
    opts: &LowerOptions,
    config: ExecConfig,
    name: &str,
    args: &[Value],
) -> Result<Vec<Value>, cage_engine::Trap> {
    let lowered = lower(ir, opts).expect("lowering");
    cage_wasm::validate(&lowered.module).expect("hardened module validates");
    let mut store = Store::new(config);
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    store.invoke(h, name, args)
}

/// sum(n) = 0 + 1 + ... + n-1 via a while loop with a stack array.
fn sum_array_module() -> IrModule {
    let mut b = FunctionBuilder::new("sum", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let arr = b.alloca(8 * 16, "arr");
    let base = b.alloca_addr(arr);
    let i = b.copy(IrType::I64, Operand::ConstI64(0));
    // while (i < n) { arr[i] = i; i += 1 }
    b.push_block();
    let slot = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base,
            index: Operand::Value(i),
            scale: 8,
            offset: 0,
        },
    );
    b.store(MemTy::I64, slot, 0, Operand::Value(i));
    let next = b.binop(
        BinOp::Add,
        IrType::I64,
        Operand::Value(i),
        Operand::ConstI64(1),
    );
    b.reassign(i, Expr::Use(next));
    let body = b.pop_block();
    b.push_block();
    let cond = b.binop(BinOp::LtS, IrType::I64, Operand::Value(i), b.param(0));
    let header = b.pop_block();
    b.stmt(Stmt::While { header, cond, body });
    // acc loop
    let acc = b.copy(IrType::I64, Operand::ConstI64(0));
    let j = b.copy(IrType::I64, Operand::ConstI64(0));
    b.push_block();
    let slot = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base,
            index: Operand::Value(j),
            scale: 8,
            offset: 0,
        },
    );
    let v = b.load(MemTy::I64, slot, 0);
    let sum = b.binop(BinOp::Add, IrType::I64, Operand::Value(acc), v);
    b.reassign(acc, Expr::Use(sum));
    let nj = b.binop(
        BinOp::Add,
        IrType::I64,
        Operand::Value(j),
        Operand::ConstI64(1),
    );
    b.reassign(j, Expr::Use(nj));
    let body = b.pop_block();
    b.push_block();
    let cond = b.binop(BinOp::LtS, IrType::I64, Operand::Value(j), b.param(0));
    let header = b.pop_block();
    b.stmt(Stmt::While { header, cond, body });
    b.stmt(Stmt::Return(Some(Operand::Value(acc))));

    let mut m = IrModule::new();
    m.functions.push(b.finish());
    m
}

#[test]
fn loops_and_stack_arrays_wasm64() {
    let mut ir = sum_array_module();
    run_pipeline(&mut ir, HardenConfig::none());
    let out = run_export(
        &ir,
        &LowerOptions::default(),
        ExecConfig::default(),
        "sum",
        &[Value::I64(10)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(45)]);
}

#[test]
fn loops_and_stack_arrays_wasm32() {
    let mut ir = sum_array_module();
    run_pipeline(&mut ir, HardenConfig::none());
    let opts = LowerOptions {
        ptr_width: PtrWidth::W32,
        ..LowerOptions::default()
    };
    let out = run_export(&ir, &opts, ExecConfig::default(), "sum", &[Value::I64(10)]).unwrap();
    assert_eq!(out, vec![Value::I64(45)]);
}

#[test]
fn hardened_module_still_computes_correctly() {
    // The dynamic indices make the array "unsafe"; with the sanitizer on
    // and MTE active, the program must still compute the same result.
    let mut ir = sum_array_module();
    run_pipeline(&mut ir, HardenConfig::full());
    // The sanitizer instrumented the alloca.
    assert!(ir.functions[0].allocas.iter().any(|a| a.instrument));
    let config = ExecConfig {
        variant: Variant::CageFull,
        ..ExecConfig::default()
    };
    let out = run_export(
        &ir,
        &LowerOptions::default(),
        config,
        "sum",
        &[Value::I64(10)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(45)]);
}

#[test]
fn hardened_module_traps_on_stack_overflow() {
    // write(buf[idx]) with idx past the 2-element array: under the
    // sanitizer + MTE this must trap as a memory-safety violation.
    let mut b = FunctionBuilder::new("poke", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let arr = b.alloca(16, "buf");
    let base = b.alloca_addr(arr);
    let slot = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base,
            index: b.param(0),
            scale: 8,
            offset: 0,
        },
    );
    b.store(MemTy::I64, slot, 0, Operand::ConstI64(0x41));
    b.stmt(Stmt::Return(Some(Operand::ConstI64(0))));
    let mut ir = IrModule::new();
    ir.functions.push(b.finish());
    run_pipeline(
        &mut ir,
        HardenConfig {
            stack_safety: true,
            ptr_auth: false,
        },
    );

    let config = ExecConfig {
        variant: Variant::CageMemSafety,
        ..ExecConfig::default()
    };
    // In-bounds write is fine.
    let lowered = lower(&ir, &LowerOptions::default()).unwrap();
    cage_wasm::validate(&lowered.module).unwrap();
    let mut store = Store::new(config);
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    assert!(store.invoke(h, "poke", &[Value::I64(1)]).is_ok());
    // Out-of-bounds write (index 4 = 32 bytes past a 16-byte slot) traps.
    let err = store.invoke(h, "poke", &[Value::I64(4)]).unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
    // Without the sanitizer, the same overflow silently corrupts the
    // neighbouring stack slot (the paper's motivation).
    let mut ir_plain = IrModule::new();
    let mut b = FunctionBuilder::new("poke", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let arr = b.alloca(16, "buf");
    let base = b.alloca_addr(arr);
    let slot = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base,
            index: b.param(0),
            scale: 8,
            offset: 0,
        },
    );
    b.store(MemTy::I64, slot, 0, Operand::ConstI64(0x41));
    b.stmt(Stmt::Return(Some(Operand::ConstI64(0))));
    ir_plain.functions.push(b.finish());
    let lowered = lower(&ir_plain, &LowerOptions::default()).unwrap();
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    assert!(
        store.invoke(h, "poke", &[Value::I64(4)]).is_ok(),
        "baseline misses it"
    );
}

#[test]
fn function_pointers_with_auth_dispatch_correctly() {
    // double(x) and square(x) through a function pointer, hardened.
    let mut m = IrModule::new();

    let mut fb = FunctionBuilder::new("double", &[IrType::I64], Some(IrType::I64));
    let d = fb.binop(BinOp::Add, IrType::I64, fb.param(0), fb.param(0));
    fb.stmt(Stmt::Return(Some(d)));
    m.functions.push(fb.finish());

    let mut fb = FunctionBuilder::new("square", &[IrType::I64], Some(IrType::I64));
    let s = fb.binop(BinOp::Mul, IrType::I64, fb.param(0), fb.param(0));
    fb.stmt(Stmt::Return(Some(s)));
    m.functions.push(fb.finish());

    let mut fb = FunctionBuilder::new("dispatch", &[IrType::I32, IrType::I64], Some(IrType::I64));
    fb.set_exported(true);
    let fp = fb.fresh(IrType::Ptr);
    fb.push_block();
    fb.reassign(fp, Expr::FuncAddr(cage_ir::FuncId(0)));
    let then = fb.pop_block();
    fb.push_block();
    fb.reassign(fp, Expr::FuncAddr(cage_ir::FuncId(1)));
    let els = fb.pop_block();
    fb.stmt(Stmt::If {
        cond: fb.param(0),
        then,
        els,
    });
    let r = fb.assign(
        IrType::I64,
        Expr::CallIndirect {
            target: Operand::Value(fp),
            params: vec![IrType::I64],
            ret: Some(IrType::I64),
            args: vec![fb.param(1)],
        },
    );
    fb.stmt(Stmt::Return(Some(r)));
    m.functions.push(fb.finish());

    run_pipeline(&mut m, HardenConfig::full());
    let config = ExecConfig {
        variant: Variant::CagePtrAuth,
        ..ExecConfig::default()
    };
    let lowered = lower(&m, &LowerOptions::default()).unwrap();
    cage_wasm::validate(&lowered.module).unwrap();
    let mut store = Store::new(config);
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    assert_eq!(
        store
            .invoke(h, "dispatch", &[Value::I32(1), Value::I64(21)])
            .unwrap(),
        vec![Value::I64(42)]
    );
    assert_eq!(
        store
            .invoke(h, "dispatch", &[Value::I32(0), Value::I64(6)])
            .unwrap(),
        vec![Value::I64(36)]
    );
}

#[test]
fn forged_function_pointer_traps_under_auth() {
    // Call through a raw (unsigned) table index: with ptr-auth enabled the
    // authenticate step must trap.
    let mut m = IrModule::new();
    let mut fb = FunctionBuilder::new("noop", &[], None);
    fb.stmt(Stmt::Return(None));
    m.functions.push(fb.finish());

    let mut fb = FunctionBuilder::new("forge", &[IrType::I64], Some(IrType::I64));
    fb.set_exported(true);
    // A legitimate signed pointer exists (so the table is populated)…
    let legit = fb.assign(IrType::Ptr, Expr::FuncAddr(cage_ir::FuncId(0)));
    let fp = fb.fresh(IrType::Ptr);
    fb.push_block();
    fb.reassign(fp, Expr::Use(legit));
    let then = fb.pop_block();
    fb.push_block();
    // …but the attacker substitutes a raw, unsigned table index.
    fb.reassign(fp, Expr::Use(fb.param(0)));
    let els = fb.pop_block();
    let zero = fb.binop(BinOp::Eq, IrType::I64, fb.param(0), Operand::ConstI64(0));
    fb.stmt(Stmt::If {
        cond: zero,
        then,
        els,
    });
    fb.stmt(Stmt::Perform(Expr::CallIndirect {
        target: Operand::Value(fp),
        params: vec![],
        ret: None,
        args: vec![],
    }));
    fb.stmt(Stmt::Return(Some(Operand::ConstI64(0))));
    m.functions.push(fb.finish());

    run_pipeline(&mut m, HardenConfig::full());
    let config = ExecConfig {
        variant: Variant::CagePtrAuth,
        ..ExecConfig::default()
    };
    let lowered = lower(&m, &LowerOptions::default()).unwrap();
    let mut store = Store::new(config);
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    let err = store.invoke(h, "forge", &[Value::I64(1)]).unwrap_err();
    assert!(matches!(err, cage_engine::Trap::PointerAuth(_)), "{err}");
}

#[test]
fn address_of_an_undefined_function_is_malformed() {
    // Hand-built IR can name a function the module does not have; the
    // table slots are indexed by `FuncId`, so this must be refused, not
    // indexed.
    let mut m = IrModule::new();
    let mut fb = FunctionBuilder::new("f", &[], Some(IrType::Ptr));
    let fp = fb.assign(IrType::Ptr, Expr::FuncAddr(cage_ir::FuncId(7)));
    fb.stmt(Stmt::Return(Some(fp)));
    m.functions.push(fb.finish());
    let err = lower(&m, &LowerOptions::default()).unwrap_err();
    assert!(matches!(err, cage_ir::LowerError::Malformed(_)), "{err}");
}

#[test]
fn segments_rejected_on_wasm32() {
    let mut ir = sum_array_module();
    run_pipeline(
        &mut ir,
        HardenConfig {
            stack_safety: true,
            ptr_auth: false,
        },
    );
    let opts = LowerOptions {
        ptr_width: PtrWidth::W32,
        ..LowerOptions::default()
    };
    assert!(matches!(
        lower(&ir, &opts),
        Err(cage_ir::LowerError::CageRequiresWasm64(_))
    ));
}

#[test]
fn globals_are_laid_out_and_initialised() {
    let mut m = IrModule::new();
    let g = m.add_global("msg", vec![7, 0, 0, 0, 0, 0, 0, 0], 8);
    let mut fb = FunctionBuilder::new("read_g", &[], Some(IrType::I64));
    fb.set_exported(true);
    let addr = fb.assign(IrType::Ptr, Expr::GlobalAddr(g));
    let v = fb.load(MemTy::I64, addr, 0);
    fb.stmt(Stmt::Return(Some(v)));
    m.functions.push(fb.finish());

    let lowered = lower(&m, &LowerOptions::default()).unwrap();
    let heap_base = checked_heap_base(&m, &lowered, PtrWidth::W64);
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    assert_eq!(store.invoke(h, "read_g", &[]).unwrap(), vec![Value::I64(7)]);
    assert_eq!(
        store.global(h, "__heap_base"),
        Some(Value::I64(heap_base as i64))
    );
}

/// The `__heap_base` the libc reads, checked: an immutable global of the
/// module's own (lowered modules import none) whose validated initialiser
/// is a constant of the pointer type, 16-aligned, at or above the end of
/// every IR global and inside the declared memory.
fn checked_heap_base(ir: &IrModule, lowered: &cage_ir::lower::Lowered, pw: PtrWidth) -> u64 {
    use cage_wasm::{ExportKind, ImportKind, Instr};
    let m = &lowered.module;
    cage_wasm::validate(m).expect("validates");
    assert!(!m
        .imports
        .iter()
        .any(|i| matches!(i.kind, ImportKind::Global(_))));
    let Some(ExportKind::Global(idx)) = m.export("__heap_base").map(|e| e.kind) else {
        panic!("no __heap_base global export");
    };
    let g = &m.globals[idx as usize];
    let base = match (pw, &g.init, g.ty.mutable) {
        (PtrWidth::W32, Instr::I32Const(v), false) => u64::from(*v as u32),
        (PtrWidth::W64, Instr::I64Const(v), false) => *v as u64,
        other => panic!("__heap_base is {other:?}"),
    };
    let data_end = ir.globals.iter().zip(&lowered.global_addrs);
    let data_end = data_end.map(|(g, a)| a + g.bytes.len() as u64).max();
    let memory = m.memory_type().expect("a memory").limits.min * cage_wasm::types::PAGE_SIZE;
    assert!(
        base % 16 == 0 && base >= data_end.unwrap_or(0) && base <= memory,
        "{pw:?}: {base:#x}, data to {data_end:?}, memory {memory:#x}"
    );
    base
}

#[test]
fn every_lowered_module_exports_its_heap_base_under_both_pointer_widths() {
    // Empty, globals ending off a granule boundary, data filling memory.
    let mut odd = IrModule::new();
    for (name, len, align) in [("a", 3, 1), ("b", 8, 8), ("c", 5, 4)] {
        odd.add_global(name, vec![1; len], align);
    }
    let mut full = IrModule::new();
    full.add_global("fill", vec![0; 65_536 - 16 - 4096], 16);
    let one_page = LowerOptions {
        memory_pages: 1,
        stack_size: 4096,
        ..LowerOptions::default()
    };
    for ptr_width in [PtrWidth::W32, PtrWidth::W64] {
        for (ir, opts) in [
            (IrModule::new(), LowerOptions::default()),
            (odd.clone(), LowerOptions::default()),
            (sum_array_module(), LowerOptions::default()),
            (full.clone(), one_page),
        ] {
            let opts = LowerOptions { ptr_width, ..opts };
            let base = checked_heap_base(&ir, &lower(&ir, &opts).expect("lowers"), ptr_width);
            assert!(
                base > opts.stack_size,
                "{ptr_width:?}: {base:#x} above the stack"
            );
        }
    }
}

#[test]
fn break_and_continue_lower_correctly() {
    // count even numbers below n, skipping odds with continue and leaving
    // at n via break.
    let mut b = FunctionBuilder::new("evens", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let i = b.copy(IrType::I64, Operand::ConstI64(0));
    let count = b.copy(IrType::I64, Operand::ConstI64(0));
    b.push_block();
    {
        // if i >= n break
        let done = b.binop(BinOp::GeS, IrType::I64, Operand::Value(i), b.param(0));
        b.push_block();
        b.stmt(Stmt::Break);
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: done,
            then,
            els: vec![],
        });
        // i += 1 (pre-increment: loop variable advances before the skip)
        let ni = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::Value(i),
            Operand::ConstI64(1),
        );
        b.reassign(i, Expr::Use(ni));
        // if (i % 2) continue
        let odd = b.binop(
            BinOp::RemS,
            IrType::I64,
            Operand::Value(i),
            Operand::ConstI64(2),
        );
        let is_odd = b.binop(BinOp::Ne, IrType::I64, odd, Operand::ConstI64(0));
        b.push_block();
        b.stmt(Stmt::Continue);
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: is_odd,
            then,
            els: vec![],
        });
        let nc = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::Value(count),
            Operand::ConstI64(1),
        );
        b.reassign(count, Expr::Use(nc));
    }
    let body = b.pop_block();
    b.stmt(Stmt::While {
        header: vec![],
        cond: Operand::ConstI32(1),
        body,
    });
    b.stmt(Stmt::Return(Some(Operand::Value(count))));
    let mut ir = IrModule::new();
    ir.functions.push(b.finish());

    let out = run_export(
        &ir,
        &LowerOptions::default(),
        ExecConfig::default(),
        "evens",
        &[Value::I64(10)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(5)]);
}

#[test]
fn float_math_and_casts() {
    // f(x) = sqrt(|x|) as i64
    let mut b = FunctionBuilder::new("f", &[IrType::F64], Some(IrType::I64));
    b.set_exported(true);
    let a = b.unop(UnOp::Fabs, IrType::F64, b.param(0));
    let s = b.unop(UnOp::Sqrt, IrType::F64, a);
    let i = b.assign(
        IrType::I64,
        Expr::Cast {
            kind: cage_ir::CastKind::F64ToI64S,
            operand: s,
        },
    );
    b.stmt(Stmt::Return(Some(i)));
    let mut ir = IrModule::new();
    ir.functions.push(b.finish());
    let out = run_export(
        &ir,
        &LowerOptions::default(),
        ExecConfig::default(),
        "f",
        &[Value::F64(-144.0)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(12)]);
}

#[test]
fn extern_calls_route_to_host_functions() {
    let mut m = IrModule::new();
    let ext = m.add_extern(cage_ir::ExternFunc {
        module: "env".into(),
        name: "triple".into(),
        params: vec![IrType::I64],
        ret: Some(IrType::I64),
    });
    let mut fb = FunctionBuilder::new("go", &[IrType::I64], Some(IrType::I64));
    fb.set_exported(true);
    let r = fb.assign(
        IrType::I64,
        Expr::Call {
            callee: Callee::Extern(ext),
            args: vec![fb.param(0)],
        },
    );
    fb.stmt(Stmt::Return(Some(r)));
    m.functions.push(fb.finish());

    let lowered = lower(&m, &LowerOptions::default()).unwrap();
    let mut imports = Imports::new();
    imports.define(
        "env",
        "triple",
        cage_engine::host::HostFunc::new(
            &[cage_wasm::ValType::I64],
            &[cage_wasm::ValType::I64],
            |_, args, out| {
                out[0] = Value::I64(args[0].as_i64() * 3);
                Ok(())
            },
        ),
    );
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&lowered.module, &imports).unwrap();
    assert_eq!(
        store.invoke(h, "go", &[Value::I64(14)]).unwrap(),
        vec![Value::I64(42)]
    );
}

#[test]
fn mem2reg_runs_before_sanitizer_so_promoted_slots_stay_untagged() {
    // §6.1: "both sanitizer passes run after all LLVM optimizations. This
    // ensures that Cage does not block passes that might remove stack
    // allocations, such as mem2reg." A scalar slot whose address never
    // escapes is promoted first and therefore never instrumented.
    let mut b = FunctionBuilder::new("f", &[], Some(IrType::I64));
    let scalar = b.alloca(8, "x");
    let p = b.alloca_addr(scalar);
    b.store(MemTy::I64, p, 0, Operand::ConstI64(5));
    let v = b.load(MemTy::I64, p, 0);
    b.stmt(Stmt::Return(Some(v)));
    let mut ir = IrModule::new();
    ir.functions.push(b.finish());

    run_pipeline(
        &mut ir,
        HardenConfig {
            stack_safety: true,
            ptr_auth: false,
        },
    );
    let f = &ir.functions[0];
    assert_eq!(f.allocas[0].size, 0, "slot promoted away by mem2reg");
    assert!(!f.allocas[0].instrument, "promoted slot never instrumented");
    let mut segment_news = 0;
    cage_ir::instr::visit_stmts(&f.body, &mut |s| {
        if let cage_ir::Stmt::Assign {
            expr: Expr::SegmentNew { .. },
            ..
        } = s
        {
            segment_news += 1;
        }
    });
    assert_eq!(segment_news, 0, "no tagging code for promoted slots");
}

#[test]
fn tag_increment_discipline_gives_distinct_adjacent_tags() {
    // §4.2: subsequent instrumented stack slots increment the first slot's
    // random tag, so adjacent slots in a frame never collide. Observable:
    // writing one past slot A lands in slot B and always traps, for every
    // seed.
    let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let a = b.alloca(16, "a");
    let c = b.alloca(16, "c");
    // Escape both so Algorithm 1 instruments them.
    let pa = b.alloca_addr(a);
    let pc = b.alloca_addr(c);
    b.stmt(Stmt::Perform(Expr::Call {
        callee: cage_ir::Callee::Extern(0),
        args: vec![pa, pc],
    }));
    // Write at a[idx] (idx in bytes) through a GEP.
    let slot = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base: pa,
            index: b.param(0),
            scale: 1,
            offset: 0,
        },
    );
    b.store(MemTy::I8, slot, 0, Operand::ConstI32(7));
    b.stmt(Stmt::Return(Some(Operand::ConstI64(0))));
    let mut ir = IrModule::new();
    ir.add_extern(cage_ir::ExternFunc {
        module: "env".into(),
        name: "sink".into(),
        params: vec![IrType::Ptr, IrType::Ptr],
        ret: None,
    });
    ir.functions.push(b.finish());
    run_pipeline(
        &mut ir,
        HardenConfig {
            stack_safety: true,
            ptr_auth: false,
        },
    );
    let lowered = lower(&ir, &LowerOptions::default()).unwrap();

    for seed in 0..20u64 {
        let config = ExecConfig {
            variant: Variant::CageMemSafety,
            seed,
            ..ExecConfig::default()
        };
        let mut store = cage_engine::Store::new(config);
        let mut imports = Imports::new();
        imports.define(
            "env",
            "sink",
            cage_engine::host::HostFunc::new(
                &[cage_wasm::ValType::I64, cage_wasm::ValType::I64],
                &[],
                |_, _, _| Ok(()),
            ),
        );
        let h = store.instantiate(&lowered.module, &imports).unwrap();
        // In-bounds write is fine.
        store.invoke(h, "f", &[Value::I64(15)]).unwrap();
        // One past slot a — adjacent slot has tag+1, never equal: traps.
        let err = store.invoke(h, "f", &[Value::I64(16)]).unwrap_err();
        assert!(err.is_memory_safety_violation(), "seed {seed}: {err}");
    }
}

// ---- Prescan robustness: malformed IR errors instead of panicking ----

#[test]
fn break_outside_loop_is_an_error() {
    let mut b = FunctionBuilder::new("bad", &[], None);
    b.stmt(Stmt::Break);
    let mut m = IrModule::new();
    m.functions.push(b.finish());
    assert!(matches!(
        lower(&m, &LowerOptions::default()),
        Err(cage_ir::LowerError::Malformed("break outside loop"))
    ));
}

#[test]
fn continue_outside_loop_is_an_error() {
    let mut b = FunctionBuilder::new("bad", &[], None);
    b.stmt(Stmt::Continue);
    let mut m = IrModule::new();
    m.functions.push(b.finish());
    assert!(matches!(
        lower(&m, &LowerOptions::default()),
        Err(cage_ir::LowerError::Malformed("continue outside loop"))
    ));
}

#[test]
fn float_pointer_index_is_an_error() {
    let mut b = FunctionBuilder::new("bad", &[IrType::Ptr], Some(IrType::I64));
    let addr = b.assign(
        IrType::Ptr,
        Expr::Gep {
            base: b.param(0),
            index: Operand::ConstF64(1.5),
            scale: 8,
            offset: 0,
        },
    );
    let v = b.load(MemTy::I64, addr, 0);
    b.stmt(Stmt::Return(Some(v)));
    let mut m = IrModule::new();
    m.functions.push(b.finish());
    assert!(matches!(
        lower(&m, &LowerOptions::default()),
        Err(cage_ir::LowerError::Malformed(
            "float used as pointer index"
        ))
    ));
}

#[test]
fn integer_only_operator_on_f64_is_an_error() {
    let mut b = FunctionBuilder::new("bad", &[IrType::F64], Some(IrType::F64));
    let r = b.binop(BinOp::RemS, IrType::F64, b.param(0), Operand::ConstF64(2.0));
    b.stmt(Stmt::Return(Some(r)));
    let mut m = IrModule::new();
    m.functions.push(b.finish());
    assert!(matches!(
        lower(&m, &LowerOptions::default()),
        Err(cage_ir::LowerError::Malformed("operator undefined on f64"))
    ));
}

#[test]
fn nesting_beyond_limits_is_rejected_before_recursion() {
    // 100k nested ifs: plain `lower` would recurse over them, so the
    // limited entry point must reject the body in its iterative prescan.
    let mut b = FunctionBuilder::new("deep", &[], None);
    b.stmt(Stmt::Return(None));
    let mut f = b.finish();
    let mut body = std::mem::take(&mut f.body);
    for _ in 0..100_000 {
        body = vec![Stmt::If {
            cond: Operand::ConstI32(1),
            then: body,
            els: vec![],
        }];
    }
    f.body = body;
    let mut m = IrModule::new();
    m.functions.push(f);
    let limits = cage_wasm::CompileLimits::default();
    let err = cage_ir::lower_with_limits(&m, &LowerOptions::default(), &limits, &limits.fuel())
        .unwrap_err();
    assert!(
        matches!(err, cage_ir::LowerError::Limit(ref e) if e.what == "statement nesting depth")
    );
    // Dropping the 100k-deep tree would itself recurse through nested
    // Vec drops in some layouts; unravel it iteratively instead.
    let mut flat: Vec<Stmt> = Vec::new();
    let mut work = std::mem::take(&mut m.functions[0].body);
    while let Some(stmt) = work.pop() {
        match stmt {
            Stmt::If { then, els, .. } => {
                work.extend(then);
                work.extend(els);
            }
            other => flat.push(other),
        }
    }
    drop(flat);
}

#[test]
fn compile_fuel_exhaustion_is_reported() {
    let m = sum_array_module();
    let limits = cage_wasm::CompileLimits::default();
    let fuel = cage_wasm::CompileFuel::new(2);
    let err = cage_ir::lower_with_limits(&m, &LowerOptions::default(), &limits, &fuel).unwrap_err();
    assert!(matches!(err, cage_ir::LowerError::Limit(ref e) if e.what == "compile fuel"));
}
