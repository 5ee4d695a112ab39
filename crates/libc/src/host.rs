//! Host-function bindings: the `cage_libc` import module.

use std::cell::RefCell;

use cage_engine::host::{HostContext, HostFunc, HostState, Imports};
use cage_engine::{Trap, Value};
use cage_wasm::{ExportKind, ImportKind, Instr, Module, ValType};

use crate::alloc::{user_granules, Allocator};

/// Reads an integer argument as an unsigned pointer/size, accepting both
/// widths (wasm32 pointers arrive as `i32`). Instantiation rejects an
/// import that declares any other type, so the panic arm is unreachable
/// from a guest.
fn arg_u64(v: &Value) -> u64 {
    match v {
        Value::I32(x) => *x as u32 as u64,
        Value::I64(x) => *x as u64,
        other => panic!("integer argument expected, found {other:?}"),
    }
}

/// One instance's libc: its allocator and captured stdout. The store owns
/// it as the instance's [`HostState`]; the libc's host functions, which
/// every instance shares, reach it through the calling
/// [`HostContext`], and the embedder reads it back from the store.
///
/// The heap starts at the module's own `__heap_base`, as wasi-libc's
/// dlmalloc does: the initial value of that exported global when the
/// module defines it with an `i32.const` or `i64.const` initialiser, and
/// 0 otherwise ([`heap_base_of`]; `Linker::instantiate` reads it).
///
/// ## Example
///
/// ```
/// use cage_engine::{ExecConfig, Precompiled, Store};
/// use cage_libc::{Libc, Linker};
///
/// let pre = Precompiled::new(&cage_wasm::Module::default()).unwrap();
/// let mut store = Store::new(ExecConfig::default());
/// let h = Linker::with_libc().instantiate(&mut store, &pre).unwrap();
/// assert_eq!(store.host_state::<Libc>(h).unwrap().stdout(), "");
/// ```
#[derive(Debug)]
pub struct Libc {
    alloc: RefCell<Allocator>,
    stdout: RefCell<String>,
}

/// Where `module`'s heap starts: the initial value of its `__heap_base`
/// export, the symbol wasi-libc's dlmalloc finds its heap at. The export
/// must name a global the module defines itself (not an import) whose
/// initialiser is an `i32.const` (zero-extended) or an `i64.const`; for
/// any other module — no such export, an imported or float global, any
/// other initialiser — the heap starts at 0. The value is read once, so
/// a mutable global's later writes do not move the heap, and any value is
/// safe: a heap past the end of memory makes every `malloc` return 0.
#[must_use]
pub fn heap_base_of(module: &Module) -> u64 {
    let Some(ExportKind::Global(idx)) = module.export("__heap_base").map(|e| e.kind) else {
        return 0;
    };
    let imported = module
        .imports
        .iter()
        .filter(|i| matches!(i.kind, ImportKind::Global(_)))
        .count();
    let own = (idx as usize).checked_sub(imported);
    match own.and_then(|i| module.globals.get(i)).map(|g| &g.init) {
        Some(Instr::I32Const(v)) => u64::from(*v as u32),
        Some(Instr::I64Const(v)) => *v as u64,
        _ => 0,
    }
}

impl Libc {
    /// Creates the libc for a module whose heap starts at `heap_base`
    /// ([`heap_base_of`] the module).
    #[must_use]
    pub fn new(heap_base: u64) -> Self {
        Libc {
            alloc: RefCell::new(Allocator::new(heap_base)),
            stdout: RefCell::default(),
        }
    }

    /// Captured program output (`print_*`).
    #[must_use]
    pub fn stdout(&self) -> String {
        self.stdout.borrow().clone()
    }

    /// Allocator statistics.
    #[must_use]
    pub fn stats(&self) -> crate::alloc::AllocStats {
        self.alloc.borrow().stats()
    }

    /// Appends a line to the captured stdout.
    fn print(&self, line: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        let _ = writeln!(self.stdout.borrow_mut(), "{line}");
    }
}

impl HostState for Libc {
    /// Rewinds the libc to its freshly-created state: a fresh allocator
    /// over the same heap base and empty captured stdout.
    fn reset(&self) {
        let mut alloc = self.alloc.borrow_mut();
        *alloc = Allocator::new(alloc.heap_base());
        self.stdout.borrow_mut().clear();
    }
}

/// Charges an allocation of `bytes`: `eighths` of fixed work and, under a
/// memory-safety variant, one `stzg` per granule the allocator tags for
/// it (one for `malloc(0)`).
fn charge_alloc(ctx: &mut HostContext<'_>, eighths: u64, bytes: u64) {
    ctx.charge_eighths(eighths);
    if ctx.config.variant.provides_memory_safety() {
        ctx.charge_granules(user_granules(bytes));
    }
}

/// The calling instance's libc.
fn libc<'a>(ctx: &HostContext<'a>) -> Result<&'a Libc, Trap> {
    ctx.state::<Libc>()
        .ok_or_else(|| Trap::Host("libc function called by an instance without a libc".into()))
}

thread_local! {
    /// The libc's functions for wasm64 and for wasm32 modules, built on
    /// first use. They hold no state, so every instance on the thread
    /// shares them.
    static FUNCTIONS: [Imports; 2] = [functions(false), functions(true)];
}

/// Runs `f` with this thread's libc functions for a module whose pointers
/// are `i32` (`ptr32`) or `i64`.
pub(crate) fn with_functions<R>(ptr32: bool, f: impl FnOnce(&Imports) -> R) -> R {
    FUNCTIONS.with(|table| f(&table[usize::from(ptr32)]))
}

/// Every libc function, typed for `ptr32` or wasm64 pointers.
fn functions(ptr32: bool) -> Imports {
    use ValType::{F64, I64};
    let mut imports = Imports::new();
    let ptr_ty = if ptr32 { ValType::I32 } else { I64 };
    // Writes a pointer result in the module's width.
    let ret_ptr = move |out: &mut [Value], p: u64| -> Result<(), Trap> {
        out[0] = if ptr32 {
            Value::I32(p as u32 as i32)
        } else {
            Value::from(p)
        };
        Ok(())
    };

    // malloc(size) -> ptr
    imports.define(
        "cage_libc",
        "malloc",
        HostFunc::new(&[I64], &[ptr_ty], move |ctx, args, out| {
            let size = arg_u64(&args[0]);
            charge_alloc(ctx, 640, size);
            let libc = libc(ctx)?;
            let mem = ctx.memory()?;
            ret_ptr(out, libc.alloc.borrow_mut().malloc(mem, size)?)
        }),
    );

    // calloc(n, size) -> zeroed ptr
    imports.define(
        "cage_libc",
        "calloc",
        HostFunc::new(&[I64, I64], &[ptr_ty], move |ctx, args, out| {
            let total = arg_u64(&args[0]).saturating_mul(arg_u64(&args[1]));
            charge_alloc(ctx, 720, total);
            let libc = libc(ctx)?;
            let mem = ctx.memory()?;
            let p = libc.alloc.borrow_mut().malloc(mem, total)?;
            if p != 0 {
                // segment.new zeroes under MTE; zero explicitly for the
                // baseline path too.
                mem.fill(p, 0, total)?;
            }
            ret_ptr(out, p)
        }),
    );

    // realloc(ptr, size) -> ptr
    imports.define(
        "cage_libc",
        "realloc",
        HostFunc::new(&[ptr_ty, I64], &[ptr_ty], move |ctx, args, out| {
            let (ptr, size) = (arg_u64(&args[0]), arg_u64(&args[1]));
            charge_alloc(ctx, 960, size);
            let libc = libc(ctx)?;
            let mem = ctx.memory()?;
            ret_ptr(out, libc.alloc.borrow_mut().realloc(mem, ptr, size)?)
        }),
    );

    // free(ptr)
    imports.define(
        "cage_libc",
        "free",
        HostFunc::new(&[ptr_ty], &[], move |ctx, args, _| {
            let ptr = arg_u64(&args[0]);
            ctx.charge_eighths(480);
            let libc = libc(ctx)?;
            let mem = ctx.memory()?;
            libc.alloc.borrow_mut().free(mem, ptr)?;
            Ok(())
        }),
    );

    // strcpy(dst, src) -> dst: byte-by-byte through checked accesses,
    // so overflowing the destination segment faults mid-copy exactly
    // like hardware MTE (the heartbleed/CVE experiments rely on this).
    imports.define(
        "cage_libc",
        "strcpy",
        HostFunc::new(&[ptr_ty, ptr_ty], &[ptr_ty], move |ctx, args, out| {
            let (dst, src) = (arg_u64(&args[0]), arg_u64(&args[1]));
            let mem = ctx.memory()?;
            let mut i = 0u64;
            loop {
                let byte = mem.read_scalar(src, i, 1)?;
                mem.write_scalar(dst, i, 1, byte)?;
                if byte == 0 {
                    break;
                }
                i += 1;
            }
            ctx.charge_eighths(32 * i);
            ret_ptr(out, dst)
        }),
    );

    // strlen(s) -> len
    imports.define(
        "cage_libc",
        "strlen",
        HostFunc::new(&[ptr_ty], &[I64], move |ctx, args, out| {
            let s = arg_u64(&args[0]);
            let mem = ctx.memory()?;
            let mut n = 0u64;
            while mem.read_scalar(s, n, 1)? != 0 {
                n += 1;
            }
            ctx.charge_eighths(16 * n);
            out[0] = Value::from(n);
            Ok(())
        }),
    );

    // memset(p, value, len) -> p
    imports.define(
        "cage_libc",
        "memset",
        HostFunc::new(
            &[ptr_ty, ValType::I32, I64],
            &[ptr_ty],
            move |ctx, args, out| {
                let (p, v, len) = (arg_u64(&args[0]), args[1].as_i32() as u8, arg_u64(&args[2]));
                ctx.charge_eighths(len.saturating_add(32));
                ctx.memory()?.fill(p, v, len)?;
                ret_ptr(out, p)
            },
        ),
    );

    // memcpy(dst, src, len) -> dst
    imports.define(
        "cage_libc",
        "memcpy",
        HostFunc::new(&[ptr_ty, ptr_ty, I64], &[ptr_ty], move |ctx, args, out| {
            let (dst, src, len) = (arg_u64(&args[0]), arg_u64(&args[1]), arg_u64(&args[2]));
            ctx.charge_eighths(len.saturating_add(32));
            ctx.memory()?.copy(dst, src, len)?;
            ret_ptr(out, dst)
        }),
    );

    // print_i64(v)
    imports.define(
        "cage_libc",
        "print_i64",
        HostFunc::new(&[I64], &[], |ctx, args, _| {
            libc(ctx)?.print(format_args!("{}", args[0].as_i64()));
            Ok(())
        }),
    );

    // print_f64(v)
    imports.define(
        "cage_libc",
        "print_f64",
        HostFunc::new(&[F64], &[], |ctx, args, _| {
            libc(ctx)?.print(format_args!("{:.6}", args[0].as_f64()));
            Ok(())
        }),
    );

    // print_str(p): reads the NUL-terminated guest string.
    imports.define(
        "cage_libc",
        "print_str",
        HostFunc::new(&[ptr_ty], &[], |ctx, args, _| {
            let p = arg_u64(&args[0]);
            let libc = libc(ctx)?;
            let mem = ctx.memory()?;
            let mut bytes = Vec::new();
            let mut i = 0u64;
            loop {
                let b = mem.read_scalar(p, i, 1)? as u8;
                if b == 0 {
                    break;
                }
                bytes.push(b);
                i += 1;
                if i > 1 << 20 {
                    return Err(Trap::Host("unterminated string".into()));
                }
            }
            libc.print(format_args!("{}", String::from_utf8_lossy(&bytes)));
            Ok(())
        }),
    );
    imports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linker;
    use cage_engine::{
        ChargeCounts, ExecConfig, InstanceHandle, LinearMemory, Precompiled, Store, TagScheme,
        Variant,
    };
    use cage_ir::passes::run_pipeline;
    use cage_ir::{lower, LowerOptions};
    use cage_mte::{AccessKind, Tag, TagCheckFault};

    /// A store and the libc-linked instance a test ran.
    struct Ran(Store, InstanceHandle);

    impl Ran {
        fn libc(&self) -> &Libc {
            self.0.host_state::<Libc>(self.1).unwrap()
        }
    }

    /// Compiles `source` for `variant`, links libc and invokes `entry`.
    fn run_c(
        source: &str,
        variant: Variant,
        entry: &str,
        args: &[Value],
    ) -> (Result<Vec<Value>, Trap>, Ran) {
        let mut ir = cage_cc::compile(source).expect("compiles");
        run_pipeline(&mut ir, variant.harden_config());
        let lowered = lower(&ir, &LowerOptions::default()).expect("lowers");
        let pre = Precompiled::new(&lowered.module).unwrap();
        let config = ExecConfig {
            variant,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let h = Linker::with_libc().instantiate(&mut store, &pre).unwrap();
        (store.invoke(h, entry, args), Ran(store, h))
    }

    #[test]
    fn malloc_write_read_free_roundtrip() {
        let src = r#"
            long run() {
                long* p = (long*)malloc(64);
                p[0] = 41;
                p[1] = 1;
                long v = p[0] + p[1];
                free((char*)p);
                return v;
            }
        "#;
        let (out, _) = run_c(src, Variant::CageMemSafety, "run", &[]);
        assert_eq!(out.unwrap(), vec![Value::I64(42)]);
    }

    #[test]
    fn heap_overflow_from_c_is_caught() {
        // CVE-2023-4863-style: writes past a heap buffer.
        let src = r#"
            long run(long n) {
                char* buf = malloc(32);
                for (long i = 0; i < n; i++) {
                    buf[i] = 65;
                }
                long v = buf[0];
                free(buf);
                return v;
            }
        "#;
        let (ok, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(32)]);
        assert_eq!(ok.unwrap(), vec![Value::I64(65)]);
        let (err, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(33)]);
        assert!(err.unwrap_err().is_memory_safety_violation());
        // Baseline: silent.
        let (base, _) = run_c(src, Variant::BaselineWasm64, "run", &[Value::I64(33)]);
        assert!(base.is_ok());
    }

    #[test]
    fn use_after_free_from_c_is_caught() {
        let src = r#"
            long run(long uaf) {
                long* p = (long*)malloc(16);
                p[0] = 7;
                long v = p[0];
                free((char*)p);
                if (uaf) v = p[0];
                return v;
            }
        "#;
        let (ok, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(0)]);
        assert_eq!(ok.unwrap(), vec![Value::I64(7)]);
        let (err, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(1)]);
        assert!(err.unwrap_err().is_memory_safety_violation());
    }

    #[test]
    fn double_free_from_c_is_caught() {
        let src = r#"
            long run(long dbl) {
                char* p = malloc(16);
                free(p);
                if (dbl) free(p);
                return 0;
            }
        "#;
        let (ok, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(0)]);
        assert!(ok.is_ok());
        let (err, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(1)]);
        assert!(err.unwrap_err().is_memory_safety_violation());
    }

    #[test]
    fn free_and_realloc_of_wild_pointers_from_c_never_panic_the_host() {
        // `free((char*)8)` puts the metadata slot below address 0; the
        // second pointer puts it past the end of guest memory. Both used
        // to be an out-of-range slice index inside the host function.
        let src = r#"
            long run(long p) {
                free((char*)p);
                return 1;
            }
            long again(long p) {
                char* q = realloc((char*)p, 32);
                return q != 0;
            }
        "#;
        for p in [8, 1 << 40] {
            for entry in ["run", "again"] {
                let (hardened, _) = run_c(src, Variant::CageMemSafety, entry, &[Value::I64(p)]);
                let err = hardened.unwrap_err();
                assert!(!matches!(err, Trap::HostPanic(_)), "{entry}({p:#x}): {err}");
            }
            let (base, _) = run_c(src, Variant::BaselineWasm64, "run", &[Value::I64(p)]);
            assert_eq!(base.unwrap(), vec![Value::I64(1)], "baseline ignores it");
        }
        let (base, _) = run_c(src, Variant::BaselineWasm64, "again", &[Value::I64(8)]);
        assert_eq!(base.unwrap(), vec![Value::I64(1)], "realloc allocates anew");
    }

    #[test]
    fn strcpy_overflow_is_caught_mid_copy() {
        // The Listing-1 / CVE-2018-14550 shape: strcpy into an undersized
        // heap buffer.
        let src = r#"
            long run(long overflow) {
                char* small = malloc(8);
                char* big = malloc(64);
                for (long i = 0; i < 30; i++) big[i] = 'A';
                big[30] = 0;
                if (overflow) {
                    strcpy(small, big);
                } else {
                    strcpy(big, "ok");
                }
                free(small);
                free(big);
                return 1;
            }
        "#;
        let (ok, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(0)]);
        assert!(ok.is_ok());
        let (err, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(1)]);
        assert!(err.unwrap_err().is_memory_safety_violation());
    }

    /// Calls one wasm64 libc function on a bare memory for the instance
    /// whose libc is `libc`, the way the interpreter's host boundary does:
    /// result slots zeroed to the declared types, then written.
    fn host_call(
        libc: Option<&Libc>,
        mem: &mut LinearMemory,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let config = ExecConfig {
            variant: Variant::CageMemSafety,
            ..ExecConfig::default()
        };
        let mut counts = ChargeCounts::default();
        let state = libc.map(|l| l as &dyn HostState);
        let mut ctx = HostContext::new(Some(mem), &config, state, &mut counts);
        let func = with_functions(false, |f| f.resolve("cage_libc", name)).unwrap();
        let mut out: Vec<Value> = func.ty.results.iter().map(|t| Value::zero(*t)).collect();
        (func.func)(&mut ctx, args, &mut out)?;
        Ok(out)
    }

    #[test]
    fn a_libc_function_called_without_a_libc_traps() {
        let mut mem = LinearMemory::new(1, None, true, TagScheme::None, 1);
        for name in [
            "malloc",
            "calloc",
            "realloc",
            "free",
            "print_i64",
            "print_str",
        ] {
            let args = match name {
                "calloc" | "realloc" => vec![Value::I64(1), Value::I64(8)],
                _ => vec![Value::I64(8)],
            };
            let err = host_call(None, &mut mem, name, &args).unwrap_err();
            assert!(matches!(err, Trap::Host(_)), "{name}: {err}");
        }
    }

    #[test]
    fn a_length_of_u64_max_traps_out_of_bounds_without_overflowing_a_charge() {
        // `len + 32` eighths would overflow a debug build's u64 before the
        // access trapped; the charge saturates instead.
        let libc = Libc::new(4096);
        let mut mem = LinearMemory::new(1, None, true, TagScheme::InternalOnly, 7);
        let p = host_call(Some(&libc), &mut mem, "malloc", &[Value::I64(32)]).unwrap()[0];
        for (name, args) in [
            ("memset", vec![p, Value::I32(1), Value::I64(-1)]),
            ("memcpy", vec![p, p, Value::I64(-1)]),
        ] {
            let err = host_call(Some(&libc), &mut mem, name, &args).unwrap_err();
            assert!(matches!(err, Trap::OutOfBounds { .. }), "{name}: {err}");
        }
        // `calloc(u64::MAX, 2)` asks for more than any memory holds: NULL,
        // not a panic while aligning the size.
        let args = [Value::I64(-1), Value::I64(2)];
        let q = host_call(Some(&libc), &mut mem, "calloc", &args).unwrap();
        assert_eq!(q, vec![Value::I64(0)]);
    }

    #[test]
    fn strcpy_overrunning_a_16_byte_segment_faults_at_byte_16() {
        // The byte loop's contract, as literals: one checked read and one
        // checked write per byte, and the fault is the write of the first
        // byte past the destination segment — into the next block's
        // untagged metadata slot — with everything before it copied.
        let libc = Libc::new(4096);
        let mut mem = LinearMemory::new(4, None, true, TagScheme::InternalOnly, 99);
        let malloc = |mem: &mut LinearMemory, size: i64| {
            host_call(Some(&libc), mem, "malloc", &[Value::I64(size)]).unwrap()[0].as_i64() as u64
        };
        let dst = malloc(&mut mem, 16);
        let src = malloc(&mut mem, 64);
        assert_eq!((dst, src), (0x0300_0000_0000_1010, 0x0400_0000_0000_1030));
        mem.write(src, 0, &[b'A'; 30]).unwrap();
        let checks = mem.tags().check_count();
        let args = [Value::from(dst), Value::from(src)];
        let err = host_call(Some(&libc), &mut mem, "strcpy", &args).unwrap_err();
        assert_eq!(
            err,
            Trap::TagCheck(TagCheckFault {
                addr: 0x1020,
                ptr_tag: Tag::new(3).unwrap(),
                mem_tag: Some(Tag::ZERO),
                access: AccessKind::Write,
            })
        );
        assert_eq!(mem.tags().check_count() - checks, 34, "17 reads, 17 writes");
        assert_eq!(mem.read(dst, 0, 16).unwrap(), vec![b'A'; 16]);
        // `strlen` and `print_str` walk the same way: one check per byte,
        // terminator included.
        let checks = mem.tags().check_count();
        let len = host_call(Some(&libc), &mut mem, "strlen", &[Value::from(src)]).unwrap();
        assert_eq!(len, vec![Value::I64(30)]);
        host_call(Some(&libc), &mut mem, "print_str", &[Value::from(src)]).unwrap();
        assert_eq!(mem.tags().check_count() - checks, 62);
        assert_eq!(libc.stdout(), format!("{}\n", "A".repeat(30)));
    }

    #[test]
    fn stdout_capture_via_print() {
        let src = r#"
            void run() {
                print_str("cage says");
                print_i64(40 + 2);
                print_f64(1.5);
            }
        "#;
        let (ok, ran) = run_c(src, Variant::BaselineWasm64, "run", &[]);
        ok.unwrap();
        assert_eq!(ran.libc().stdout(), "cage says\n42\n1.500000\n");
    }

    #[test]
    fn calloc_zeroes_and_realloc_preserves() {
        let src = r#"
            long run() {
                long* p = (long*)calloc(4, 8);
                long sum = p[0] + p[1] + p[2] + p[3];
                p[0] = 9;
                long* q = (long*)realloc((char*)p, 128);
                return sum * 100 + q[0];
            }
        "#;
        let (out, _) = run_c(src, Variant::CageMemSafety, "run", &[]);
        assert_eq!(out.unwrap(), vec![Value::I64(9)]);
    }

    #[test]
    fn allocator_stats_reflect_guest_behaviour() {
        let src = r#"
            void run() {
                char* a = malloc(100);
                char* b = malloc(50);
                free(a);
            }
        "#;
        let (ok, ran) = run_c(src, Variant::CageMemSafety, "run", &[]);
        ok.unwrap();
        let stats = ran.libc().stats();
        assert_eq!(stats.mallocs, 2);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.live, 1);
        assert_eq!(stats.live_bytes, 64, "50 rounded to granule");
    }

    #[test]
    fn memset_and_memcpy_route_through_checks() {
        let src = r#"
            long run(long oob) {
                char* a = malloc(32);
                char* b = malloc(32);
                memset(a, 7, 32);
                if (oob) {
                    memcpy(b, a, 48);
                } else {
                    memcpy(b, a, 32);
                }
                long v = b[31];
                free(a); free(b);
                return v;
            }
        "#;
        let (ok, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(0)]);
        assert_eq!(ok.unwrap(), vec![Value::I64(7)]);
        let (err, _) = run_c(src, Variant::CageMemSafety, "run", &[Value::I64(1)]);
        assert!(err.unwrap_err().is_memory_safety_violation());
    }
}
