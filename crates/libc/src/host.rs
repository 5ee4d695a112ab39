//! Host-function bindings: the `cage_libc` import module.

use std::cell::RefCell;
use std::rc::Rc;

use cage_engine::host::{HostFunc, Imports};
use cage_engine::{Trap, Value};
use cage_wasm::ValType;

use crate::alloc::Allocator;

/// Reads an integer argument as an unsigned pointer/size, accepting both
/// widths (wasm32 pointers arrive as `i32`).
fn arg_u64(v: &Value) -> u64 {
    match v {
        Value::I32(x) => *x as u32 as u64,
        Value::I64(x) => *x as u64,
        other => panic!("integer argument expected, found {other:?}"),
    }
}

/// Per-instance libc state: the allocator plus captured stdout.
#[derive(Debug)]
struct LibcState {
    alloc: Allocator,
    stdout: String,
}

/// The libc facade: create one per instance, register it into the
/// instance's imports, and read back output/statistics afterwards.
///
/// ## Example
///
/// ```
/// use cage_engine::Imports;
/// use cage_libc::Libc;
///
/// let libc = Libc::new(0x20000);
/// let mut imports = Imports::new();
/// libc.register(&mut imports);
/// assert!(imports.resolve("cage_libc", "malloc").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Libc {
    state: Rc<RefCell<LibcState>>,
    ptr32: bool,
}

impl Libc {
    /// Creates the libc for a module whose heap starts at `heap_base`
    /// (the `__heap_base` export of lowered modules).
    #[must_use]
    pub fn new(heap_base: u64) -> Self {
        Libc {
            state: Rc::new(RefCell::new(LibcState {
                alloc: Allocator::new(heap_base),
                stdout: String::new(),
            })),
            ptr32: false,
        }
    }

    /// Creates a libc for a wasm32 module (pointers are `i32`).
    #[must_use]
    pub fn new_wasm32(heap_base: u64) -> Self {
        let mut libc = Libc::new(heap_base);
        libc.ptr32 = true;
        libc
    }

    /// Captured program output (`print_*`).
    #[must_use]
    pub fn stdout(&self) -> String {
        self.state.borrow().stdout.clone()
    }

    /// Rewinds the libc to its freshly-created state: a fresh allocator
    /// over the same heap base and empty captured stdout. The host
    /// closures share this state behind an `Rc`, so the reset reaches
    /// every instance already linked against this libc — which is what
    /// lets a pooled instance slot recycle without re-linking.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        let heap_base = st.alloc.heap_base();
        st.alloc = Allocator::new(heap_base);
        st.stdout.clear();
    }

    /// Allocator statistics.
    #[must_use]
    pub fn stats(&self) -> crate::alloc::AllocStats {
        self.state.borrow().alloc.stats()
    }

    /// Registers every libc function into `imports`.
    pub fn register(&self, imports: &mut Imports) {
        use ValType::{F64, I64};
        let st = &self.state;
        let ptr32 = self.ptr32;
        let ptr_ty = if ptr32 { ValType::I32 } else { I64 };
        // Produces a pointer result in the module's width.
        let ptr_val = move |p: u64| -> Value {
            if ptr32 {
                Value::I32(p as u32 as i32)
            } else {
                Value::from(p)
            }
        };

        // malloc(size) -> ptr
        let s = st.clone();
        imports.define(
            "cage_libc",
            "malloc",
            HostFunc::new(&[I64], &[ptr_ty], move |ctx, args| {
                let size = arg_u64(&args[0]);
                ctx.charge(80.0 + Allocator::tagging_cycles(ctx.config, size));
                let mem = ctx.memory()?;
                let p = s.borrow_mut().alloc.malloc(mem, size)?;
                Ok(vec![ptr_val(p)])
            }),
        );

        // calloc(n, size) -> zeroed ptr
        let s = st.clone();
        imports.define(
            "cage_libc",
            "calloc",
            HostFunc::new(&[I64, I64], &[ptr_ty], move |ctx, args| {
                let total = arg_u64(&args[0]).saturating_mul(arg_u64(&args[1]));
                ctx.charge(90.0 + Allocator::tagging_cycles(ctx.config, total));
                let mem = ctx.memory()?;
                let p = s.borrow_mut().alloc.malloc(mem, total)?;
                if p != 0 {
                    // segment.new zeroes under MTE; zero explicitly for the
                    // baseline path too.
                    mem.fill(p, 0, total)?;
                }
                Ok(vec![ptr_val(p)])
            }),
        );

        // realloc(ptr, size) -> ptr
        let s = st.clone();
        imports.define(
            "cage_libc",
            "realloc",
            HostFunc::new(&[ptr_ty, I64], &[ptr_ty], move |ctx, args| {
                let (ptr, size) = (arg_u64(&args[0]), arg_u64(&args[1]));
                ctx.charge(120.0 + Allocator::tagging_cycles(ctx.config, size));
                let mem = ctx.memory()?;
                let p = s.borrow_mut().alloc.realloc(mem, ptr, size)?;
                Ok(vec![ptr_val(p)])
            }),
        );

        // free(ptr)
        let s = st.clone();
        imports.define(
            "cage_libc",
            "free",
            HostFunc::new(&[ptr_ty], &[], move |ctx, args| {
                let ptr = arg_u64(&args[0]);
                ctx.charge(60.0);
                let mem = ctx.memory()?;
                s.borrow_mut().alloc.free(mem, ptr)?;
                Ok(vec![])
            }),
        );

        // strcpy(dst, src) -> dst: byte-by-byte through checked accesses,
        // so overflowing the destination segment faults mid-copy exactly
        // like hardware MTE (the heartbleed/CVE experiments rely on this).
        imports.define(
            "cage_libc",
            "strcpy",
            HostFunc::new(&[ptr_ty, ptr_ty], &[ptr_ty], move |ctx, args| {
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
                ctx.charge(4.0 * i as f64);
                Ok(vec![ptr_val(dst)])
            }),
        );

        // strlen(s) -> len
        imports.define(
            "cage_libc",
            "strlen",
            HostFunc::new(&[ptr_ty], &[I64], move |ctx, args| {
                let s = arg_u64(&args[0]);
                let mem = ctx.memory()?;
                let mut n = 0u64;
                while mem.read_scalar(s, n, 1)? != 0 {
                    n += 1;
                }
                ctx.charge(2.0 * n as f64);
                Ok(vec![Value::from(n)])
            }),
        );

        // memset(p, value, len) -> p
        imports.define(
            "cage_libc",
            "memset",
            HostFunc::new(&[ptr_ty, ValType::I32, I64], &[ptr_ty], move |ctx, args| {
                let (p, v, len) = (arg_u64(&args[0]), args[1].as_i32() as u8, arg_u64(&args[2]));
                ctx.charge(len as f64 / 8.0 + 4.0);
                ctx.memory()?.fill(p, v, len)?;
                Ok(vec![ptr_val(p)])
            }),
        );

        // memcpy(dst, src, len) -> dst
        imports.define(
            "cage_libc",
            "memcpy",
            HostFunc::new(&[ptr_ty, ptr_ty, I64], &[ptr_ty], move |ctx, args| {
                let (dst, src, len) = (arg_u64(&args[0]), arg_u64(&args[1]), arg_u64(&args[2]));
                ctx.charge(len as f64 / 8.0 + 4.0);
                ctx.memory()?.copy(dst, src, len)?;
                Ok(vec![ptr_val(dst)])
            }),
        );

        // print_i64(v)
        let s = st.clone();
        imports.define(
            "cage_libc",
            "print_i64",
            HostFunc::new(&[I64], &[], move |_, args| {
                use std::fmt::Write as _;
                let _ = writeln!(s.borrow_mut().stdout, "{}", args[0].as_i64());
                Ok(vec![])
            }),
        );

        // print_f64(v)
        let s = st.clone();
        imports.define(
            "cage_libc",
            "print_f64",
            HostFunc::new(&[F64], &[], move |_, args| {
                use std::fmt::Write as _;
                let _ = writeln!(s.borrow_mut().stdout, "{:.6}", args[0].as_f64());
                Ok(vec![])
            }),
        );

        // print_str(p): reads the NUL-terminated guest string.
        let s = st.clone();
        imports.define(
            "cage_libc",
            "print_str",
            HostFunc::new(&[ptr_ty], &[], move |ctx, args| {
                let p = arg_u64(&args[0]);
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
                use std::fmt::Write as _;
                let _ = writeln!(s.borrow_mut().stdout, "{}", String::from_utf8_lossy(&bytes));
                Ok(vec![])
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_engine::host::HostContext;
    use cage_engine::{ExecConfig, LinearMemory, Store, TagScheme, Variant};
    use cage_ir::passes::run_pipeline;
    use cage_ir::{lower, LowerOptions};
    use cage_mte::{AccessKind, Tag, TagCheckFault};

    /// Compiles `source` for `variant`, links libc and invokes `entry`.
    fn run_c(
        source: &str,
        variant: Variant,
        entry: &str,
        args: &[Value],
    ) -> (Result<Vec<Value>, Trap>, Libc) {
        let mut ir = cage_cc::compile(source).expect("compiles");
        run_pipeline(&mut ir, variant.harden_config());
        let lowered = lower(&ir, &LowerOptions::default()).expect("lowers");
        let libc = Libc::new(lowered.heap_base);
        let mut imports = Imports::new();
        libc.register(&mut imports);
        let config = ExecConfig {
            variant,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let h = store.instantiate(&lowered.module, &imports).unwrap();
        (store.invoke(h, entry, args), libc)
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

    /// Calls one registered libc function on a bare memory, the way the
    /// interpreter's host boundary does.
    fn host_call(
        imports: &Imports,
        mem: &mut LinearMemory,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let config = ExecConfig {
            variant: Variant::CageMemSafety,
            ..ExecConfig::default()
        };
        let mut cycles = 0.0;
        let mut ctx = HostContext {
            memory: Some(mem),
            config: &config,
            cycles: &mut cycles,
        };
        let func = imports.resolve("cage_libc", name).unwrap();
        let out = (func.borrow_mut().func)(&mut ctx, args);
        out
    }

    #[test]
    fn strcpy_overrunning_a_16_byte_segment_faults_at_byte_16() {
        // The byte loop's contract, as literals: one checked read and one
        // checked write per byte, and the fault is the write of the first
        // byte past the destination segment — into the next block's
        // untagged metadata slot — with everything before it copied.
        let libc = Libc::new(4096);
        let mut imports = Imports::new();
        libc.register(&mut imports);
        let mut mem = LinearMemory::new(4, None, true, TagScheme::InternalOnly, 99);
        let malloc = |mem: &mut LinearMemory, size: i64| {
            host_call(&imports, mem, "malloc", &[Value::I64(size)]).unwrap()[0].as_i64() as u64
        };
        let dst = malloc(&mut mem, 16);
        let src = malloc(&mut mem, 64);
        assert_eq!((dst, src), (0x0300_0000_0000_1010, 0x0400_0000_0000_1030));
        mem.write(src, 0, &[b'A'; 30]).unwrap();
        let checks = mem.tags().check_count();
        let args = [Value::from(dst), Value::from(src)];
        let err = host_call(&imports, &mut mem, "strcpy", &args).unwrap_err();
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
        let len = host_call(&imports, &mut mem, "strlen", &[Value::from(src)]).unwrap();
        assert_eq!(len, vec![Value::I64(30)]);
        host_call(&imports, &mut mem, "print_str", &[Value::from(src)]).unwrap();
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
        let (ok, libc) = run_c(src, Variant::BaselineWasm64, "run", &[]);
        ok.unwrap();
        assert_eq!(libc.stdout(), "cage says\n42\n1.500000\n");
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
        let (ok, libc) = run_c(src, Variant::CageMemSafety, "run", &[]);
        ok.unwrap();
        let stats = libc.stats();
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
