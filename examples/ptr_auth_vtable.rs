//! Listing 1 from the paper: a stack overflow overwrites a vtable slot and
//! redirects an indirect call — plus the cross-instance function-pointer
//! reuse that PAC prevents (§4.2).
//!
//! ```sh
//! cargo run -p cage --example ptr_auth_vtable
//! ```

use cage::engine::Store;
use cage::{Engine, Linker, Variant};

/// Listing 1, made runnable: `vulnerable(overflow, payload)` copies
/// `2 + overflow` words into a 2-word buffer sitting next to the vtable.
/// With `payload` = the table index of `foo`, the attacker redirects
/// `vtable.g()` from `bar` to `foo`.
const LISTING1: &str = r#"
    long calls_to_foo;
    long calls_to_bar;

    void foo() { calls_to_foo = calls_to_foo + 1; }
    void bar() { calls_to_bar = calls_to_bar + 1; }

    struct VTable {
        void (*f)();
        void (*g)();
    };

    long vulnerable(long overflow, long payload) {
        long buf[2];
        struct VTable vtable = {.f = foo, .g = bar};
        long i = 0;
        while (i < 2 + overflow) {
            buf[i] = payload;   // strcpy(buf, input) in the paper
            i = i + 1;
        }
        vtable.g();             // should call bar
        return calls_to_foo * 1000 + calls_to_bar;
    }
"#;

fn main() -> Result<(), cage::Error> {
    println!("Listing 1: vtable overwrite via stack overflow\n");

    // Baseline: the overflow silently rewrites the function pointer. The
    // payload is a raw table index, and with neither tags nor signatures
    // nothing stops the redirect.
    let baseline_engine = Engine::new(Variant::BaselineWasm64);
    let baseline = baseline_engine.compile(LISTING1)?;
    let mut inst = baseline_engine.instantiate(&baseline)?;
    let vulnerable = inst.get_typed::<(i64, i64), i64>("vulnerable")?;
    let honest = vulnerable.call(&mut inst, (0, 0))?;
    println!("baseline, benign input:   foo*1000+bar = {honest} (bar called)");

    // Find foo's table slot by brute force, as an attacker would.
    let mut redirected = None;
    for guess in 1..4 {
        let mut inst = baseline_engine.instantiate(&baseline)?;
        let vulnerable = inst.get_typed::<(i64, i64), i64>("vulnerable")?;
        if let Ok(out) = vulnerable.call(&mut inst, (2, guess)) {
            if out >= 1000 {
                redirected = Some((guess, out));
                break;
            }
        }
    }
    match redirected {
        Some((idx, v)) => println!(
            "baseline, overflow:       foo*1000+bar = {v} — call REDIRECTED to foo (table index {idx})"
        ),
        None => println!("baseline, overflow:       redirect failed (layout changed?)"),
    }

    // Cage: the overflow trips MTE before the call, and even a forged
    // index would fail pointer authentication.
    let cage_engine = Engine::new(Variant::CageFull);
    let caged = cage_engine.compile(LISTING1)?;
    let mut inst = cage_engine.instantiate(&caged)?;
    let vulnerable = inst.get_typed::<(i64, i64), i64>("vulnerable")?;
    match vulnerable.call(&mut inst, (2, 1)) {
        Err(err) => println!("Cage, overflow:           {err}"),
        Ok(v) => println!("Cage, overflow:           {v} (unexpected!)"),
    }
    let mut inst = cage_engine.instantiate(&caged)?;
    let vulnerable = inst.get_typed::<(i64, i64), i64>("vulnerable")?;
    let ok = vulnerable.call(&mut inst, (0, 0))?;
    println!("Cage, benign input:       foo*1000+bar = {ok} (bar called)\n");

    // Cross-instance reuse (§4.2): a pointer signed by instance A fails
    // authentication in instance B, because each instance gets its own
    // key. Both instances share one store (one simulated process).
    let auth_engine = Engine::new(Variant::CagePtrAuth);
    let artifact = auth_engine.compile("long id(long x) { return x; }")?;
    let linker = Linker::with_libc();
    let mut store = Store::new(auth_engine.exec_config());
    let a = artifact.instantiate_into(&mut store, &linker)?;
    let b = artifact.instantiate_into(&mut store, &linker)?;
    let signed_in_a = store.sign_pointer(a, 0x2_0000);
    println!("cross-instance reuse:");
    println!("  signed in A:        {signed_in_a:#018x}");
    println!(
        "  auth in A:          {:?}",
        store
            .auth_pointer(a, signed_in_a)
            .map(|p| format!("{p:#x}"))
    );
    println!(
        "  auth in B:          {:?}",
        store
            .auth_pointer(b, signed_in_a)
            .err()
            .map(|t| t.to_string())
    );
    Ok(())
}
