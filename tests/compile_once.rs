//! Each module is validated — and lowered — exactly once, on every path
//! from source text or a raw module to any number of instances.
//!
//! `cage_wasm` counts validations per thread; every test here reads the
//! counter around one path through the embedder API.

use std::sync::Arc;

use cage::engine::store::InstantiateError;
use cage::engine::{Precompiled, Store};
use cage::wasm::builder::ModuleBuilder;
use cage::wasm::validate::validation_count;
use cage::wasm::{CompileLimits, Instr, Module, ValType};
use cage::{Core, Engine, Error, HostProfile, InstancePre, Linker, Pool, Value, Variant};

const SOURCE: &str = r#"
    long twice(long x) {
        long* cell = (long*)malloc(8);
        *cell = x;
        long out = *cell * 2;
        free((char*)cell);
        return out;
    }
"#;

/// Validations `f` caused on this thread.
fn validations(f: impl FnOnce()) -> u64 {
    let before = validation_count();
    f();
    validation_count() - before
}

fn raw_module() -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::I64Const(2), Instr::I64Mul],
    );
    b.export_func("twice", f);
    b.build()
}

#[test]
fn source_to_instances_validates_once() {
    // BaselineWasm64 shares one runtime between any number of instances.
    let engine = Engine::new(Variant::BaselineWasm64);
    let mut artifact = None;
    assert_eq!(
        validations(|| artifact = Some(engine.compile(SOURCE).expect("compiles"))),
        1
    );
    let artifact = artifact.expect("compiled");

    let after_compile = validations(|| {
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        assert_eq!(
            inst.invoke("twice", &[Value::I64(21)]).expect("runs"),
            [Value::I64(42)]
        );
        let mut inst = engine
            .instantiate_with(&artifact, &Linker::with_libc())
            .expect("instantiates");
        assert_eq!(
            inst.invoke("twice", &[Value::I64(4)]).expect("runs"),
            [Value::I64(8)]
        );

        let mut store = Store::new(engine.exec_config());
        for _ in 0..3 {
            let token = artifact
                .instantiate_into(&mut store, &Linker::with_libc())
                .expect("instantiates");
            assert_eq!(
                store
                    .invoke(token, "twice", &[Value::I64(5)])
                    .expect("runs"),
                [Value::I64(10)]
            );
        }

        let pre = engine
            .instance_pre(&artifact, HostProfile::Libc)
            .expect("same variant");
        let mut pool = Pool::new(Arc::new(pre));
        let mut held = Vec::new();
        for i in 0..8 {
            let inst = pool.checkout().expect("checks out");
            assert_eq!(
                pool.invoke(&inst, "twice", &[Value::I64(i)]).expect("runs"),
                [Value::I64(2 * i)]
            );
            // Keep half checked out so both cold and recycled slots occur.
            if i % 2 == 0 {
                pool.release(inst);
            } else {
                held.push(inst);
            }
        }
        held.into_iter().for_each(|inst| pool.release(inst));
    });
    assert_eq!(after_compile, 0, "an instantiation path validated again");
}

#[test]
fn a_raw_module_validates_once_on_either_surface() {
    let module = raw_module();
    let through_store = validations(|| {
        let mut store = Store::new(Engine::new(Variant::BaselineWasm64).exec_config());
        let pre = Precompiled::new(&module).expect("compiles");
        let token = Linker::new()
            .instantiate(&mut store, &pre)
            .expect("instantiates");
        assert_eq!(
            store
                .invoke(token, "twice", &[Value::I64(3)])
                .expect("runs"),
            [Value::I64(6)]
        );
    });
    assert_eq!(through_store, 1);

    let through_template = validations(|| {
        let pre = InstancePre::with_limits(
            Variant::BaselineWasm64,
            Core::CortexX3,
            &module,
            HostProfile::Empty,
            &CompileLimits::default(),
        )
        .expect("compiles");
        let mut pool = Pool::new(Arc::new(pre));
        for _ in 0..8 {
            let inst = pool.checkout().expect("checks out");
            pool.release(inst);
        }
    });
    assert_eq!(through_template, 1);
}

#[test]
fn the_engine_s_limits_reach_the_register_lowering_at_compile() {
    // The frontend and wasm stages never look at the SSA value cap; the
    // register lowering does. It used to run at instantiation, under no
    // limits at all, so this engine compiled the program and then ran it.
    let tight = CompileLimits {
        max_ssa_values: 4,
        ..CompileLimits::default()
    };
    let module = Engine::new(Variant::CageFull)
        .compile(SOURCE)
        .expect("compiles under the default limits")
        .module()
        .clone();
    let Err(InstantiateError::CompileLimit(expected)) = Precompiled::with_limits(&module, &tight)
    else {
        panic!("the lowering accepts the module under the tight limits");
    };
    assert_eq!(expected.what, "ssa values");

    let engine = Engine::builder(Variant::CageFull).limits(tight).build();
    match engine.compile(SOURCE) {
        Err(Error::LimitExceeded(l)) => assert_eq!(l, expected),
        Err(other) => panic!("expected the SSA value limit, got {other}"),
        Ok(_) => panic!("the tight engine compiled the program"),
    }
}
