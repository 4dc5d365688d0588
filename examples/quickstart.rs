//! Quickstart: define a small guest program, detect its failure non-atomic
//! methods, mask them, and verify the corrected program.
//!
//! Run with `cargo run --example quickstart`.

use atomask_suite::{FnProgram, Pipeline, Profile, RegistryBuilder, Value};

/// A bank account whose `transfer` updates the balance *before* asking the
/// audit log to record the transaction — the classic failure non-atomic
/// ordering: if logging throws, the money is gone but nothing was
/// recorded.
fn bank_program() -> FnProgram {
    FnProgram::new(
        "bank",
        || {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.exception("AuditError");
            rb.class("AuditLog", |c| {
                c.field("entries", Value::Int(0));
                c.method("record", |ctx, this, _| {
                    let n = ctx.get_int(this, "entries");
                    ctx.set(this, "entries", Value::Int(n + 1));
                    Ok(Value::Null)
                })
                .throws("AuditError");
            });
            rb.class("Account", |c| {
                c.field("balance", Value::Int(0));
                c.field("audit", Value::Null);
                c.ctor(|ctx, this, args| {
                    ctx.set(this, "balance", args[0].clone());
                    ctx.set(this, "audit", args[1].clone());
                    Ok(Value::Null)
                });
                c.method("balance", |ctx, this, _| Ok(ctx.get(this, "balance")));
                c.method("withdraw", |ctx, this, args| {
                    let amount = args[0].as_int().unwrap_or(0);
                    let balance = ctx.get_int(this, "balance");
                    // Vulnerable order: debit first, then the call that
                    // might throw.
                    ctx.set(this, "balance", Value::Int(balance - amount));
                    let audit = ctx.get(this, "audit");
                    ctx.call_value(&audit, "record", &[])?;
                    Ok(Value::Int(balance - amount))
                })
                .throws("AuditError");
            });
            rb.build()
        },
        |d| {
            let audit = d.construct("AuditLog", &[])?;
            d.root(audit);
            let account = d.construct("Account", &[Value::Int(100), Value::Ref(audit)])?;
            d.root(account);
            d.call(account, "withdraw", &[Value::Int(30)])?;
            d.call(account, "withdraw", &[Value::Int(20)])?;
            d.call(account, "balance", &[])
        },
    )
}

fn main() {
    let program = bank_program();
    let report = Pipeline::new(&program).run();

    println!("=== Detection ===");
    for m in &report.classification.methods {
        if let Some(verdict) = m.verdict {
            println!("  {:<22} {}", m.name, verdict);
            if let Some(diff) = &m.sample_diff {
                println!("      e.g. {diff}");
            }
        }
    }

    println!("\n=== Masking ===");
    println!("wrapped methods: {:?}", report.wrapped_names());

    println!("\n=== Verification (corrected program) ===");
    println!(
        "pure non-atomic: {}, conditional: {} -> corrected program is {}",
        report.verified.method_counts.pure_nonatomic,
        report.verified.method_counts.conditional,
        if report.corrected_is_atomic() {
            "failure atomic"
        } else {
            "STILL NON-ATOMIC"
        }
    );
    assert!(report.corrected_is_atomic());
}
