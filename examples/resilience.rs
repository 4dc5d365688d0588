//! Campaign resilience demo: a program whose reaction to injected
//! failures is pathological — one injection point leaks a lock that an
//! application-level retry loop spins on forever, another trips a
//! host-level panic. The fuel budget cuts the spin off, panic isolation
//! confines the crash, and the journal lets an interrupted sweep resume
//! bit-for-bit.
//!
//! Run with: `cargo run --release --example resilience`

use atomask_suite::{
    classify, Budget, Campaign, CampaignConfig, CampaignJournal, FnProgram, MarkFilter, Profile,
    RegistryBuilder, RetryPolicy, RunOutcome, Value,
};

fn pathological_program() -> FnProgram {
    FnProgram::new(
        "resilience-demo",
        || {
            let mut profile = Profile::cpp();
            profile.runtime_exceptions = vec!["Fault".to_owned()];
            let mut rb = RegistryBuilder::new(profile);
            rb.exception("StateError");
            rb.class("P", |c| {
                c.field("locked", Value::Bool(false));
                c.field("done", Value::Int(0));
                c.method("transact", |ctx, this, _| {
                    if ctx.get_bool(this, "locked") {
                        return Err(ctx.exception("StateError", "still locked"));
                    }
                    ctx.set(this, "locked", Value::Bool(true));
                    // Non-atomic: an exception here leaks the lock.
                    ctx.call(this, "commit", &[])?;
                    ctx.set(this, "locked", Value::Bool(false));
                    Ok(Value::Null)
                });
                c.method("commit", |_, _, _| Ok(Value::Null));
                c.method("strict", |ctx, this, _| {
                    if ctx.call(this, "probe", &[]).is_err() {
                        panic!("invariant violated: probe can never fail");
                    }
                    Ok(Value::Null)
                });
                c.method("probe", |_, _, _| Ok(Value::Null));
                c.method("calm", |ctx, this, _| {
                    let d = ctx.get_int(this, "done");
                    ctx.set(this, "done", Value::Int(d + 1));
                    Ok(Value::Null)
                });
            });
            rb.build()
        },
        |d| {
            let p = d.construct("P", &[])?;
            d.root(p);
            // Application-level retry loop: swallows failures and tries
            // again; the leaked lock turns it into an infinite loop that
            // only the fuel budget can end.
            loop {
                match d.call(p, "transact", &[]) {
                    Ok(_) => break,
                    Err(_) => continue,
                }
            }
            d.call_absorbed(p, "strict", &[]);
            d.call(p, "calm", &[])
        },
    )
}

fn main() {
    let program = pathological_program();
    let config = CampaignConfig {
        budget: Budget::fuel(20_000),
        retry: RetryPolicy::none(),
        max_failures: None,
        ..CampaignConfig::default()
    };

    let full = Campaign::new(&program).config(config).run();
    println!("full sweep over {} injection points", full.total_points);
    println!("run health: {}", full.health());
    for run in &full.runs {
        if run.outcome != RunOutcome::Completed {
            let site = run
                .injected
                .map(|(m, _)| full.registry.method_display(m))
                .unwrap_or_else(|| "baseline".to_owned());
            println!(
                "  {:?} at {site}: {}",
                run.outcome,
                run.top_error.as_deref().unwrap_or("-")
            );
        }
    }

    let c = classify(&full, &MarkFilter::default());
    println!(
        "classification still covers {} methods ({} unhealthy runs set aside)",
        c.methods.len(),
        c.health.unhealthy()
    );

    // Interrupt the sweep halfway, round-trip the journal through its text
    // format, and resume: the result must be bit-for-bit identical.
    let mut journal = full.journal();
    journal.truncate_runs(full.runs.len() / 2);
    let text = journal.serialize();
    let mut reloaded = CampaignJournal::parse(&text).expect("journal text round-trips");
    let resumed = Campaign::new(&program).config(config).resume(&mut reloaded);
    assert_eq!(resumed.runs, full.runs, "resume is bit-for-bit");
    println!(
        "resumed from a {}-run journal prefix: identical to the full sweep",
        full.runs.len() / 2
    );
}
