//! Shared helpers for application drivers and method bodies.

use atomask_mor::{Driver, MethodResult, Value};

/// Shorthand for `Value::Int`.
pub fn int(v: i64) -> Value {
    Value::Int(v)
}

/// Shorthand for `Value::Str`.
pub fn s(v: &str) -> Value {
    Value::from(v)
}

/// Constructs an instance and roots it for the rest of the driver.
///
/// # Errors
///
/// Propagates constructor exceptions (e.g. injected ones).
pub fn rooted(d: &mut Driver<'_>, class: &str, args: &[Value]) -> MethodResult {
    let id = d.construct(class, args)?;
    d.root(id);
    Ok(Value::Ref(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthands() {
        assert_eq!(int(3), Value::Int(3));
        assert_eq!(s("a"), Value::Str("a".into()));
    }
}
