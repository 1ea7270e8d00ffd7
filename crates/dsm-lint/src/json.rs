//! JSON string escaping for the `--format json` report and `--emit-graph`.
//!
//! The linter writes JSON but never reads it, so this is all it needs: the
//! crate stays dependency-free, and the gate builds before — and
//! independently of — the simulator stack it checks.

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            escape("x.expect(\"poisoned\\n\");\t√\u{1}"),
            "x.expect(\\\"poisoned\\\\n\\\");\\t√\\u0001"
        );
    }
}
