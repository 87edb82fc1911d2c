//! Inline suppression pragmas.
//!
//! Syntax: `// lint:allow(D001): reason text` — one or more comma-separated
//! rule ids, a colon, and a **mandatory** non-empty reason. The marker
//! must start the comment (prose that merely *mentions* the syntax, like
//! this paragraph, is not a pragma). A trailing pragma suppresses
//! findings on its own line; a standalone pragma suppresses findings on
//! the next code line. Malformed pragmas (missing reason, unknown rule)
//! and pragmas that suppress nothing are themselves reported —
//! suppression must stay auditable.

use crate::lexer::Lexed;
use crate::rules::is_known_rule;

/// A parsed (or malformed) suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rules this pragma suppresses.
    pub rules: Vec<String>,
    /// The justification text (always non-empty when well-formed).
    pub reason: String,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// The code line it applies to (`None` when no code follows).
    pub target_line: Option<u32>,
    /// Parse/validation error, if any.
    pub error: Option<String>,
}

/// The marker every pragma starts with.
pub const PRAGMA_MARKER: &str = "lint:allow(";

/// Extracts every pragma from a file's comments.
pub fn parse_pragmas(lexed: &Lexed) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix(PRAGMA_MARKER) else {
            continue;
        };
        let target_line = lexed.next_code_line(c.line);
        let mut pragma = Pragma {
            rules: Vec::new(),
            reason: String::new(),
            line: c.line,
            target_line,
            error: None,
        };
        let Some(close) = rest.find(')') else {
            pragma.error = Some("unclosed rule list — expected `lint:allow(RULE): reason`".into());
            out.push(pragma);
            continue;
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim().to_string();
            if rule.is_empty() {
                pragma.error = Some("empty rule id in `lint:allow(…)`".into());
            } else if !is_known_rule(&rule) {
                pragma.error = Some(format!("unknown rule `{rule}` in `lint:allow(…)`"));
            }
            pragma.rules.push(rule);
        }
        if pragma.rules.is_empty() {
            pragma.error = Some("empty rule list in `lint:allow(…)`".into());
        }
        let after = rest[close + 1..].trim_start();
        if let Some(reason) = after.strip_prefix(':') {
            pragma.reason = reason.trim().to_string();
        }
        if pragma.reason.is_empty() && pragma.error.is_none() {
            pragma.error = Some("missing reason — every suppression needs `): reason text`".into());
        }
        out.push(pragma);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_well_formed_pragmas() {
        let src = "// lint:allow(D002): telemetry only, never feeds results\nlet t = now();\n";
        let p = parse_pragmas(&lex(src));
        assert_eq!(p.len(), 1);
        assert!(p[0].error.is_none(), "{:?}", p[0].error);
        assert_eq!(p[0].rules, vec!["D002"]);
        assert_eq!(p[0].reason, "telemetry only, never feeds results");
        assert_eq!(p[0].target_line, Some(2));
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let src = "let t = now(); // lint:allow(D002): timing telemetry\n";
        let p = parse_pragmas(&lex(src));
        assert_eq!(p[0].target_line, Some(1));
    }

    #[test]
    fn multi_rule_pragmas() {
        let src = "// lint:allow(D001, D004): both are provably order-free here\nx();\n";
        let p = parse_pragmas(&lex(src));
        assert!(p[0].error.is_none());
        assert_eq!(p[0].rules, vec!["D001", "D004"]);
    }

    #[test]
    fn missing_reason_is_an_error() {
        for src in [
            "// lint:allow(D001)\nx();\n",
            "// lint:allow(D001):\nx();\n",
            "// lint:allow(D001):   \nx();\n",
        ] {
            let p = parse_pragmas(&lex(src));
            assert!(p[0].error.is_some(), "src {src:?} should be malformed");
        }
    }

    #[test]
    fn unknown_rule_is_an_error() {
        // C-prefixed ids are not rules: a waiver for one is an error.
        for rule in ["D999", "C002"] {
            let p = parse_pragmas(&lex(&format!("// lint:allow({rule}): nope\nx();\n")));
            let err = p[0].error.as_deref().unwrap();
            assert!(err.contains(&format!("unknown rule `{rule}`")), "{err}");
        }
    }

    #[test]
    fn pragma_with_no_following_code_has_no_target() {
        let p = parse_pragmas(&lex("x();\n// lint:allow(D001): dangling\n"));
        assert_eq!(p[0].target_line, None);
    }
}
