//! A small but correct Rust lexer.
//!
//! The rule engine does not need a parser — the D004 pattern it
//! recognizes is a short token sequence — but it *does* need the token
//! stream to be right: a `sort_by` inside a string literal or a nested
//! block comment must not produce a finding, and a `// D004:` inside a
//! string must not waive one. This lexer therefore handles exactly the
//! lexical subtleties that matter for that guarantee:
//!
//! * line comments (incl. doc comments) and **nested** block comments;
//! * string literals with escapes, byte strings, and raw (byte) strings
//!   with arbitrary `#` fences;
//! * char literals vs lifetimes (`'a'` vs `<'a>`), incl. escaped chars;
//! * numeric literals (decimal, float, exponent, hex/octal/binary,
//!   `_` separators, type suffixes) without eating `..` range operators;
//! * `::` and `->` joined into single punctuation tokens so rules can
//!   match paths and tell `::` apart from a type-ascription `:`.
//!
//! Everything is positioned (1-based line, column) so findings and the
//! `// D004: reason` markers that waive them can be tied to source lines.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `as`, `unsafe`, …).
    Ident,
    /// String literal of any flavor (plain, byte, raw) — text is the
    /// literal *contents* (fences and quotes stripped).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`) — text includes the leading `'`.
    Lifetime,
    /// Numeric literal, suffix included (`1_000`, `0.5`, `10u32`).
    Number,
    /// Punctuation: single chars, plus the joined `::` and `->`.
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for what is included).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in chars).
    pub col: u32,
}

impl Token {
    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// One comment (line or block) with its source position.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text *without* the `//` / `/* */` markers, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Self {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Unterminated literals and
/// comments are tolerated (the remainder of the file becomes the
/// literal/comment): a linter must never panic on the code it audits.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek_at(1) == Some('/') {
            cur.bump();
            cur.bump();
            let mut text = String::new();
            while let Some(ch) = cur.peek() {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            push_comment(&mut out, text, line);
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut text = String::new();
            while depth > 0 {
                match (cur.peek(), cur.peek_at(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push_str("/*");
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                        if depth > 0 {
                            text.push_str("*/");
                        }
                    }
                    (Some(ch), _) => {
                        text.push(ch);
                        cur.bump();
                    }
                    (None, _) => break, // unterminated: tolerate
                }
            }
            push_comment(&mut out, text, line);
            continue;
        }
        // Raw / byte string prefixes: r", r#", b", br", br#", b'.
        if is_ident_start(c) {
            let mut ident = String::new();
            let mut j = 0usize;
            while let Some(ch) = cur.peek_at(j) {
                if is_ident_continue(ch) {
                    ident.push(ch);
                    j += 1;
                } else {
                    break;
                }
            }
            let next = cur.peek_at(j);
            let raw_prefix =
                matches!(ident.as_str(), "r" | "br") && matches!(next, Some('"') | Some('#'));
            let byte_str = ident == "b" && next == Some('"');
            let byte_char = ident == "b" && next == Some('\'');
            if raw_prefix {
                for _ in 0..j {
                    cur.bump();
                }
                lex_raw_string(&mut cur, &mut out, line, col);
                continue;
            }
            if byte_str {
                cur.bump(); // b
                lex_string(&mut cur, &mut out, line, col);
                continue;
            }
            if byte_char {
                cur.bump(); // b
                cur.bump(); // '
                lex_char_body(&mut cur, &mut out, line, col);
                continue;
            }
            for _ in 0..j {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: ident,
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            lex_string(&mut cur, &mut out, line, col);
            continue;
        }
        if c == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
            continue;
        }
        if c.is_ascii_digit() {
            lex_number(&mut cur, &mut out, line, col);
            continue;
        }
        // Punctuation; join `::` and `->`.
        cur.bump();
        let text = if c == ':' && cur.peek() == Some(':') {
            cur.bump();
            "::".to_string()
        } else if c == '-' && cur.peek() == Some('>') {
            cur.bump();
            "->".to_string()
        } else {
            c.to_string()
        };
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text,
            line,
            col,
        });
    }
    out
}

fn push_comment(out: &mut Lexed, text: String, line: u32) {
    out.comments.push(Comment {
        text: text.trim().to_string(),
        line,
    });
}

fn lex_string(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(ch) = cur.peek() {
        if ch == '\\' {
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push('\\');
                text.push(esc);
            }
            continue;
        }
        if ch == '"' {
            cur.bump();
            break;
        }
        text.push(ch);
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text,
        line,
        col,
    });
}

fn lex_raw_string(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some('"') {
        // `r#foo` raw identifier, not a raw string: emit the ident.
        let mut text = String::new();
        while let Some(ch) = cur.peek() {
            if is_ident_continue(ch) {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
        out.tokens.push(Token {
            kind: TokenKind::Ident,
            text,
            line,
            col,
        });
        return;
    }
    cur.bump(); // opening quote
    let mut text = String::new();
    'scan: while let Some(ch) = cur.peek() {
        if ch == '"' {
            // Close only when followed by `hashes` hash marks.
            let mut ok = true;
            for k in 0..hashes {
                if cur.peek_at(1 + k) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                cur.bump();
                for _ in 0..hashes {
                    cur.bump();
                }
                break 'scan;
            }
        }
        text.push(ch);
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text,
        line,
        col,
    });
}

/// After a `'`: disambiguate char literal vs lifetime.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // '
    match cur.peek() {
        Some('\\') => lex_char_body(cur, out, line, col),
        Some(c1) if is_ident_start(c1) => {
            // `'a'` is a char; `'a` / `'static` is a lifetime. The char
            // after c1 decides: a closing quote means char literal.
            if cur.peek_at(1) == Some('\'') {
                lex_char_body(cur, out, line, col);
            } else {
                let mut text = String::from("'");
                while let Some(ch) = cur.peek() {
                    if is_ident_continue(ch) {
                        text.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                });
            }
        }
        _ => lex_char_body(cur, out, line, col),
    }
}

/// Consumes the body of a char literal up to and including the closing
/// quote; the opening quote is already consumed.
fn lex_char_body(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    while let Some(ch) = cur.peek() {
        if ch == '\\' {
            cur.bump();
            text.push('\\');
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        if ch == '\'' {
            cur.bump();
            break;
        }
        if ch == '\n' {
            break; // malformed: tolerate
        }
        text.push(ch);
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokenKind::Char,
        text,
        line,
        col,
    });
}

fn lex_number(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    // Hex / octal / binary.
    if cur.peek() == Some('0') && matches!(cur.peek_at(1), Some('x') | Some('o') | Some('b')) {
        text.push(cur.bump().unwrap());
        text.push(cur.bump().unwrap());
        while let Some(ch) = cur.peek() {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
    } else {
        while let Some(ch) = cur.peek() {
            if ch.is_ascii_digit() || ch == '_' {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
        // Fractional part — but never eat a `..` range operator.
        if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            text.push('.');
            cur.bump();
            while let Some(ch) = cur.peek() {
                if ch.is_ascii_digit() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some('e') | Some('E'))
            && (cur.peek_at(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(cur.peek_at(1), Some('+') | Some('-'))
                    && cur.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
        {
            text.push(cur.bump().unwrap());
            if matches!(cur.peek(), Some('+') | Some('-')) {
                text.push(cur.bump().unwrap());
            }
            while let Some(ch) = cur.peek() {
                if ch.is_ascii_digit() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
        // Type suffix (`u32`, `f64`, …).
        while let Some(ch) = cur.peek() {
            if is_ident_continue(ch) {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
    }
    out.tokens.push(Token {
        kind: TokenKind::Number,
        text,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn line_and_block_comments() {
        let l = lex("let a = 1; // trailing note\n/* block */ let b = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "trailing note");
        assert_eq!(
            (l.comments[1].text.as_str(), l.comments[1].line),
            ("block", 2)
        );
        assert!(idents("let a = 1; // HashMap\n")
            .iter()
            .all(|i| i != "HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert_eq!(idents("/* /* */ unsafe */ ok"), vec!["ok"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(
            idents(r#"let s = "unsafe HashMap"; done"#),
            vec!["let", "s", "done"]
        );
        // Escaped quote does not close the string.
        assert_eq!(
            idents(r#"let s = "a\"unsafe"; done"#),
            vec!["let", "s", "done"]
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r###"let s = r#"quote " inside unsafe"#; done"###);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("quote \" inside"));
        assert!(idents(r###"let s = r#"unsafe"#; done"###)
            .iter()
            .all(|i| i != "unsafe"));
        // Zero-hash raw string and byte-string prefixes.
        assert_eq!(
            idents(r#"let s = r"x // y"; done"#),
            vec!["let", "s", "done"]
        );
        assert_eq!(
            idents(r#"let s = b"bytes"; done"#),
            vec!["let", "s", "done"]
        );
        // br with fences.
        assert_eq!(
            idents(r###"let s = br#"b " b"#; done"###),
            vec!["let", "s", "done"]
        );
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let l =
            lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let s: &'static str = \"\"; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["x", "\\'"]);
        // A char containing a quote-adjacent ident char: 'a' vs '_'.
        let l2 = lex("let u = '_';");
        assert_eq!(
            l2.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn byte_char_literal() {
        let l = lex("let c = b'x'; done");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
        assert!(idents("let c = b'x'; done").contains(&"done".to_string()));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..n_regions { let x = 1.5e-3; let y = 1_000u32; }");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "1.5e-3", "1_000u32"]);
        assert!(l.tokens.iter().any(|t| t.is_punct(".")));
        // Hex and a plain float.
        let l2 = lex("0xFF_u64 40.755");
        let nums2: Vec<_> = l2.tokens.iter().map(|t| t.text.clone()).collect();
        assert_eq!(nums2, vec!["0xFF_u64", "40.755"]);
    }

    #[test]
    fn path_and_arrow_puncts_are_joined() {
        let l = lex("fn f() -> std::time::Instant { Instant::now() }");
        assert!(l.tokens.iter().any(|t| t.is_punct("->")));
        assert_eq!(l.tokens.iter().filter(|t| t.is_punct("::")).count(), 3);
        // Type ascription `:` stays single.
        let l2 = lex("let x: u32 = 0;");
        assert!(l2.tokens.iter().any(|t| t.is_punct(":")));
        assert!(!l2.tokens.iter().any(|t| t.is_punct("::")));
    }

    #[test]
    fn positions_are_tracked() {
        let l = lex("a\n  bb\n");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_constructs_are_tolerated() {
        lex("let s = \"never closed");
        lex("/* never closed");
        lex("let c = 'x");
        let l = lex("r#\"never closed");
        assert_eq!(l.tokens.len(), 1);
    }
}
