//! A hand-rolled, token-aware Rust lexer — just enough structure for
//! the repo lints: identifiers, punctuation, string/raw-string/char
//! literals, line/block comments (kept as a side list with line spans)
//! and line numbers on every token.
//!
//! It is *not* a full Rust lexer; it only needs two guarantees:
//!
//! 1. nothing inside a comment, string, raw string, byte string or
//!    char literal ever becomes an identifier or punctuation token
//!    (so `// call unwrap()` and `"panic!"` can never fire a lint);
//! 2. identifiers, `::` paths, string literals and brace structure
//!    survive intact (so the lint passes can match token shapes and
//!    track `#[cfg(test)]` module spans).
//!
//! The classic traps are handled explicitly: nested block comments,
//! raw strings with arbitrary `#` fences, byte/raw-byte strings,
//! lifetimes vs char literals (`'a` vs `'a'`), raw identifiers
//! (`r#type`), and float literals vs range expressions (`1.5` vs
//! `0..n`).

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Token kinds the lints care about. Literal *contents* are kept only
/// for strings (L006 counts the lines a multi-line string spans);
/// everything else is shape-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `Ordering`, ...).
    Ident(String),
    /// Single punctuation character (`.`, `:`, `{`, `!`, ...).
    Punct(char),
    /// String literal (plain, raw, byte or raw-byte) with its cooked
    /// source content (escapes are *not* processed — lints only match
    /// prefixes of plain names, which never contain escapes).
    Str(String),
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    CharLit,
    /// Lifetime (`'a`) — kept distinct so `'a` never swallows code.
    Lifetime,
    /// Numeric literal (shape-only; suffixes folded in).
    Num,
}

/// A comment with its 1-based line span (block comments may span
/// several lines) and raw text including the delimiters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based first line of the comment.
    pub start_line: usize,
    /// 1-based last line (equals `start_line` for line comments).
    pub end_line: usize,
    /// Raw text including delimiters.
    pub text: String,
}

/// The result of lexing one source file: code tokens in order, plus
/// comments as a separate ordered list.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lex `src`. Never fails: unterminated literals or comments consume
/// to end-of-file, which is the lenient behavior a lint wants (rustc
/// rejects such files anyway, so CI sees the real error first).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, line: usize) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                'r' if matches!(self.peek(1), Some('"' | '#')) => self.raw_or_ident(line, false),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_lit(line);
                }
                'b' if self.peek(1) == Some('r') && matches!(self.peek(2), Some('"' | '#')) => {
                    self.bump();
                    self.raw_or_ident(line, true);
                }
                '\'' => self.quote(line),
                _ if c.is_alphabetic() || c == '_' => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let (start, mut text) = (self.line, String::new());
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: start,
            text,
        });
    }

    /// Block comment; Rust block comments nest.
    fn block_comment(&mut self) {
        let (start, mut text, mut depth) = (self.line, String::new(), 0usize);
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    text.push_str("*/");
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: self.line,
            text,
        });
    }

    /// Plain (escaped) string literal; the opening `"` is current.
    fn string(&mut self, line: usize) {
        self.bump(); // opening quote
        let mut content = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    // Consume the escaped char so `\"` cannot close.
                    if let Some(e) = self.bump() {
                        content.push('\\');
                        content.push(e);
                    }
                }
                '"' => break,
                _ => content.push(c),
            }
        }
        self.push(TokKind::Str(content), line);
    }

    /// At `r`: either a raw string (`r"`, `r#"`, `r##"`, ...), a raw
    /// identifier (`r#match`), or a plain identifier starting with r.
    fn raw_or_ident(&mut self, line: usize, _byte: bool) {
        // Count `#` after the `r` without consuming yet.
        let mut hashes = 0;
        while self.peek(1 + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(1 + hashes) {
            Some('"') => {
                self.bump(); // r
                for _ in 0..hashes {
                    self.bump();
                }
                self.bump(); // opening quote
                self.raw_string_body(line, hashes);
            }
            // `r#ident` — raw identifier (exactly one hash, then
            // an identifier start).
            Some(c) if hashes == 1 && (c.is_alphabetic() || c == '_') => {
                self.bump(); // r
                self.bump(); // #
                self.ident(line);
            }
            // Plain identifier beginning with `r`.
            _ => self.ident(line),
        }
    }

    /// Raw-string body after the opening quote: ends at `"` followed
    /// by `hashes` `#` characters. No escape processing.
    fn raw_string_body(&mut self, line: usize, hashes: usize) {
        let mut content = String::new();
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let closed = (0..hashes).all(|i| self.peek(1 + i) == Some('#'));
                if closed {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            content.push(c);
            self.bump();
        }
        self.push(TokKind::Str(content), line);
    }

    /// At `'`: lifetime or char literal. `'a` (identifier-ish, no
    /// closing quote right after) is a lifetime; everything else is a
    /// char literal (`'x'`, `'\''`, `'\u{1F980}'`).
    fn quote(&mut self, line: usize) {
        let next = self.peek(1);
        let lifetime_start = next.map(|c| c.is_alphabetic() || c == '_').unwrap_or(false);
        if lifetime_start {
            // Find the end of the identifier run after the quote.
            let mut n = 2;
            while self
                .peek(n)
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false)
            {
                n += 1;
            }
            if self.peek(n) != Some('\'') {
                // `'ident` not followed by a quote: lifetime.
                for _ in 0..n {
                    self.bump();
                }
                self.push(TokKind::Lifetime, line);
                return;
            }
        }
        self.char_lit(line);
    }

    /// Char literal; the opening `'` is current.
    fn char_lit(&mut self, line: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::CharLit, line);
    }

    fn ident(&mut self, line: usize) {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(s), line);
    }

    /// Numeric literal, loosely: digits and suffix chars, plus a
    /// fractional part only when `.` is followed by a digit — so
    /// `1.5f64` is one token but `0..n` leaves `..` intact.
    fn number(&mut self, line: usize) {
        let consume_digits = |lx: &mut Self| {
            while let Some(c) = lx.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    lx.bump();
                } else {
                    break;
                }
            }
        };
        consume_digits(self);
        if self.peek(0) == Some('.') && self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.bump();
            consume_digits(self);
        }
        self.push(TokKind::Num, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let src = r##"
            // unsafe unwrap() panic!
            /* expect( /* nested unsafe */ still comment */
            let s = "unsafe { unwrap() }";
            let r = r#"panic!("x")"#;
            let b = b"todo!()";
            let c = 'u';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_string()), "{ids:?}");
        assert!(!ids.contains(&"todo".to_string()), "{ids:?}");
        assert!(!ids.contains(&"expect".to_string()), "{ids:?}");
    }

    #[test]
    fn lifetimes_do_not_swallow_code() {
        let ids = idents("fn f<'a>(x: &'a str) { x.unwrap() }");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let ids = idents(r"let c = '\''; x.unwrap();");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        assert_eq!(idents("r#type"), vec!["type"]);
    }

    #[test]
    fn ranges_survive_numbers() {
        let toks = lex("0..n").tokens;
        assert_eq!(
            toks.iter().map(|t| &t.kind).collect::<Vec<_>>(),
            vec![
                &TokKind::Num,
                &TokKind::Punct('.'),
                &TokKind::Punct('.'),
                &TokKind::Ident("n".into())
            ]
        );
        assert_eq!(lex("1.5f64").tokens.len(), 1);
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "/* a\nb */\nlet x = 1;\n\"s\ntr\"\nunsafe";
        let l = lex(src);
        assert_eq!(l.comments[0].start_line, 1);
        assert_eq!(l.comments[0].end_line, 2);
        let last = l.tokens.last().expect("tokens");
        assert_eq!(last.kind, TokKind::Ident("unsafe".into()));
        assert_eq!(last.line, 6);
    }

    #[test]
    fn raw_string_fences() {
        let l = lex(r###"let s = r##"has "# inside"##; done"###);
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Str(s) if s.contains("has"))));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident("done".into())));
    }
}
