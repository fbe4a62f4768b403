//! A minimal Rust lexer: source text → a stream of semantic tokens with
//! line numbers, with comments and whitespace discarded.
//!
//! The invariant rules ([`crate::rules`]) match *token* sequences, never raw
//! text, so a `partial_cmp` inside a string literal or a doc comment can
//! never produce a finding. The lexer understands exactly as much Rust as
//! that guarantee requires: line/nested-block comments, (raw/byte) string
//! literals, char literals vs. lifetimes, numeric literals with exponents
//! and suffixes, identifiers, and single-character punctuation.

/// What a token is, as far as the rules need to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `partial_cmp`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (`42`, `0.95`, `1e-6`, `0xFF_u64`).
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character (`.`, `(`, `::` is two `:` tokens).
    Punct,
}

/// One lexed token. `text` is the literal source text for identifiers,
/// numbers, and punctuation; string/char literals keep only their delimiter
/// so the stream stays cheap to clone and findings never embed file bodies.
/// The byte span (`start..end` into the original source) always covers the
/// full literal, so the metric-name extractor can recover exact source
/// text without re-scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 1-indexed source line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first character in the source.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Lexes `source` into tokens. Unterminated literals and comments are
/// tolerated (the remainder of the file is consumed as that literal):
/// the linter must keep walking a workspace even when one file is
/// mid-edit, and a truncated tail can only *hide* tokens, never invent
/// findings.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    byte_pos: usize,
    tok_start: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Self {
            chars: source.chars().collect(),
            pos: 0,
            byte_pos: 0,
            tok_start: 0,
            line: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, keeping the line counter and byte offset true.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            self.byte_pos += c.len_utf8();
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token {
            kind,
            text,
            line,
            start: self.tok_start,
            end: self.byte_pos,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            self.tok_start = self.byte_pos;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.skip_line_comment(),
                '/' if self.peek(1) == Some('*') => self.skip_block_comment(),
                '"' => self.lex_string(line),
                '\'' => self.lex_char_or_lifetime(line),
                c if c.is_ascii_digit() => self.lex_number(line),
                c if c == '_' || c.is_alphabetic() => self.lex_ident_or_prefixed(line),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn skip_line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    fn skip_block_comment(&mut self) {
        // Consume the opening `/*`, then balance nested comments.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// A plain `"…"` string starting at the current `"`.
    fn lex_string(&mut self, line: u32) {
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, "\"".to_string(), line);
    }

    /// A raw string `r"…"` / `r#"…"#` starting at the current `r`-prefix
    /// position; `hashes` is the number of `#` between `r` and `"`.
    fn lex_raw_string(&mut self, hashes: usize, line: u32) {
        // Consume up to and including the opening quote.
        for _ in 0..hashes + 1 {
            self.bump();
        }
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Str, "r\"".to_string(), line);
    }

    fn lex_char_or_lifetime(&mut self, line: u32) {
        // `'` then: escape → char literal; X followed by `'` → char literal;
        // anything else → lifetime.
        if self.peek(1) == Some('\\') {
            self.bump(); // '
            self.bump(); // backslash
            self.bump(); // escaped char
            while let Some(c) = self.bump() {
                if c == '\'' {
                    break;
                }
            }
            self.push(TokenKind::Char, "'".to_string(), line);
        } else if self.peek(2) == Some('\'') && self.peek(1).is_some() {
            self.bump();
            self.bump();
            self.bump();
            self.push(TokenKind::Char, "'".to_string(), line);
        } else {
            self.bump();
            let mut name = String::from("'");
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    name.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, name, line);
        }
    }

    fn lex_number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                // Exponent sign: `1e-6` / `1E+9` — only inside a decimal
                // number (hex digits include `e` but hex has no exponent).
                text.push(c);
                self.bump();
                if (c == 'e' || c == 'E')
                    && !text.starts_with("0x")
                    && !text.starts_with("0X")
                    && matches!(self.peek(0), Some('+') | Some('-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    text.push(self.bump().unwrap_or('+'));
                }
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !text.contains('.')
            {
                // `0.95` continues the number; `0..n` and `1.max(2)` do not.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line);
    }

    /// Identifier, keyword, or a string-literal prefix (`r""`, `b""`,
    /// `br#""#`, `c""`).
    fn lex_ident_or_prefixed(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Raw / byte / C string prefixes: the identifier ends exactly at a
        // quote (or `#…"` for raw flavors).
        let is_prefix = matches!(text.as_str(), "r" | "b" | "br" | "c" | "cr" | "rb");
        if is_prefix {
            if self.peek(0) == Some('"') {
                if text.contains('r') {
                    self.lex_raw_string(0, line);
                } else {
                    self.lex_string(line);
                }
                return;
            }
            if text.contains('r') && self.peek(0) == Some('#') {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    self.lex_raw_string(hashes, line);
                    return;
                }
            }
            // `b'x'` byte char.
            if text == "b" && self.peek(0) == Some('\'') {
                self.lex_char_or_lifetime(line);
                return;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // partial_cmp in a line comment
            /* partial_cmp in /* a nested */ block comment */
            let s = "partial_cmp in a string";
            let r = r#"partial_cmp in a raw "string""#;
            let b = b"partial_cmp in bytes";
        "##;
        let toks = lex(src);
        assert!(
            !toks.iter().any(|t| t.is_ident("partial_cmp")),
            "literal/comment content must not surface as identifiers: {toks:?}"
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 3);
    }

    #[test]
    fn chars_versus_lifetimes() {
        let toks = kinds("let c = 'x'; fn f<'a>(v: &'a str) -> char { '\\n' }");
        assert!(toks.contains(&(TokenKind::Char, "'".into())));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokenKind::Lifetime).count(),
            2
        );
    }

    #[test]
    fn numbers_with_dots_exponents_and_ranges() {
        let toks = kinds("0.95 1e-6 0xFF_u64 0..n 1.max(2)");
        assert!(toks.contains(&(TokenKind::Number, "0.95".into())));
        assert!(toks.contains(&(TokenKind::Number, "1e-6".into())));
        assert!(toks.contains(&(TokenKind::Number, "0xFF_u64".into())));
        // `0..n` is number, dot, dot, ident.
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Ident, "n".into())));
        // `1.max(2)` keeps `max` callable.
        assert!(toks.contains(&(TokenKind::Ident, "max".into())));
    }

    #[test]
    fn method_chain_tokens_in_order() {
        let toks = lex("maxima.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            idents,
            [
                "maxima",
                "sort_by",
                "a",
                "b",
                "a",
                "partial_cmp",
                "b",
                "unwrap"
            ]
        );
    }

    #[test]
    fn byte_spans_recover_source_text() {
        let src = "let n = reg.counter(\"stage.α.admitted\"); // π";
        let toks = lex(src);
        for t in &toks {
            assert!(t.start < t.end && t.end <= src.len(), "{t:?}");
        }
        let s = toks
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("string token");
        assert_eq!(&src[s.start..s.end], "\"stage.α.admitted\"");
        let id = toks.iter().find(|t| t.is_ident("counter")).expect("ident");
        assert_eq!(&src[id.start..id.end], "counter");
    }

    #[test]
    fn raw_string_spans_cover_the_full_literal() {
        let src = r###"let r = r#"metric "x""#;"###;
        let toks = lex(src);
        let s = toks
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("raw string token");
        assert_eq!(&src[s.start..s.end], r###"r#"metric "x""#"###);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n/* two\nlines */\nb \"str\nacross\" c";
        let toks = lex(src);
        let find = |name: &str| {
            toks.iter()
                .filter(|t| t.is_ident(name))
                .map(|t| t.line)
                .next()
        };
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("c"), Some(5));
    }
}
