//! A minimal Rust lexer — just enough token structure for the invariant
//! rules in [`crate::rules`]. Hand-rolled because the build image has no
//! registry access (same constraint that produced `crates/compat`): no
//! `syn`, no `proc-macro2`, std only.
//!
//! The lexer understands the parts of Rust surface syntax that would
//! otherwise produce false findings: line and (nested) block comments,
//! string / raw-string / byte-string literals, char literals vs
//! lifetimes, and numeric literals. Everything else becomes `Ident`,
//! `Literal`, or single-char `Punct` tokens carrying their 1-based line
//! number, so rules can pattern-match token windows without regexes
//! tripping over `"a string containing .unwrap()"`.

/// What a token is. Coarse on purpose: the rules only ever distinguish
/// identifiers, string literals, and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`while`, `unsafe`, `budget`, …).
    Ident,
    /// String literal of any flavor; `text` holds the *contents*
    /// (quotes and raw-string hashes stripped, escapes left as-is).
    Str,
    /// Char literal or lifetime (`'a'`, `'static`) — rules ignore these.
    CharLike,
    /// Numeric literal.
    Num,
    /// Single punctuation character (`.`, `[`, `{`, `!`, …).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// One comment (line or block) with its position — kept out of the
/// token stream so rules scan clean syntax, but preserved because two
/// rules read them: `safety-comment` (`// SAFETY:`) and the waiver
/// parser (`// lint:allow(rule): why`).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equals `line` for `//`).
    pub end_line: u32,
}

/// Lexed file: tokens plus the comment sidecar.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src`. Unterminated constructs (string/comment at EOF) are
/// tolerated: the remainder is swallowed into the open token so the
/// analyzer degrades to fewer tokens rather than panicking — the lint
/// binary must hold itself to the panic-free contract it enforces.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();
    let bump = |c: char, line: &mut u32| {
        if c == '\n' {
            *line += 1;
        }
    };
    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump(c, &mut line);
            i += 1;
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            let start_line = line;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                text: b[start..i].iter().collect(),
                line: start_line,
                end_line: start_line,
            });
            continue;
        }
        // Block comment, nesting tracked.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            i += 2;
            let mut depth = 1usize;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump(b[i], &mut line);
                    i += 1;
                }
            }
            out.comments.push(Comment {
                text: b[start..i.min(n)].iter().collect(),
                line: start_line,
                end_line: line,
            });
            continue;
        }
        // Raw strings r"…", r#"…"#, and the br variants. If the prefix
        // does not pan out (`r` was just the start of an identifier),
        // fall through to the ident path below.
        if c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r') {
            let mut j = i + 1;
            if c == 'b' {
                j += 1; // skip the `r` of `br`
            }
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                let start_line = line;
                j += 1; // past the opening quote
                let content_start = j;
                let mut end = n; // content end (exclusive); n if unterminated
                let mut after = n; // index to resume lexing at
                while j < n {
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while k < n && b[k] == '#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            end = j;
                            after = k;
                            break;
                        }
                    }
                    j += 1;
                }
                for &ch in &b[content_start..end] {
                    bump(ch, &mut line);
                }
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: b[content_start..end].iter().collect(),
                    line: start_line,
                });
                i = after;
                continue;
            }
        }
        // Byte string b"..." — same body rules as a plain string.
        // Plain string "..."
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let content_start = j;
            while j < n {
                match b[j] {
                    '\\' => {
                        j += 2;
                    }
                    '"' => break,
                    ch => {
                        bump(ch, &mut line);
                        j += 1;
                    }
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: b[content_start..j.min(n)].iter().collect(),
                line: start_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Char literal vs lifetime. After `'`: if the next char starts
        // an identifier and the char after the identifier run is not a
        // closing `'`, it is a lifetime (`'a`, `'static`); otherwise a
        // char literal (`'a'`, `'\n'`, `'<'`).
        if c == '\'' {
            let start_line = line;
            let mut j = i + 1;
            if j < n && is_ident_start(b[j]) {
                let mut k = j;
                while k < n && is_ident_continue(b[k]) {
                    k += 1;
                }
                if k < n && b[k] == '\'' && k == j + 1 {
                    // 'x' — single-char literal.
                    out.toks.push(Tok {
                        kind: TokKind::CharLike,
                        text: b[i..=k].iter().collect(),
                        line: start_line,
                    });
                    i = k + 1;
                } else {
                    // Lifetime.
                    out.toks.push(Tok {
                        kind: TokKind::CharLike,
                        text: b[i..k].iter().collect(),
                        line: start_line,
                    });
                    i = k;
                }
                continue;
            }
            // Escaped or punctuation char literal: scan to closing '.
            while j < n {
                match b[j] {
                    '\\' => j += 2,
                    '\'' => break,
                    ch => {
                        bump(ch, &mut line);
                        j += 1;
                    }
                }
            }
            out.toks.push(Tok {
                kind: TokKind::CharLike,
                text: b[i..(j + 1).min(n)].iter().collect(),
                line: start_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number (coarse: digits plus the usual continuation chars).
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (b[i].is_ascii_alphanumeric() || b[i] == '_' || b[i] == '.')
                && !(b[i] == '.' && i + 1 < n && b[i + 1] == '.')
            {
                // Stop `0..n` range syntax from being eaten as `0.`.
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Everything else: one punct char per token.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        let t = kinds(r#"let s = "x.unwrap()"; y.unwrap()"#);
        let unwraps = t
            .iter()
            .filter(|(k, s)| *k == TokKind::Ident && s == "unwrap")
            .count();
        assert_eq!(unwraps, 1);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let t = kinds("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Ident && s == "str"));
    }

    #[test]
    fn comments_are_kept_in_the_sidecar_with_lines() {
        let l = lex("// SAFETY: fine\nunsafe { }\n");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("SAFETY"));
        assert_eq!(l.toks[0].text, "unsafe");
        assert_eq!(l.toks[0].line, 2);
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let l = lex("/* a /* b */ c */ r#\"quote \" inside\"# ident");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.toks.len(), 2);
        assert_eq!(l.toks[0].kind, TokKind::Str);
        assert!(l.toks[0].text.contains("quote"));
        assert_eq!(l.toks[1].text, "ident");
    }

    #[test]
    fn range_syntax_survives_number_lexing() {
        let t = kinds("for i in 0..10 {}");
        assert!(t.iter().any(|(_, s)| s == "0"));
        assert!(t.iter().any(|(_, s)| s == "10"));
        assert_eq!(t.iter().filter(|(_, s)| s == ".").count(), 2);
    }
}
