//! Tokeniser for the micro-C subset.
//!
//! **What borrows, what owns.** A [`Token`] lives as long as the source
//! text it was cut from: identifiers and keywords are `&'src str` slices
//! of that text, punctuation is a `&'static str` out of this file, and
//! numbers and character constants are plain values — so lexing an
//! identifier allocates nothing and the parser's `bump` copies two
//! words. The one owner is a string literal: its text is *unescaped*
//! while lexing (`\n` becomes one byte), so it no longer is a slice of
//! the source and carries its own `String`.
//!
//! Punctuation is decided by the first byte and at most two bytes of
//! lookahead ([`punct`]), longest operator first (maximal munch).
//!
//! The loop charges one fuel unit per iteration (a token, one
//! whitespace byte, a comment or a preprocessor line), never per byte
//! inside a token: the scan is linear in the source, and the source is
//! bounded by `max_source_bytes` before the first byte is looked at.
//! `lexer_model.rs` keeps the previous tokeniser (owned identifiers, a
//! linear scan over the operator list) as the `#[cfg(test)]` reference.

use crate::error::CompileError;

/// A token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'src> {
    /// Token kind and payload.
    pub kind: TokenKind<'src>,
    /// 1-based line number.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (keywords are distinguished by the parser),
    /// borrowed from the source.
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// String literal (unescaped, hence owned).
    Str(String),
    /// Character constant value.
    Char(u8),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl<'src> TokenKind<'src> {
    /// The identifier text, if this is an identifier.
    #[must_use]
    pub fn as_ident(&self) -> Option<&'src str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// The operator or punctuator at the start of `rest` (non-empty), longest
/// match first: the first byte picks the family, the next one or two
/// bytes the member.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let second = rest.get(1).copied();
    let third = rest.get(2).copied();
    Some(match (rest[0], second, third) {
        (b'<', Some(b'<'), Some(b'=')) => "<<=",
        (b'>', Some(b'>'), Some(b'=')) => ">>=",
        (b'.', Some(b'.'), Some(b'.')) => "...",
        (b'&', Some(b'&'), _) => "&&",
        (b'|', Some(b'|'), _) => "||",
        (b'=', Some(b'='), _) => "==",
        (b'!', Some(b'='), _) => "!=",
        (b'<', Some(b'='), _) => "<=",
        (b'>', Some(b'='), _) => ">=",
        (b'+', Some(b'='), _) => "+=",
        (b'-', Some(b'='), _) => "-=",
        (b'*', Some(b'='), _) => "*=",
        (b'/', Some(b'='), _) => "/=",
        (b'%', Some(b'='), _) => "%=",
        (b'&', Some(b'='), _) => "&=",
        (b'|', Some(b'='), _) => "|=",
        (b'^', Some(b'='), _) => "^=",
        (b'<', Some(b'<'), _) => "<<",
        (b'>', Some(b'>'), _) => ">>",
        (b'+', Some(b'+'), _) => "++",
        (b'-', Some(b'-'), _) => "--",
        (b'-', Some(b'>'), _) => "->",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'+', ..) => "+",
        (b'-', ..) => "-",
        (b'*', ..) => "*",
        (b'/', ..) => "/",
        (b'%', ..) => "%",
        (b'&', ..) => "&",
        (b'|', ..) => "|",
        (b'^', ..) => "^",
        (b'~', ..) => "~",
        (b'!', ..) => "!",
        (b'<', ..) => "<",
        (b'>', ..) => ">",
        (b'=', ..) => "=",
        (b'.', ..) => ".",
        (b'?', ..) => "?",
        (b':', ..) => ":",
        _ => return None,
    })
}

/// Tokenises `source` without resource bounds.
///
/// # Errors
///
/// [`CompileError`] on malformed literals or unknown characters.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, CompileError> {
    lex_with(
        source,
        &cage_wasm::CompileLimits::unlimited(),
        &cage_wasm::CompileLimits::unlimited().fuel(),
    )
}

/// Tokenises `source`, rejecting oversized input and charging one fuel
/// unit per loop iteration (see the module docs).
///
/// # Errors
///
/// [`CompileError`] on malformed input or a busted limit.
pub fn lex_with<'src>(
    source: &'src str,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<Vec<Token<'src>>, CompileError> {
    if source.len() > limits.max_source_bytes {
        return Err(CompileError::from_limit(cage_wasm::LimitError {
            what: "source bytes",
            limit: limits.max_source_bytes as u64,
            actual: source.len() as u64,
        }));
    }
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1u32;

    while i < bytes.len() {
        fuel.charge(1).map_err(CompileError::from_limit)?;
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(CompileError::new(line, "unterminated block comment"));
                }
                i += 2;
            }
            b'#' => {
                // Preprocessor lines are ignored (PolyBench sources carry
                // includes/defines that the subset does not need).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(&source[start..i]),
                    line,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                if c == b'0' && bytes.get(i + 1).is_some_and(|b| *b == b'x' || *b == b'X') {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let v = i64::from_str_radix(&source[start + 2..i], 16)
                        .map_err(|_| CompileError::new(line, "bad hex literal"))?;
                    tokens.push(Token {
                        kind: TokenKind::Int(v),
                        line,
                    });
                    continue;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Integer suffixes (L, UL, …) are accepted and ignored.
                while i < bytes.len() && matches!(bytes[i], b'l' | b'L' | b'u' | b'U' | b'f' | b'F')
                {
                    if bytes[i] == b'f' || bytes[i] == b'F' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &source[start..i].trim_end_matches(['l', 'L', 'u', 'U', 'f', 'F']);
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| CompileError::new(line, "bad float literal"))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| CompileError::new(line, "bad integer literal"))?,
                    )
                };
                tokens.push(Token { kind, line });
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(CompileError::new(line, "unterminated string literal"));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            let esc = *bytes
                                .get(i)
                                .ok_or_else(|| CompileError::new(line, "bad escape"))?;
                            s.push(unescape(esc, line)? as char);
                            i += 1;
                        }
                        b => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                });
            }
            b'\'' => {
                i += 1;
                let v = match bytes.get(i) {
                    Some(b'\\') => {
                        i += 1;
                        let esc = *bytes
                            .get(i)
                            .ok_or_else(|| CompileError::new(line, "bad escape"))?;
                        i += 1;
                        unescape(esc, line)?
                    }
                    Some(b) => {
                        i += 1;
                        *b
                    }
                    None => return Err(CompileError::new(line, "unterminated char constant")),
                };
                if bytes.get(i) != Some(&b'\'') {
                    return Err(CompileError::new(line, "unterminated char constant"));
                }
                i += 1;
                tokens.push(Token {
                    kind: TokenKind::Char(v),
                    line,
                });
            }
            _ => match punct(&bytes[i..]) {
                Some(p) => {
                    tokens.push(Token {
                        kind: TokenKind::Punct(p),
                        line,
                    });
                    i += p.len();
                }
                None => {
                    // Every arm above stops on an ASCII byte, so `i` is
                    // a char boundary; were it not, name the byte.
                    let found = source.get(i..).and_then(|rest| rest.chars().next());
                    return Err(CompileError::new(
                        line,
                        match found {
                            Some(ch) => format!("unexpected character {ch:?}"),
                            None => format!("unexpected byte {c:#04x}"),
                        },
                    ));
                }
            },
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

fn unescape(esc: u8, line: u32) -> Result<u8, CompileError> {
    Ok(match esc {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        b'\\' => b'\\',
        b'\'' => b'\'',
        b'"' => b'"',
        other => {
            return Err(CompileError::new(
                line,
                format!("unknown escape \\{}", other as char),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_ints() {
        assert_eq!(
            kinds("foo 42 _bar9"),
            vec![
                TokenKind::Ident("foo"),
                TokenKind::Int(42),
                TokenKind::Ident("_bar9"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats_and_suffixes() {
        assert_eq!(
            kinds("1.5 2e3 7L 1.0f"),
            vec![
                TokenKind::Float(1.5),
                TokenKind::Float(2000.0),
                TokenKind::Int(7),
                TokenKind::Float(1.0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_hex() {
        assert_eq!(kinds("0xFF"), vec![TokenKind::Int(255), TokenKind::Eof]);
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            kinds("a<<=b->c++"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct("<<="),
                TokenKind::Ident("b"),
                TokenKind::Punct("->"),
                TokenKind::Ident("c"),
                TokenKind::Punct("++"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_and_chars_with_escapes() {
        assert_eq!(
            kinds(r#""hi\n" 'A' '\0'"#),
            vec![
                TokenKind::Str("hi\n".into()),
                TokenKind::Char(b'A'),
                TokenKind::Char(0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_and_preprocessor_skipped() {
        assert_eq!(
            kinds("#include <x.h>\n// line\n/* block\nblock */ x"),
            vec![TokenKind::Ident("x"), TokenKind::Eof]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn errors_on_unterminated_string() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
    }
}
