//! The tokeniser as it was before tokens borrowed the source, kept as
//! the reference model for [`crate::lexer`]: identifiers are owned
//! `String`s and punctuation is found by trying `PUNCTS` front to back.
//! `lex_with` below is that code verbatim; the tests at the bottom hold
//! the production lexer to it — same `(kind, line)` stream, same error,
//! same fuel — on every short punctuation string and on a seeded stream
//! of byte-mutated C snippets.

use crate::error::CompileError;

#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: TokenKind,
    line: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum TokenKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Char(u8),
    Punct(&'static str),
    Eof,
}

const PUNCTS: &[&str] = &[
    // Longest first so maximal munch works.
    "<<=", ">>=", "...", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=", "<<", ">>", "++", "--", "->", "(", ")", "{", "}", "[", "]", ";", ",", "+", "-",
    "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", ".", "?", ":",
];

fn lex_with(
    source: &str,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<Vec<Token>, CompileError> {
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
                    kind: TokenKind::Ident(source[start..i].to_string()),
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
            _ => {
                let rest = &source[i..];
                let punct = PUNCTS.iter().find(|p| rest.starts_with(**p));
                match punct {
                    Some(p) => {
                        tokens.push(Token {
                            kind: TokenKind::Punct(p),
                            line,
                        });
                        i += p.len();
                    }
                    None => {
                        return Err(CompileError::new(
                            line,
                            format!("unexpected character {:?}", rest.chars().next().unwrap()),
                        ))
                    }
                }
            }
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

// -- production against the model -------------------------------------------

use crate::lexer;

fn owned(kind: &lexer::TokenKind<'_>) -> TokenKind {
    match kind {
        lexer::TokenKind::Ident(s) => TokenKind::Ident((*s).to_string()),
        lexer::TokenKind::Int(v) => TokenKind::Int(*v),
        lexer::TokenKind::Float(v) => TokenKind::Float(*v),
        lexer::TokenKind::Str(s) => TokenKind::Str(s.clone()),
        lexer::TokenKind::Char(c) => TokenKind::Char(*c),
        lexer::TokenKind::Punct(p) => TokenKind::Punct(p),
        lexer::TokenKind::Eof => TokenKind::Eof,
    }
}

/// Tokens (or the error) and the fuel consumed, under `limits`.
type Outcome = (Result<Vec<Token>, CompileError>, u64);

fn production(source: &str, limits: &cage_wasm::CompileLimits) -> Outcome {
    let fuel = limits.fuel();
    let tokens = lexer::lex_with(source, limits, &fuel).map(|tokens| {
        tokens
            .iter()
            .map(|t| Token {
                kind: owned(&t.kind),
                line: t.line,
            })
            .collect()
    });
    (tokens, fuel.consumed())
}

fn model(source: &str, limits: &cage_wasm::CompileLimits) -> Outcome {
    let fuel = limits.fuel();
    let tokens = lex_with(source, limits, &fuel);
    (tokens, fuel.consumed())
}

/// NaN-tolerant equality: a float token compares by bits.
fn same(a: &Outcome, b: &Outcome) -> bool {
    let bits = |k: &TokenKind| match k {
        TokenKind::Float(v) => Some(v.to_bits()),
        _ => None,
    };
    a.1 == b.1
        && match (&a.0, &b.0) {
            (Ok(x), Ok(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|(s, t)| {
                        s.line == t.line
                            && (s.kind == t.kind
                                || (bits(&s.kind).is_some() && bits(&s.kind) == bits(&t.kind)))
                    })
            }
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
}

fn assert_agree(source: &str, limits: &cage_wasm::CompileLimits) {
    let (p, m) = (production(source, limits), model(source, limits));
    assert!(
        same(&p, &m),
        "lexers disagree on {source:?}\n production: {p:?}\n model:      {m:?}"
    );
}

/// The 24 bytes some operator or punctuator starts with.
const PUNCT_BYTES: &[u8; 24] = b"<>.&|=!+-*/%^(){}[];,~?:";

#[test]
fn every_punctuation_byte_starts_an_operator() {
    let mut firsts: Vec<u8> = PUNCTS.iter().map(|p| p.as_bytes()[0]).collect();
    firsts.sort_unstable();
    firsts.dedup();
    let mut listed = PUNCT_BYTES.to_vec();
    listed.sort_unstable();
    assert_eq!(firsts, listed);
}

#[test]
fn every_short_punctuation_string_lexes_as_the_model_does() {
    let unlimited = cage_wasm::CompileLimits::unlimited();
    let mut checked = 0u32;
    for &a in PUNCT_BYTES {
        assert_agree(std::str::from_utf8(&[a]).unwrap(), &unlimited);
        for &b in PUNCT_BYTES {
            assert_agree(std::str::from_utf8(&[a, b]).unwrap(), &unlimited);
            for &c in PUNCT_BYTES {
                assert_agree(std::str::from_utf8(&[a, b, c]).unwrap(), &unlimited);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24 * 24 * 24);
}

/// The seeds: the lexer's own unit-test strings and one PolyBench-style
/// kernel (they live here because an integration test cannot see a
/// `#[cfg(test)]` item).
const SEEDS: &[&str] = &[
    "foo 42 _bar9",
    "1.5 2e3 7L 1.0f 0x1F 0XaB 3.e+2 1e-3UL 9223372036854775807 9223372036854775808",
    "a<<=b->c++ - --d ... x.y ? p : q; a>>=1; m%=n; k^=~j; !u != v",
    r#""hi\n" 'A' '\0' "tab\t\"q\"" '\\' '\'' "" "\q" 'ab' '"#,
    "#include <x.h>\n// line\n/* block\nblock */ x /* open",
    "a\nb\r\n\n\tc $ @ ` \\ \u{e9} \u{4e16}\u{754c} \u{1F600}",
    "static void kernel_gemm(int ni, int nj, int nk, double alpha, double beta,\n\
     \x20   double C[16][16], double A[16][16], double B[16][16]) {\n\
     \x20 int i, j, k;\n\
     #pragma scop\n\
     \x20 for (i = 0; i < ni; i++) {\n\
     \x20   for (j = 0; j < nj; j++) C[i][j] *= beta;\n\
     \x20   for (k = 0; k < nk; k++) {\n\
     \x20     for (j = 0; j < nj; j++) C[i][j] += alpha * A[i][k] * B[k][j]; /* axpy */\n\
     \x20   }\n\
     \x20 }\n\
     #pragma endscop\n\
     }\n\
     long checksum(double *p, long n) { long s = 0; while (n-- > 0) s += (long)p[n] >> 1; return s; }\n",
];

/// SplitMix64, so the stream needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes worth splicing in: every punctuation byte, the delimiters of
/// the other token classes, and a few that start nothing.
const ALPHABET: &[u8] = b"<>.&|=!+-*/%^(){}[];,~?:\"'\\#\n\r\t eExXlLuUfF019az_@$`\x7f";

fn mutate(rng: &mut Rng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(6) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = ALPHABET[rng.below(ALPHABET.len())],
            2 => bytes.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
            3 => {
                // Cut: everything from `at` on goes (unterminated tails).
                bytes.truncate(at.max(1));
            }
            _ => {
                // Duplicate a short window somewhere else.
                let from = rng.below(bytes.len());
                let window = bytes[from..(from + 1 + rng.below(4)).min(bytes.len())].to_vec();
                let at = at.min(bytes.len());
                bytes.splice(at..at, window);
            }
        }
        if bytes.is_empty() {
            bytes.push(b';');
        }
    }
    // A mutation may have split a multi-byte character; the lexer takes
    // `&str`, so repair the way a caller reading a file would.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_snippets_lex_as_the_model_does() {
    let unlimited = cage_wasm::CompileLimits::unlimited();
    for seed in SEEDS {
        assert_agree(seed, &unlimited);
    }
    let mut rng = Rng(0x1e8e_0020);
    for case in 0..6_000 {
        let source = mutate(&mut rng, SEEDS[case % SEEDS.len()]);
        assert_agree(&source, &unlimited);
        // The same input on a budget that runs out part-way, and under a
        // source-size limit it may or may not fit: same error, same fuel.
        let tight = cage_wasm::CompileLimits {
            max_compile_fuel: 1 + rng.below(2 * source.len() + 2) as u64,
            max_source_bytes: source.len() - rng.below(2).min(source.len()),
            ..cage_wasm::CompileLimits::unlimited()
        };
        assert_agree(&source, &tight);
    }
}
