//! Tokenizer for the HDBL-flavoured language.
//!
//! Tokens borrow the input: an identifier or a string literal is a slice of
//! the statement text, a keyword a [`Keyword`] matched case-insensitively in
//! place. Lexing allocates nothing; the parser allocates only the names and
//! literals the AST keeps.

use crate::error::QueryError;
use crate::Result;
use std::fmt;

/// Reserved words of the query language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `WHERE`
    Where,
    /// `FOR`
    For,
    /// `READ`
    Read,
    /// `UPDATE`
    Update,
    /// `IN`
    In,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `DELETE`
    Delete,
    /// `SET`
    Set,
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// `NOT`
    Not,
    /// `INSERT`
    Insert,
    /// `INTO`
    Into,
    /// `VALUES`
    Values,
}

const KEYWORDS: [(Keyword, &str); 17] = [
    (Keyword::Select, "SELECT"),
    (Keyword::From, "FROM"),
    (Keyword::Where, "WHERE"),
    (Keyword::For, "FOR"),
    (Keyword::Read, "READ"),
    (Keyword::Update, "UPDATE"),
    (Keyword::In, "IN"),
    (Keyword::And, "AND"),
    (Keyword::Or, "OR"),
    (Keyword::Delete, "DELETE"),
    (Keyword::Set, "SET"),
    (Keyword::True, "TRUE"),
    (Keyword::False, "FALSE"),
    (Keyword::Not, "NOT"),
    (Keyword::Insert, "INSERT"),
    (Keyword::Into, "INTO"),
    (Keyword::Values, "VALUES"),
];

impl Keyword {
    /// The keyword `word` spells in any case, if it is one.
    pub fn from_word(word: &str) -> Option<Keyword> {
        // Upper-cased once on the stack: no keyword is longer than six
        // letters, and most identifiers are ruled out by their length.
        let mut upper = [0u8; 6];
        let upper = upper.get_mut(..word.len())?;
        for (u, b) in upper.iter_mut().zip(word.as_bytes()) {
            *u = b.to_ascii_uppercase();
        }
        KEYWORDS.iter().find(|(_, k)| k.as_bytes() == upper).map(|&(kw, _)| kw)
    }

    /// The canonical (upper-case) spelling.
    pub fn as_str(self) -> &'static str {
        KEYWORDS[self as usize].1
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tokens of the query language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Keyword (matched in any case).
    Keyword(Keyword),
    /// Identifier (case-preserved).
    Ident(&'a str),
    /// String literal (quotes removed).
    Str(&'a str),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `*`
    Star,
    /// `:`
    Colon,
}

/// A token with where it stands in the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lexeme<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte offset of its first character.
    pub offset: usize,
    /// The token as written (a string literal with its quotes).
    pub text: &'a str,
}

/// The tokens of an input, one at a time; an error ends the stream.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn lex(&mut self) -> Option<Result<Lexeme<'a>>> {
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        let start = self.pos;
        let c = *bytes.get(start)?;
        let (token, end) = match c {
            b',' => (Token::Comma, start + 1),
            b'.' => (Token::Dot, start + 1),
            b'(' => (Token::LParen, start + 1),
            b')' => (Token::RParen, start + 1),
            b'*' => (Token::Star, start + 1),
            b':' => (Token::Colon, start + 1),
            b'=' => (Token::Eq, start + 1),
            b'<' => match bytes.get(start + 1) {
                Some(b'>') => (Token::Neq, start + 2),
                Some(b'=') => (Token::Le, start + 2),
                _ => (Token::Lt, start + 1),
            },
            b'>' => match bytes.get(start + 1) {
                Some(b'=') => (Token::Ge, start + 2),
                _ => (Token::Gt, start + 1),
            },
            b'\'' => {
                let Some(len) = bytes[start + 1..].iter().position(|&b| b == b'\'') else {
                    return Some(Err(self.error(start, "unterminated string literal".into())));
                };
                let close = start + 1 + len;
                (Token::Str(&self.input[start + 1..close]), close + 1)
            }
            c if c.is_ascii_digit() || c == b'-' => {
                let mut end = start + 1;
                let mut is_real = false;
                while let Some(&d) = bytes.get(end) {
                    if d.is_ascii_digit() {
                        end += 1;
                    } else if d == b'.'
                        && !is_real
                        && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
                    {
                        is_real = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.input[start..end];
                let token = if is_real {
                    text.parse().map(Token::Real).map_err(|_| "real")
                } else {
                    text.parse().map(Token::Int).map_err(|_| "integer")
                };
                match token {
                    Ok(token) => (token, end),
                    Err(kind) => {
                        let message = format!("bad {kind} literal `{text}`");
                        return Some(Err(self.error(start, message)));
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .position(|&d| !(d.is_ascii_alphanumeric() || d == b'_'))
                    .unwrap_or(bytes.len() - start);
                let word = &self.input[start..start + len];
                let token = Keyword::from_word(word).map_or(Token::Ident(word), Token::Keyword);
                (token, start + len)
            }
            _ => {
                // Every token so far ends in an ASCII byte, so `start` is a
                // char boundary.
                let other = self.input[start..].chars().next().unwrap_or_default();
                return Some(Err(self.error(start, format!("unexpected character `{other}`"))));
            }
        };
        self.pos = end;
        Some(Ok(Lexeme { token, offset: start, text: &self.input[start..end] }))
    }

    /// A lexical error at `position`; the stream ends with it.
    fn error(&mut self, position: usize, message: String) -> QueryError {
        self.pos = self.input.len();
        QueryError::Lex { position, message }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Lexeme<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lex()
    }
}

/// Tokenizes all of `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(input).map(|l| l.map(|l| l.token)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_q2() {
        let q = "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE";
        let t = tokenize(q).unwrap();
        assert_eq!(t[0], Token::Keyword(Keyword::Select));
        assert!(t.contains(&Token::Str("c1")));
        assert!(t.contains(&Token::Keyword(Keyword::Update)));
        assert!(t.contains(&Token::Dot));
    }

    #[test]
    fn keywords_case_insensitive_identifiers_not() {
        let t = tokenize("select Robots").unwrap();
        assert_eq!(t[0], Token::Keyword(Keyword::Select));
        assert_eq!(t[1], Token::Ident("Robots"));
    }

    #[test]
    fn lexemes_carry_offset_and_text() {
        let l: Vec<Lexeme<'_>> = Lexer::new("sElEct  'c1'\t>=").collect::<Result<_>>().unwrap();
        let at: Vec<(usize, &str)> = l.iter().map(|l| (l.offset, l.text)).collect();
        assert_eq!(at, [(0, "sElEct"), (8, "'c1'"), (13, ">=")]);
    }

    #[test]
    fn keyword_table_spells_every_keyword() {
        for (kw, word) in KEYWORDS {
            assert_eq!(kw.as_str(), word);
            assert_eq!(Keyword::from_word(&word.to_ascii_lowercase()), Some(kw));
        }
    }

    #[test]
    fn numbers_and_comparisons() {
        let t = tokenize("x >= 10 AND y < 2.5 OR z <> -3").unwrap();
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Real(2.5)));
        assert!(t.contains(&Token::Int(-3)));
        assert!(t.contains(&Token::Neq));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("WHERE a = 'oops"), Err(QueryError::Lex { position: 10, .. })));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(tokenize("a ; b"), Err(QueryError::Lex { position: 2, .. })));
    }
}
