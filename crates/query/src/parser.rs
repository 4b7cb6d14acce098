//! Recursive-descent parser.
//!
//! The parser pulls borrowed tokens from the [`Lexer`] one at a time and
//! looks one token ahead; it allocates only the names and literals the AST
//! keeps. An error's position is the byte offset of the offending token, or
//! the input's length at its end.

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{Keyword, Lexeme, Lexer, Token};
use crate::Result;
use colock_nf2::{Name, Value};

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token; `None` at the end of input or at a lexical error.
    peeked: Option<Lexeme<'a>>,
    /// The lexical error that ended the token stream, if one did.
    lex_error: Option<QueryError>,
    input_len: usize,
}

/// Parses one statement.
pub fn parse(input: &str) -> Result<Statement> {
    let lexer = Lexer::new(input);
    let mut p = Parser { lexer, peeked: None, lex_error: None, input_len: input.len() };
    p.advance();
    let stmt = p.statement()?;
    if p.peeked.is_some() || p.lex_error.is_some() {
        return Err(p.expected("end of statement"));
    }
    Ok(stmt)
}

impl<'a> Parser<'a> {
    fn advance(&mut self) {
        self.peeked = match self.lexer.next() {
            Some(Ok(lexeme)) => Some(lexeme),
            Some(Err(e)) => {
                self.lex_error = Some(e);
                None
            }
            None => None,
        };
    }

    /// An error at the next token. A lexical error anywhere in the input
    /// is reported instead, as if the whole input were tokenized first.
    fn err(&mut self, message: String) -> QueryError {
        if self.lex_error.is_none() {
            self.lex_error = self.lexer.find_map(Result::err);
        }
        if let Some(e) = self.lex_error.take() {
            return e;
        }
        let position = self.peeked.map_or(self.input_len, |l| l.offset);
        QueryError::Parse { position, message }
    }

    /// "expected `what`, found" the next token as written.
    fn expected(&mut self, what: &str) -> QueryError {
        let message = match self.peeked {
            Some(l) => format!("expected {what}, found `{}`", l.text),
            None => format!("expected {what}, found end of input"),
        };
        self.err(message)
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.peeked.map(|l| l.token)
    }

    fn eat(&mut self, token: Token<'_>) -> bool {
        if self.peek() == Some(token) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: Token<'_>, what: &str) -> Result<()> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(Token::Keyword(kw))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<Name> {
        self.expect_var(None)
    }

    /// An identifier naming a variable: the first of the `known` names it
    /// spells, shared, or else a new name.
    fn expect_var<'n>(&mut self, known: impl IntoIterator<Item = &'n Name>) -> Result<Name> {
        match self.peek() {
            Some(Token::Ident(i)) => {
                self.advance();
                Ok(known.into_iter().find(|n| ***n == *i).map_or_else(|| i.into(), Name::clone))
            }
            _ => Err(self.expected("identifier")),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword(Keyword::Select) {
            return self.select();
        }
        if self.eat_keyword(Keyword::Update) {
            return self.update();
        }
        if self.eat_keyword(Keyword::Delete) {
            return self.delete();
        }
        if self.eat_keyword(Keyword::Insert) {
            return self.insert();
        }
        Err(self.expected("SELECT, UPDATE, DELETE or INSERT"))
    }

    fn select(&mut self) -> Result<Statement> {
        let mut count = false;
        let mut projections = Vec::new();
        if matches!(self.peek(), Some(Token::Ident(i)) if i.eq_ignore_ascii_case("COUNT")) {
            // COUNT ( * )
            self.advance();
            self.expect(Token::LParen, "`(` after COUNT")?;
            self.expect(Token::Star, "`*` in COUNT(*)")?;
            self.expect(Token::RParen, "`)` after COUNT(*")?;
            count = true;
            // COUNT still needs a range to bind; project the first var.
            projections.push(Operand::Path { var: "*".into(), path: Vec::new() });
        } else {
            loop {
                if self.eat(Token::Star) {
                    projections.push(Operand::Path { var: "*".into(), path: Vec::new() });
                } else {
                    projections.push(self.path_operand(&[])?);
                }
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        self.expect_keyword(Keyword::From)?;
        let ranges = self.ranges(projections.first().and_then(path_var))?;
        let condition = self.opt_where(&ranges)?;
        let for_clause = if self.eat_keyword(Keyword::For) {
            if self.eat_keyword(Keyword::Read) {
                ForClause::Read
            } else if self.eat_keyword(Keyword::Update) {
                ForClause::Update
            } else {
                return Err(self.expected("READ or UPDATE after FOR"));
            }
        } else {
            ForClause::Read
        };
        Ok(Statement::Select(Query { projections, count, ranges, condition, for_clause }))
    }

    fn update(&mut self) -> Result<Statement> {
        // UPDATE var.path = literal FROM ranges [WHERE cond]
        let target = self.path_operand(&[])?;
        self.expect(Token::Eq, "`=` in UPDATE")?;
        let value = self.literal()?;
        self.expect_keyword(Keyword::From)?;
        let ranges = self.ranges(path_var(&target))?;
        let condition = self.opt_where(&ranges)?;
        Ok(Statement::Update { target, value, ranges, condition })
    }

    /// `INSERT INTO relation VALUES (attr: literal, …)` — flat tuples only;
    /// nested complex objects are inserted through the API
    /// ([`Statement::Insert`] with a pre-built value).
    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Into)?;
        let relation = self.expect_ident()?;
        self.expect_keyword(Keyword::Values)?;
        self.expect(Token::LParen, "`(`")?;
        let mut fields = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect(Token::Colon, "`:` after attribute name")?;
            let value = self.literal()?;
            fields.push((name, value));
            if self.eat(Token::RParen) {
                break;
            }
            self.expect(Token::Comma, "`,` or `)`")?;
        }
        Ok(Statement::Insert { relation, value: Value::Tuple(fields.into()) })
    }

    fn delete(&mut self) -> Result<Statement> {
        let var = self.expect_ident()?;
        self.expect_keyword(Keyword::From)?;
        let ranges = self.ranges(Some(&var))?;
        let condition = self.opt_where(&ranges)?;
        Ok(Statement::Delete { var, ranges, condition })
    }

    /// The FROM list; a range named like the statement's `target`
    /// variable shares its name.
    fn ranges(&mut self, target: Option<&Name>) -> Result<Vec<RangeDecl>> {
        let mut out = Vec::new();
        loop {
            let range = self.range(&out, target)?;
            out.push(range);
            if !self.eat(Token::Comma) {
                return Ok(out);
            }
        }
    }

    /// `var IN relation` or `var IN parent.path`, `parent` declared in
    /// `scope`.
    fn range(&mut self, scope: &[RangeDecl], target: Option<&Name>) -> Result<RangeDecl> {
        let var = self.expect_var(target)?;
        self.expect_keyword(Keyword::In)?;
        let first = self.expect_var(vars(scope))?;
        if self.peek() == Some(Token::Dot) {
            let path = self.dot_path()?;
            Ok(RangeDecl { var, source: RangeSource::Path { parent: first, path } })
        } else {
            Ok(RangeDecl { var, source: RangeSource::Relation(first) })
        }
    }

    fn opt_where(&mut self, scope: &[RangeDecl]) -> Result<Option<Condition>> {
        if self.eat_keyword(Keyword::Where) {
            Ok(Some(self.condition(scope)?))
        } else {
            Ok(None)
        }
    }

    fn condition(&mut self, scope: &[RangeDecl]) -> Result<Condition> {
        let mut left = self.conjunction(scope)?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.conjunction(scope)?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn conjunction(&mut self, scope: &[RangeDecl]) -> Result<Condition> {
        let mut left = self.atom(scope)?;
        while self.eat_keyword(Keyword::And) {
            let right = self.atom(scope)?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn atom(&mut self, scope: &[RangeDecl]) -> Result<Condition> {
        if self.eat_keyword(Keyword::Not) {
            return Ok(Condition::Not(Box::new(self.atom(scope)?)));
        }
        if self.eat(Token::LParen) {
            let c = self.condition(scope)?;
            self.expect(Token::RParen, "`)`")?;
            return Ok(c);
        }
        let left = self.operand(scope)?;
        let op = match self.peek() {
            Some(Token::Eq) => Comparison::Eq,
            Some(Token::Neq) => Comparison::Neq,
            Some(Token::Lt) => Comparison::Lt,
            Some(Token::Le) => Comparison::Le,
            Some(Token::Gt) => Comparison::Gt,
            Some(Token::Ge) => Comparison::Ge,
            _ => return Err(self.expected("comparison")),
        };
        self.advance();
        let right = self.operand(scope)?;
        Ok(Condition::Cmp { left, op, right })
    }

    fn operand(&mut self, scope: &[RangeDecl]) -> Result<Operand> {
        match self.peek() {
            Some(Token::Ident(_)) => self.path_operand(scope),
            _ => Ok(Operand::Literal(self.literal()?)),
        }
    }

    fn path_operand(&mut self, scope: &[RangeDecl]) -> Result<Operand> {
        let var = self.expect_var(vars(scope))?;
        let path = self.dot_path()?;
        Ok(Operand::Path { var, path })
    }

    /// The `.step` suffixes that follow a name.
    fn dot_path(&mut self) -> Result<Vec<Name>> {
        let mut path = Vec::new();
        while self.eat(Token::Dot) {
            path.push(self.expect_ident()?);
        }
        Ok(path)
    }

    fn literal(&mut self) -> Result<Value> {
        let value = match self.peek() {
            Some(Token::Str(s)) => Value::Str(s.to_string()),
            Some(Token::Int(i)) => Value::Int(i),
            Some(Token::Real(r)) => Value::Real(r),
            Some(Token::Keyword(Keyword::True)) => Value::Bool(true),
            Some(Token::Keyword(Keyword::False)) => Value::Bool(false),
            _ => return Err(self.expected("literal")),
        };
        self.advance();
        Ok(value)
    }
}

/// The variable of a path operand.
fn path_var(op: &Operand) -> Option<&Name> {
    match op {
        Operand::Path { var, .. } => Some(var),
        Operand::Literal(_) => None,
    }
}

/// The variables `scope` declares.
fn vars(scope: &[RangeDecl]) -> impl Iterator<Item = &Name> {
    scope.iter().map(|r| &r.var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let s = parse(
            "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ",
        )
        .unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.ranges.len(), 2);
        assert_eq!(q.for_clause, ForClause::Read);
        assert_eq!(
            q.ranges[1].source,
            RangeSource::Path { parent: "c".into(), path: vec!["c_objects".into()] }
        );
    }

    #[test]
    fn parses_q2_and_q3() {
        for (robot, _) in [("r1", ()), ("r2", ())] {
            let s = parse(&format!(
                "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = '{robot}' FOR UPDATE"
            ))
            .unwrap();
            let Statement::Select(q) = s else { panic!() };
            assert_eq!(q.for_clause, ForClause::Update);
            assert!(matches!(q.condition, Some(Condition::And(_, _))));
        }
    }

    #[test]
    fn parses_update_statement() {
        let s = parse(
            "UPDATE r.trajectory = 'vertical' FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r2'",
        )
        .unwrap();
        let Statement::Update { target, value, ranges, condition } = s else { panic!() };
        assert_eq!(target, Operand::Path { var: "r".into(), path: vec!["trajectory".into()] });
        assert_eq!(value, Value::str("vertical"));
        assert_eq!(ranges.len(), 2);
        assert!(condition.is_some());
    }

    #[test]
    fn parses_delete_statement() {
        let s = parse("DELETE e FROM e IN effectors WHERE e.eff_id = 'e3'").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn parses_or_not_parens() {
        let s = parse(
            "SELECT c FROM c IN cells WHERE NOT (c.cell_id = 'c1' OR c.cell_id = 'c2') FOR READ",
        )
        .unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert!(matches!(q.condition, Some(Condition::Not(_))));
    }

    #[test]
    fn default_for_clause_is_read() {
        let s = parse("SELECT c FROM c IN cells").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.for_clause, ForClause::Read);
    }

    #[test]
    fn star_projection() {
        let s = parse("SELECT * FROM c IN cells FOR READ").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.projections, vec![Operand::Path { var: "*".into(), path: vec![] }]);
    }

    #[test]
    fn error_on_missing_from() {
        assert!(matches!(parse("SELECT c WHERE x = 1"), Err(QueryError::Parse { .. })));
    }

    #[test]
    fn error_on_trailing_tokens() {
        assert!(parse("SELECT c FROM c IN cells FOR READ garbage").is_err());
    }

    #[test]
    fn numeric_and_bool_literals() {
        let s = parse("SELECT c FROM c IN cells WHERE c.size >= 10 AND c.live = TRUE FOR READ")
            .unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert!(q.condition.is_some());
    }
}
