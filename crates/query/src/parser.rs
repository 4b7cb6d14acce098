//! Recursive-descent parser.

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{tokenize, Token};
use crate::Result;
use colock_nf2::Value;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Parses one statement.
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse { position: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(i)) => Ok(i),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("SELECT") {
            return self.select();
        }
        if self.eat_keyword("UPDATE") {
            return self.update();
        }
        if self.eat_keyword("DELETE") {
            return self.delete();
        }
        if self.eat_keyword("INSERT") {
            return self.insert();
        }
        Err(self.err("expected SELECT, UPDATE, DELETE or INSERT"))
    }

    fn select(&mut self) -> Result<Statement> {
        let mut count = false;
        let mut projections = Vec::new();
        if matches!(self.peek(), Some(Token::Ident(i)) if i.eq_ignore_ascii_case("COUNT")) {
            // COUNT ( * )
            self.pos += 1;
            if !matches!(self.next(), Some(Token::LParen)) {
                return Err(self.err("expected `(` after COUNT"));
            }
            if !matches!(self.next(), Some(Token::Star)) {
                return Err(self.err("expected `*` in COUNT(*)"));
            }
            if !matches!(self.next(), Some(Token::RParen)) {
                return Err(self.err("expected `)` after COUNT(*"));
            }
            count = true;
            // COUNT still needs a range to bind; project the first var.
            projections.push(Operand::Path { var: "*".into(), path: Vec::new() });
        } else {
            loop {
                if matches!(self.peek(), Some(Token::Star)) {
                    self.pos += 1;
                    projections.push(Operand::Path { var: "*".into(), path: Vec::new() });
                } else {
                    projections.push(self.path_operand()?);
                }
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;
        let ranges = self.ranges()?;
        let condition = self.opt_where()?;
        let for_clause = if self.eat_keyword("FOR") {
            if self.eat_keyword("READ") {
                ForClause::Read
            } else if self.eat_keyword("UPDATE") {
                ForClause::Update
            } else {
                return Err(self.err("expected READ or UPDATE after FOR"));
            }
        } else {
            ForClause::Read
        };
        Ok(Statement::Select(Query { projections, count, ranges, condition, for_clause }))
    }

    fn update(&mut self) -> Result<Statement> {
        // UPDATE var.path = literal FROM ranges [WHERE cond]
        let target = self.path_operand()?;
        if !matches!(self.next(), Some(Token::Eq)) {
            return Err(self.err("expected `=` in UPDATE"));
        }
        let value = self.literal()?;
        self.expect_keyword("FROM")?;
        let ranges = self.ranges()?;
        let condition = self.opt_where()?;
        Ok(Statement::Update { target, value, ranges, condition })
    }

    /// `INSERT INTO relation VALUES (attr: literal, …)` — flat tuples only;
    /// nested complex objects are inserted through the API
    /// ([`Statement::Insert`] with a pre-built value).
    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INTO")?;
        let relation = self.expect_ident()?;
        self.expect_keyword("VALUES")?;
        if !matches!(self.next(), Some(Token::LParen)) {
            return Err(self.err("expected `(`"));
        }
        let mut fields = Vec::new();
        loop {
            let name = self.expect_ident()?;
            if !matches!(self.next(), Some(Token::Colon)) {
                return Err(self.err("expected `:` after attribute name"));
            }
            let value = self.literal()?;
            fields.push((name.into(), value));
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        Ok(Statement::Insert { relation, value: Value::Tuple(fields.into()) })
    }

    fn delete(&mut self) -> Result<Statement> {
        let var = self.expect_ident()?;
        self.expect_keyword("FROM")?;
        let ranges = self.ranges()?;
        let condition = self.opt_where()?;
        Ok(Statement::Delete { var, ranges, condition })
    }

    fn ranges(&mut self) -> Result<Vec<RangeDecl>> {
        let mut out = vec![self.range()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            out.push(self.range()?);
        }
        Ok(out)
    }

    fn range(&mut self) -> Result<RangeDecl> {
        let var = self.expect_ident()?;
        self.expect_keyword("IN")?;
        let first = self.expect_ident()?;
        if matches!(self.peek(), Some(Token::Dot)) {
            let mut path = Vec::new();
            while matches!(self.peek(), Some(Token::Dot)) {
                self.pos += 1;
                path.push(self.expect_ident()?);
            }
            Ok(RangeDecl { var, source: RangeSource::Path { parent: first, path } })
        } else {
            Ok(RangeDecl { var, source: RangeSource::Relation(first) })
        }
    }

    fn opt_where(&mut self) -> Result<Option<Condition>> {
        if self.eat_keyword("WHERE") {
            Ok(Some(self.condition()?))
        } else {
            Ok(None)
        }
    }

    fn condition(&mut self) -> Result<Condition> {
        let mut left = self.conjunction()?;
        while self.eat_keyword("OR") {
            let right = self.conjunction()?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn conjunction(&mut self) -> Result<Condition> {
        let mut left = self.atom()?;
        while self.eat_keyword("AND") {
            let right = self.atom()?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Condition> {
        if self.eat_keyword("NOT") {
            return Ok(Condition::Not(Box::new(self.atom()?)));
        }
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let c = self.condition()?;
            if !matches!(self.next(), Some(Token::RParen)) {
                return Err(self.err("expected `)`"));
            }
            return Ok(c);
        }
        let left = self.operand()?;
        let op = match self.next() {
            Some(Token::Eq) => Comparison::Eq,
            Some(Token::Neq) => Comparison::Neq,
            Some(Token::Lt) => Comparison::Lt,
            Some(Token::Le) => Comparison::Le,
            Some(Token::Gt) => Comparison::Gt,
            Some(Token::Ge) => Comparison::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        let right = self.operand()?;
        Ok(Condition::Cmp { left, op, right })
    }

    fn operand(&mut self) -> Result<Operand> {
        match self.peek() {
            Some(Token::Ident(_)) => self.path_operand(),
            _ => Ok(Operand::Literal(self.literal()?)),
        }
    }

    fn path_operand(&mut self) -> Result<Operand> {
        let var = self.expect_ident()?;
        let mut path = Vec::new();
        while matches!(self.peek(), Some(Token::Dot)) {
            self.pos += 1;
            path.push(self.expect_ident()?);
        }
        Ok(Operand::Path { var, path })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Real(r)) => Ok(Value::Real(r)),
            Some(Token::Keyword(k)) if k == "TRUE" => Ok(Value::Bool(true)),
            Some(Token::Keyword(k)) if k == "FALSE" => Ok(Value::Bool(false)),
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }
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
