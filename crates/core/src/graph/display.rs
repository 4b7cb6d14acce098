//! Pretty printers for lock graphs (used by the figure-reproduction
//! binaries).

use super::general::{ConceptGraph, EdgeKind};
use super::object::{DbLockGraph, NodeId};
use crate::resource::ResourcePath;
use colock_lockmgr::{LockManager, TxnId};
use std::fmt::Write;

/// Renders the object-specific lock graph as an indented tree (dashed edges
/// annotated inline), in the style of Fig. 5.
pub fn object_graph_tree(g: &DbLockGraph) -> String {
    let mut out = String::new();
    render(g, g.db_node(), 0, &mut out);
    out
}

fn render(g: &DbLockGraph, id: NodeId, depth: usize, out: &mut String) {
    let n = g.node(id);
    let pad = "  ".repeat(depth);
    match &n.ref_target {
        Some(t) => {
            let _ = writeln!(out, "{pad}{} - - -> C.O. \"{t}\"", n.name);
        }
        None => {
            let _ = writeln!(out, "{pad}{}", n.name);
        }
    }
    for &c in &n.children {
        render(g, c, depth + 1, out);
    }
}

/// Renders a concept graph (Fig. 2 / Fig. 4) as an edge list.
pub fn concept_graph_text(g: &ConceptGraph) -> String {
    let mut out = String::new();
    for (name, cat) in &g.nodes {
        let _ = writeln!(out, "node: {name} [{cat}]");
    }
    for e in &g.edges {
        let arrow = match e.kind {
            EdgeKind::Solid => "-->",
            EdgeKind::Dashed => "- ->",
        };
        let _ = writeln!(out, "{} {} {}", g.nodes[e.from].0, arrow, g.nodes[e.to].0);
    }
    out
}

/// Renders the current lock table in the style of Fig. 7: one line per
/// locked resource, with the per-transaction mode annotations (`Q2: IX;
/// Q3: IX`). Transactions are labelled by the given names, in order.
pub fn render_held_locks(
    lm: &LockManager<ResourcePath>,
    txns: &[(TxnId, &str)],
) -> String {
    let mut resources: Vec<ResourcePath> = Vec::new();
    for (txn, _) in txns {
        for (r, _, _) in lm.locks_of(*txn) {
            if !resources.contains(&r) {
                resources.push(r);
            }
        }
    }
    resources.sort();
    let mut out = String::new();
    for r in resources {
        let annotations: Vec<String> = txns
            .iter()
            .filter_map(|(txn, name)| {
                let mode = lm.held_mode(*txn, &r);
                if mode == colock_lockmgr::LockMode::NL {
                    None
                } else {
                    Some(format!("{name}: {mode}"))
                }
            })
            .collect();
        let _ = writeln!(out, "{r}  [{}]", annotations.join("; "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::derive::derive_from_schema;
    use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
    use colock_nf2::types::shorthand::*;

    #[test]
    fn tree_contains_dashed_annotation() {
        let db = DatabaseBuilder::new("db1")
            .segment("s1")
            .relation(
                RelationBuilder::new("a", "s1")
                    .attr("a_id", str_())
                    .attr("b_ref", ref_("b"))
                    .finish(),
            )
            .relation(RelationBuilder::new("b", "s1").attr("b_id", str_()).finish())
            .finish()
            .unwrap();
        let g = derive_from_schema(&db);
        let txt = object_graph_tree(&g);
        assert!(txt.contains("- - -> C.O. \"b\""), "{txt}");
        assert!(txt.contains("Database \"db1\""));
    }

    #[test]
    fn held_locks_render_like_fig7() {
        use crate::authorization::{Authorization, Right};
        use crate::fixtures::{fig1_catalog, fig6_source};
        use crate::protocol::{InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind};
        use colock_lockmgr::LockMode;
        use std::sync::Arc;

        let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
        let lm = LockManager::new();
        let src = fig6_source();
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        for (txn, robot) in [(TxnId(2), "r1"), (TxnId(3), "r2")] {
            let target = InstanceTarget::object("cells", "c1").elem("robots", robot);
            let cx = LockCtx::new(&lm, txn, &src, &authz);
            engine.lock(&cx, ProtocolKind::Proposed, &target, LockMode::X).unwrap();
        }
        let text = render_held_locks(&lm, &[(TxnId(2), "Q2"), (TxnId(3), "Q3")]);
        assert!(text.contains("[Q2: IX; Q3: IX]"), "{text}");
        assert!(text.contains("obj:e2  [Q2: S; Q3: S]"), "{text}");
        assert!(text.contains("[r1]  [Q2: X]"), "{text}");
    }

    #[test]
    fn concept_text_lists_nodes_and_edges() {
        let txt = concept_graph_text(&ConceptGraph::xsql());
        assert!(txt.contains("Complex Objects"));
        assert!(txt.contains("-->"));
    }
}
