//! Step tracing for the DYNSUM driver — the columns of the paper's
//! Table 1.

use dynsum_pag::{CallSiteId, FieldId, NodeId, Pag};

use crate::rsm::Direction;

/// How a traversal step was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The partial points-to summary for this configuration was computed
    /// fresh by Algorithm 3.
    PptaComputed,
    /// The summary was found in the cache — the paper marks these steps
    /// *reuse* in Table 1.
    PptaReused,
    /// The node had no local edges, so no PPTA was needed (§4.3).
    NoLocalEdges,
    /// A global edge was crossed by the worklist driver (Algorithm 4).
    GlobalEdge,
    /// An object was reported into the points-to set.
    ObjectFound,
}

impl StepKind {
    /// Short display tag.
    pub fn tag(self) -> &'static str {
        match self {
            StepKind::PptaComputed => "ppta",
            StepKind::PptaReused => "reuse",
            StepKind::NoLocalEdges => "skip",
            StepKind::GlobalEdge => "global",
            StepKind::ObjectFound => "object",
        }
    }
}

/// One row of a DYNSUM traversal trace: the `(v, f, s, c)` configuration
/// of Table 1 plus what happened there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Current node.
    pub node: NodeId,
    /// Field stack, bottom-to-top.
    pub field_stack: Vec<FieldId>,
    /// RSM direction state.
    pub state: Direction,
    /// Context stack, bottom-to-top.
    pub ctx: Vec<CallSiteId>,
    /// What the driver did at this configuration.
    pub kind: StepKind,
}

impl TraceStep {
    /// Renders the step like a Table 1 row, resolving ids to names
    /// against the graph that produced it.
    pub fn render(&self, pag: &Pag) -> String {
        let fields: Vec<&str> = self
            .field_stack
            .iter()
            .map(|&f| pag.field_name(f))
            .collect();
        let ctx: Vec<String> = self
            .ctx
            .iter()
            .map(|&c| pag.site_label(c).to_owned())
            .collect();
        format!(
            "{:<16} [{}] {} [{}] {}",
            pag.node_label(self.node),
            fields.join(","),
            self.state,
            ctx.join(","),
            self.kind.tag()
        )
    }
}

/// A recorder for traversal traces. The engines accept an
/// `Option<&mut Trace>`; passing `None` keeps tracing strictly zero-cost.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    steps: Vec<TraceStep>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { steps: Vec::new() }
    }

    /// Appends a step.
    pub fn push(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// The recorded steps, in order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps satisfied from the summary cache.
    pub fn reuse_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::PptaReused)
            .count()
    }

    /// Renders the whole trace, one row per line, against `pag`.
    pub fn render(&self, pag: &Pag) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!("{i:>4}  {}\n", s.render(pag)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::PagBuilder;

    #[test]
    fn trace_records_and_counts_reuse() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let pag = b.finish();
        let node = pag.var_node(v);

        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(TraceStep {
            node,
            field_stack: vec![],
            state: Direction::S1,
            ctx: vec![],
            kind: StepKind::PptaComputed,
        });
        t.push(TraceStep {
            node,
            field_stack: vec![],
            state: Direction::S1,
            ctx: vec![],
            kind: StepKind::PptaReused,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.reuse_count(), 1);
        let rendered = t.render(&pag);
        assert!(rendered.contains("v"));
        assert!(rendered.contains("reuse"));
    }

    #[test]
    fn step_renders_fields_and_ctx() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let f = b.field("elems");
        let site = b.add_call_site("22", m).unwrap();
        let _ = (f, site);
        let pag = b.finish();
        let step = TraceStep {
            node: pag.var_node(v),
            field_stack: vec![pag.find_field("elems").unwrap()],
            state: Direction::S2,
            ctx: vec![pag.find_call_site("22").unwrap()],
            kind: StepKind::GlobalEdge,
        };
        let line = step.render(&pag);
        assert!(line.contains("elems"));
        assert!(line.contains("S2"));
        assert!(line.contains("22"));
    }
}
